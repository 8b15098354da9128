"""``repro bench``: run named benchmarks, gate and browse trajectories.

Subcommands::

    repro bench run --benchmark kernel.scale32 [--profile] [--gate]
    repro bench compare [--path BENCH_kernel.json] [--gate]
    repro bench history [--path BENCH_kernel.json]
    repro bench list

``run`` executes a benchmark cell, prints the cell's report, appends
one schema-versioned entry to the family trajectory and reports the
regression gate against the prior entries (the freshly appended entry
never gates against itself).
``compare`` re-gates the *last* recorded entry against its history --
that is the CI job's cheap post-hoc check.  Both exit non-zero on a
regression; ``--gate`` additionally fails when there is no comparable
history at all (a gate that silently checks nothing).  ``run`` also
exits non-zero when the cell's own gate fails (the entry's ``ok`` is
false).
"""

import argparse
import inspect
import json
from typing import Any, Dict, List, Optional, Sequence


def _parse_value(text: str) -> Any:
    """``--set`` values: JSON if it parses, bare string otherwise."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(
            f"tolerance must be in [0, 1), got {text}")
    return value


def _parse_set(pairs: Optional[Sequence[str]]) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for pair in pairs or ():
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        overrides[key] = _parse_value(value)
    return overrides


def profile_lines(profile: Dict[str, Any], top: int = 8) -> List[str]:
    """Printable subsystem-attribution report for one profile summary."""
    from repro.analysis import format_table

    lines = ["Subsystem CPU attribution:"]
    total = sum(profile.get("subsystems", {}).values()) or 1.0
    lines.append(format_table(
        ["subsystem", "seconds", "share"],
        [(name, f"{seconds:.4f}", f"{100.0 * seconds / total:.1f}%")
         for name, seconds in profile.get("subsystems", {}).items()]))
    hottest = profile.get("hottest", ())[:top]
    if hottest:
        lines.append(f"Hottest callbacks (top {len(hottest)}):")
        lines.append(format_table(
            ["subsystem", "callback", "calls", "seconds"],
            [(row["subsystem"], row["callback"], row["calls"],
              f"{row['seconds']:.4f}") for row in hottest]))
    return lines


def _gate_report(gate: Dict[str, Any], strict: bool) -> bool:
    """Print the gate verdict; returns True when the caller must fail."""
    for line in gate.get("detail", ()):
        print(f"  {line}")
    for problem in gate.get("problems", ()):
        print(f"  FAIL: {problem}")
    if gate["problems"]:
        print(f"gate: FAIL ({len(gate['problems'])} problems, "
              f"{gate['comparable']} comparable entries)")
        return True
    if not gate["checked"] and strict:
        print("gate: FAIL (--gate requires a comparable prior entry; "
              "none found)")
        return True
    print(f"gate: {'PASS' if gate['checked'] else 'PASS (vacuous)'} "
          f"({gate['comparable']} comparable entries)")
    return False


def cmd_bench_run(args) -> None:
    from repro.bench import (append_entry, bench_plan, cell_entry,
                             compare_entry, default_path,
                             empty_trajectory, load_trajectory)
    from repro.bench.registry import load

    cell, kwargs, config = bench_plan(args.benchmark, _parse_set(args.set))
    runner = cell.resolve()
    takes = inspect.signature(runner).parameters
    if args.profile_out and not args.profile:
        raise SystemExit("--profile-out requires --profile")
    if args.profile_out and "profile" not in takes:
        raise SystemExit(f"--profile-out: benchmark {args.benchmark!r} "
                         f"takes no --profile")
    if args.profile and "profile" in takes:
        kwargs["profile"] = True
    if "progress" in takes and not args.json:
        kwargs["progress"] = print
    result = runner(**kwargs)
    entry = cell_entry(args.benchmark, result, config=config,
                       label=args.label)
    path = args.output or default_path(args.benchmark)
    prior = load_trajectory(path) or empty_trajectory()
    gate = compare_entry(entry, prior, tolerance=args.tolerance)
    if not args.no_write:
        append_entry(path, entry)

    if args.profile_out:
        profile = entry.get("profile")
        if not profile:
            raise SystemExit(f"--profile-out: benchmark "
                             f"{args.benchmark!r} produced no profile")
        from repro.prof.export import write_speedscope
        write_speedscope(args.profile_out, profile, name=args.benchmark)

    cell_failed = entry["metrics"].get("ok") is False
    if args.json:
        print(json.dumps({"entry": entry, "gate": gate,
                          "path": None if args.no_write else path,
                          "result": result}, indent=2, default=repr))
        if not gate["ok"] or (args.gate and not gate["checked"]) \
                or cell_failed:
            raise SystemExit(1)
    else:
        if cell.report:
            for line in load(cell.report)(result):
                print(line)
        metric = entry.get("primary_metric")
        value = entry["metrics"].get(metric) if metric else None
        headline = (f"{metric}={value:g}" if isinstance(
            value, (int, float)) else f"{len(entry['metrics'])} metrics")
        print(f"{entry['benchmark']} [{entry['label']}]: {headline}")
        if entry.get("egress_signature"):
            print(f"egress signature "
                  f"{entry['egress_signature'][:16]}...")
        if entry.get("profile"):
            for line in profile_lines(entry["profile"]):
                print(line)
        if args.profile_out:
            print(f"wrote speedscope profile to {args.profile_out} "
                  f"(open in https://www.speedscope.app)")
        if not args.no_write:
            print(f"appended entry to {path}")
        failed = _gate_report(gate, strict=args.gate)
        if cell_failed:
            print(f"cell gate: FAIL ({entry['benchmark']} reported "
                  f"ok=false)")
        if failed or cell_failed:
            raise SystemExit(1)


def _resolve_path(args) -> str:
    from repro.bench import default_path

    if args.path:
        return args.path
    if getattr(args, "benchmark", None):
        return default_path(args.benchmark)
    raise SystemExit("pass --path (or --benchmark to use its default "
                     "trajectory file)")


def cmd_bench_compare(args) -> None:
    from repro.bench import compare_entry, load_trajectory

    path = _resolve_path(args)
    trajectory = load_trajectory(path)
    if trajectory is None:
        raise SystemExit(f"no trajectory at {path}")
    entries = [entry for entry in trajectory.get("entries", ())
               if args.benchmark is None
               or entry.get("benchmark") == args.benchmark]
    if not entries:
        raise SystemExit(
            f"{path} has no entries"
            + (f" for benchmark {args.benchmark!r}" if args.benchmark
               else ""))
    candidate = entries[-1]
    gate = compare_entry(candidate, trajectory, tolerance=args.tolerance)
    if args.json:
        print(json.dumps({"candidate": candidate, "gate": gate},
                         indent=2))
        if not gate["ok"] or (args.gate and not gate["checked"]):
            raise SystemExit(1)
        return
    print(f"comparing last entry of {path}: "
          f"{candidate['benchmark']} [{candidate['label']}] "
          f"recorded {candidate.get('recorded')}")
    if _gate_report(gate, strict=args.gate):
        raise SystemExit(1)


def cmd_bench_history(args) -> None:
    from repro.analysis import format_table
    from repro.bench import history_rows, load_trajectory

    path = _resolve_path(args)
    trajectory = load_trajectory(path)
    if trajectory is None:
        raise SystemExit(f"no trajectory at {path}")
    rows = history_rows(trajectory, benchmark=args.benchmark)
    print(f"{path}: {len(rows)} entries")
    print(format_table(["label", "recorded", "benchmark", "metric",
                        "value", "signature"], rows))


def cmd_bench_list(args) -> None:
    from repro.bench import benchmark_names, default_path

    for name in benchmark_names():
        family = name.replace("<N>", "32")
        print(f"{name:24s} -> {default_path(family)}")


def add_bench_parser(sub) -> None:
    """Register the ``bench`` subcommand on the main CLI's subparsers."""
    from repro.bench.schema import DEFAULT_TOLERANCE

    p = sub.add_parser(
        "bench", help="unified benchmark registry: run named "
                      "benchmarks, append trajectory entries, gate "
                      "regressions")
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    r = bench_sub.add_parser("run", help="run a benchmark and append "
                                         "one trajectory entry")
    r.add_argument("--benchmark", required=True,
                   help="benchmark id (repro bench list)")
    r.add_argument("--label", default="head",
                   help="label recorded on the entry")
    r.add_argument("--output", default=None, metavar="PATH",
                   help="trajectory file (default: the family's "
                        "BENCH_<family>.json)")
    r.add_argument("--no-write", action="store_true",
                   help="measure and gate only; append nothing")
    r.add_argument("--profile", action="store_true",
                   help="attach a subsystem CPU profile to the entry "
                        "(measurement-only; never changes metrics)")
    r.add_argument("--profile-out", default=None, metavar="JSON",
                   help="also write the profile as speedscope JSON")
    r.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a benchmark parameter (repeatable; "
                        "values parse as JSON when possible)")
    r.add_argument("--tolerance", type=_tolerance,
                   default=DEFAULT_TOLERANCE,
                   help="regression tolerance in [0, 1) (default 0.20)")
    r.add_argument("--gate", action="store_true",
                   help="fail when there is no comparable history")
    r.add_argument("--json", action="store_true")
    r.set_defaults(fn=cmd_bench_run)

    c = bench_sub.add_parser("compare", help="re-gate the last recorded "
                                             "entry against its history")
    c.add_argument("--path", default=None, metavar="PATH",
                   help="trajectory file")
    c.add_argument("--benchmark", default=None,
                   help="restrict to one benchmark id")
    c.add_argument("--tolerance", type=_tolerance,
                   default=DEFAULT_TOLERANCE)
    c.add_argument("--gate", action="store_true",
                   help="fail when there is no comparable history")
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=cmd_bench_compare)

    h = bench_sub.add_parser("history", help="list a trajectory's "
                                             "entries")
    h.add_argument("--path", default=None, metavar="PATH")
    h.add_argument("--benchmark", default=None)
    h.set_defaults(fn=cmd_bench_history)

    ls = bench_sub.add_parser("list", help="registered benchmark ids")
    ls.set_defaults(fn=cmd_bench_list)
