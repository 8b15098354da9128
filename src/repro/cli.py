"""Command-line interface: regenerate any of the paper's figures.

Usage::

    python -m repro fig1  [--victim-rate 0.5]
    python -m repro fig4  [--duration 30]
    python -m repro fig5  [--sizes 1000,100000,1000000]
    python -m repro fig6  [--rates 25,100,400]
    python -m repro fig7  [--kernels ferret,dedup] [--scale 1.0]
    python -m repro fig8  [--victim-rate 0.5]
    python -m repro placement
    python -m repro covert
    python -m repro collab
    python -m repro observe [--duration 10] [--categories vmm,ingress]
    python -m repro observe [--out run.jsonl] [--perfetto out.json] [--profile]
    python -m repro observe [--flow echo/3] [--top 5]
    python -m repro chaos   [--check-determinism] [--crash-at 0.9]
    python -m repro scale   [--tenants 1,8,32] [--shards 2] [--spec s.toml]
    python -m repro bench run --benchmark kernel.scale32 [--profile]
    python -m repro bench run --benchmark chaos.storm [--set seeds=7]
    python -m repro bench run --benchmark mitigation.frontier --no-write
    python -m repro bench run --benchmark storage.repair [--set k=3]
    python -m repro bench compare --path BENCH_kernel.json --gate
    python -m repro bench history --path BENCH_kernel.json
    python -m repro campaign run examples/fig5_sweep.toml --jobs 0
    python -m repro campaign status examples/fig5_sweep.toml
    python -m repro campaign resume examples/fig5_sweep.toml
    python -m repro campaign aggregate examples/fig5_sweep.toml
    python -m repro list

``repro observe`` runs the Sec. VII-A echo+compute cloud once, with
tracing and flow tracking on, and prints what it captured: the trace
categories, the event-loop counters, the real-time cost of the
offsets Δn and Δd, the span and flow counts, and the critical-path
stage and slowest-flow tables (or one flow's span timeline).

The gated cells -- ``kernel.scale<N>``, ``chaos.storm``,
``mitigation.frontier`` and ``storage.repair`` -- run only through
``repro bench run``: their defaults live in one place, the cell table
(:mod:`repro.bench.registry`), and ``--set key=value`` overrides any
of them.
"""

import argparse
import json
import sys
from typing import List


def _ints(text: str) -> List[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers, got {text!r}")
    return values


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a positive number, got {text}")
    return value


def cmd_fig1(args) -> None:
    from repro.analysis import fig1_observation_curves, format_table
    rows = fig1_observation_curves(victim_rate=args.victim_rate)
    print(f"Fig. 1: observations to detect victim "
          f"(lambda'={args.victim_rate})")
    print(format_table(["confidence", "w/o StopWatch", "w/ StopWatch"],
                       rows))


def cmd_fig4(args) -> None:
    from repro.analysis import fig4_empirical_detection, format_table
    result = fig4_empirical_detection(duration=args.duration)
    rows = [(c, base_n, sw_n)
            for (c, base_n), (_, sw_n)
            in zip(result["curve_baseline"], result["curve_stopwatch"])]
    print("Fig. 4: empirical coresidence detection")
    print(format_table(["confidence", "w/o StopWatch", "w/ StopWatch"],
                       rows))


def cmd_fig5(args) -> None:
    from repro.analysis import fig5_file_download, format_table
    rows = fig5_file_download(sizes=args.sizes)
    rendered = [(s, hb * 1000, hs * 1000, hs / hb, ub * 1000, us * 1000,
                 us / ub) for s, hb, hs, ub, us in rows]
    print("Fig. 5: file-retrieval latency (ms)")
    print(format_table(["size B", "HTTP base", "HTTP SW", "ratio",
                        "UDP base", "UDP SW", "ratio"], rendered))


def cmd_fig6(args) -> None:
    from repro.analysis import fig6_nfs, format_table
    rows = fig6_nfs(rates=args.rates, duration=args.duration)
    rendered = [(r, b * 1000, s * 1000, s / b, c2s, s2c)
                for r, b, s, c2s, s2c, _ in rows]
    print("Fig. 6: NFS / nhfsstone")
    print(format_table(["ops/s", "base ms/op", "SW ms/op", "ratio",
                        "c->s pkts/op", "s->c pkts/op"], rendered))


def cmd_fig7(args) -> None:
    from repro.analysis import fig7_parsec, format_table
    kernels = args.kernels.split(",") if args.kernels else None
    rows = fig7_parsec(kernels=kernels, scale=args.scale)
    rendered = [(n, b * 1000, s * 1000, s / b, i, pb * 1000, ps * 1000, pi)
                for n, b, s, i, pb, ps, pi in rows]
    print("Fig. 7: PARSEC kernels")
    print(format_table(["kernel", "base ms", "SW ms", "ratio", "ints",
                        "paper base", "paper SW", "paper ints"], rendered))


def cmd_fig8(args) -> None:
    from repro.analysis import fig8_noise_comparison, format_table
    result = fig8_noise_comparison(victim_rate=args.victim_rate)
    rows = [(r.confidence, r.observations, r.noise_bound,
             r.stopwatch_delay_baseline, r.noise_delay_baseline)
            for r in result["table"]]
    print(f"Fig. 8: StopWatch vs uniform noise (lambda'="
          f"{args.victim_rate})")
    print(format_table(["confidence", "obs", "noise b", "E[SW delay]",
                        "E[noise delay]"], rows))
    curve = [(p.target_observations, p.noise_bound, p.noise_delay,
              p.stopwatch_delay) for p in result["curve"]]
    print("\nProtection-cost scaling:")
    print(format_table(["target obs", "noise b", "noise delay",
                        "SW delay"], curve))


def cmd_placement(args) -> None:
    from repro.analysis import format_table, placement_utilization
    rows = placement_utilization()
    print("Sec. VIII: placement utilisation")
    print(format_table(["machines", "capacity", "StopWatch VMs",
                        "isolation", "Thm1 bound", "c*n/3"], rows))


def cmd_covert(args) -> None:
    from repro.attacks import run_covert_channel
    for mediated in (False, True):
        result = run_covert_channel(mediated=mediated, n_bits=args.bits)
        label = "StopWatch" if mediated else "unmodified Xen"
        print(f"{label}: BER = {result.bit_error_rate:.2f}")


def cmd_collab(args) -> None:
    from repro.analysis import format_table
    from repro.attacks import run_collab_experiment
    rows = []
    for replicas, collab in ((3, False), (3, True), (5, True)):
        result = run_collab_experiment(replicas=replicas,
                                       collaborator=collab,
                                       duration=args.duration)
        rows.append((f"{replicas} replicas, "
                     f"{'with' if collab else 'no'} collaborator",
                     result.observations_needed()))
    print("Sec. IX: collaborating attackers")
    print(format_table(["condition", "obs to detect @95%"], rows))


def cmd_observe(args) -> None:
    import time as _time

    from repro.analysis import format_table
    from repro.analysis.flows import (flow_detail_rows, flow_stage_rows,
                                      flow_summary, slowest_flow_rows)
    from repro.analysis.observe import (offset_rows, run_observed_workload,
                                        trace_category_rows)
    from repro.obs import STAGES, export_perfetto, validate_file

    categories = ([c for c in args.categories.split(",") if c]
                  if args.categories else None)
    started = _time.perf_counter()
    sim, sink = run_observed_workload(
        duration=args.duration, seed=args.seed, categories=categories,
        max_per_category=args.cap, profile=args.profile,
        jsonl_path=args.out, flows=True)
    total_seconds = _time.perf_counter() - started
    trace, tracker = sim.trace, sim.flows
    print(f"Trace: {len(trace)} records retained, "
          f"{trace.dropped} dropped (cap={args.cap})")
    print(format_table(["category", "retained", "dropped"],
                       trace_category_rows(trace)))
    if sink is not None:
        print(f"Streamed {sink.written} records to {args.out}")
    print("\nEvent loop:")
    print(format_table(["metric", "value"], list(sim.stats().items())))
    print("\nSec. VII-A: real-time translation of the virtual offsets")
    print(format_table(["offset", "events", "mean ms", "min ms", "max ms",
                        "p50 ms", "p95 ms", "p99 ms"], offset_rows(trace)))

    summary = flow_summary(tracker)
    print(f"\nSpans: {summary['spans']} recorded "
          f"({summary['open_spans']} open, "
          f"{summary['dropped_spans']} dropped) across "
          f"{summary['flows']} flows")
    print(format_table(["span", "count"],
                       sorted(tracker.store.name_counts().items())))
    print(f"Flows: {summary['complete']} complete / {summary['flows']} "
          f"tracked ({summary['incomplete']} incomplete, "
          f"{summary['dropped_flows']} evicted, "
          f"{summary['nak_repairs']} NAK repairs)")
    if args.flow:
        flow, rows = flow_detail_rows(tracker, args.flow)
        if flow is None:
            raise SystemExit(f"unknown flow {args.flow!r} (ids look like "
                             f"'echo/3'; try the slowest-flows table)")
        e2e = flow.end_to_end
        state = (f"end-to-end {e2e * 1000:.3f} ms"
                 if e2e is not None else "not yet released")
        print(f"\nFlow {flow.flow_id}: {state}, "
              f"critical replica {flow.release_replica}")
        print(format_table(["span", "replica", "start ms", "end ms",
                            "dur ms", "annotations"], rows))
    else:
        print("\nCritical-path stage latency (ms):")
        print(format_table(["stage", "count", "mean", "p50", "p95", "p99"],
                           flow_stage_rows(tracker)))
        print(f"\nSlowest {args.top} flows (ms):")
        print(format_table(["flow", "e2e", "dominant"] + list(STAGES),
                           slowest_flow_rows(tracker, top_k=args.top)))

    extra = None
    if args.profile:
        from repro.bench.cli import profile_lines
        from repro.prof.export import counter_events
        profile = sim.profiler.summary(
            loop_seconds=sim.wall_seconds, total_seconds=total_seconds,
            release_times=trace.times("egress.release"))
        print("\n" + "\n".join(profile_lines(profile, top=args.top)))
        extra = counter_events(profile)
    if args.perfetto:
        written = export_perfetto(tracker.store, args.perfetto,
                                  extra_events=extra)
        print(f"\nExported {written} duration events to {args.perfetto} "
              f"(open in https://ui.perfetto.dev"
              f"{'; profiler counter tracks merged' if extra else ''})")
        problems = validate_file(args.perfetto)
        if problems:
            print("Validation FAILED:")
            for problem in problems:
                print(f"  - {problem}")
            raise SystemExit(1)
        print("Validation: PASS (parses, pid/tid/ts/dur present, "
              "critical stages sum to end-to-end)")


def cmd_chaos(args) -> None:
    from repro.analysis import format_table
    from repro.analysis.chaos import (chaos_signature, chaos_timeline_rows,
                                      default_schedule, determinism_check,
                                      run_chaos_experiment, service_summary)
    schedule = default_schedule(crash_at=args.crash_at,
                                restart_at=args.restart_at,
                                replica=args.replica)
    if args.check_determinism:
        check = determinism_check(seed=args.seed, duration=args.duration,
                                  schedule=schedule)
        result = check["first"]
    else:
        check = None
        result = run_chaos_experiment(seed=args.seed,
                                      duration=args.duration,
                                      schedule=schedule)

    print(f"Chaos run: seed={args.seed} duration={args.duration}s, "
          f"crash echo:{args.replica} at t={args.crash_at}, "
          f"restart at t={args.restart_at}")
    print(format_table(["time", "event", "detail"],
                       chaos_timeline_rows(result)))
    summary = service_summary(result)
    lo, hi = summary["window"]
    print(f"\nService: {summary['replies']}/{summary['sent']} pings "
          f"answered; {summary['replies_during_outage']} during the "
          f"outage window [{lo:.2f}s, {hi:.2f}s], "
          f"{summary['replies_after_recovery']} after recovery; "
          f"{summary['released']} packets released at egress")
    signature = chaos_signature(result["sim"].trace)
    print(f"Signature: {len(signature)} fault/recovery/release records")
    if check is not None:
        if check["identical"]:
            print(f"Determinism: PASS -- two seed-{args.seed} runs "
                  f"produced identical signatures "
                  f"({check['records']} records)")
        else:
            index, a, b = check["divergence"]
            print(f"Determinism: FAIL at record {index}:")
            print(f"  run 1: {a}")
            print(f"  run 2: {b}")
            raise SystemExit(1)


def cmd_scale(args) -> None:
    from repro.analysis import format_table
    from repro.analysis.scale import build_scale_spec, run_scale_cell
    from repro.bench.cli import _parse_set
    from repro.cloud.scenario import ScenarioSpec

    if args.profile_out and not args.profile:
        raise SystemExit("--profile-out requires --profile")
    if args.spec:
        specs = [ScenarioSpec.from_file(args.spec)]
        if args.shards is not None:
            specs[0].shards = args.shards
    else:
        workload_params = _parse_set(args.workload_param)
        specs = [build_scale_spec(
            tenants, shards=args.shards or 1, workload=args.workload,
            clients_per_tenant=args.clients, request_rate=args.rate,
            machines=args.machines, workload_params=workload_params)
            for tenants in args.tenants]
    rows = [run_scale_cell(spec, duration=args.duration, seed=args.seed,
                           profile=args.profile) for spec in specs]

    print("Multi-tenant scale sweep (mediation = ingress admission -> "
          "egress release)")
    print(format_table(
        ["tenants", "machines", "cap", "shards", "events/s",
         "releases/s", "p50 ms", "p95 ms", "placed", "replicas agree"],
        [(r["tenants"], r["machines"], r["capacity"], r["shards"],
          int(r["events_per_second"]), round(r["releases_per_sim_second"], 1),
          round(r["mediation_p50"] * 1000, 3),
          round(r["mediation_p95"] * 1000, 3),
          "yes" if r["placement_verified"] else "NO",
          "yes" if r["outputs_consistent"] else "NO") for r in rows]))

    if args.profile:
        from repro.bench.cli import profile_lines
        from repro.prof.profiler import merge_summaries
        profiles = [row["profile"] for row in rows if row.get("profile")]
        merged = profiles[0] if len(profiles) == 1 \
            else merge_summaries(profiles)
        for line in profile_lines(merged):
            print(line)
        if args.profile_out:
            from repro.prof.export import write_speedscope
            write_speedscope(args.profile_out, merged, name="repro scale")
            print(f"wrote speedscope profile to {args.profile_out} "
                  f"(open in https://www.speedscope.app)")

    failed = False
    for row in rows:
        if not row["placement_verified"]:
            print(f"FAIL: {row['scenario']}: placement invariants violated")
            failed = True
        if not row["outputs_consistent"]:
            print(f"FAIL: {row['scenario']}: replica output counts diverge")
            failed = True

    if not args.once:
        # same-seed re-run: the egress release schedule must be
        # byte-identical (the determinism claim, end to end)
        for spec, row in zip(specs, rows):
            rerun = run_scale_cell(spec, duration=args.duration,
                                   seed=args.seed)
            if rerun["egress_signature"] != row["egress_signature"]:
                print(f"FAIL: {row['scenario']}: seed {args.seed} egress "
                      f"traces differ across runs")
                failed = True
            else:
                print(f"Determinism: {row['scenario']}: PASS "
                      f"(seed-{args.seed} egress signature "
                      f"{row['egress_signature'][:16]}... reproduced)")
    if failed:
        raise SystemExit(1)


def cmd_workloads(args) -> None:
    from repro.analysis import format_table
    from repro.workloads import registry

    specs = [registry.get(name) for name in registry.names()]
    if args.json:
        print(json.dumps([{
            "name": spec.name,
            "scope": spec.scope,
            "profile": spec.profile.as_dict(),
            "ports": list(spec.ports),
            "defaults": dict(spec.defaults),
            "has_driver": spec.driver is not None,
            "description": spec.description,
        } for spec in specs], indent=2, default=repr))
        return
    print("Deployable workloads (scenario/TOML `workload = \"<name>\"`; "
          "defaults overridable via [tenants.workload_params])")
    print(format_table(
        ["workload", "scope", "cpu", "disk", "net", "port", "driver",
         "description"],
        [(spec.name, spec.scope,
          f"{spec.profile.cpu:.2f}", f"{spec.profile.disk:.2f}",
          f"{spec.profile.net:.2f}",
          ",".join(str(port) for port in spec.ports) or "-",
          "yes" if spec.driver is not None else "no",
          spec.description) for spec in specs]))


def cmd_list(args) -> None:
    from repro.bench.registry import cell_names
    print("Subcommands: " + " ".join(args.commands))
    print("Cells (campaign runners and bench ids): "
          + " ".join(cell_names()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from the StopWatch paper "
                    "(Li/Gao/Reiter, DSN 2013) on the simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="analytic median justification")
    p.add_argument("--victim-rate", type=float, default=0.5)
    p.set_defaults(fn=cmd_fig1)

    p = sub.add_parser("fig4", help="empirical coresidence detection")
    p.add_argument("--duration", type=_positive_float, default=30.0)
    p.set_defaults(fn=cmd_fig4)

    p = sub.add_parser("fig5", help="file-download latency")
    p.add_argument("--sizes", type=_ints,
                   default="1000,10000,100000,1000000")
    p.set_defaults(fn=cmd_fig5)

    p = sub.add_parser("fig6", help="NFS under nhfsstone")
    p.add_argument("--rates", type=_ints, default="25,50,100,200,400")
    p.add_argument("--duration", type=_positive_float, default=8.0)
    p.set_defaults(fn=cmd_fig6)

    p = sub.add_parser("fig7", help="PARSEC kernels")
    p.add_argument("--kernels", default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(fn=cmd_fig7)

    p = sub.add_parser("fig8", help="StopWatch vs uniform noise")
    p.add_argument("--victim-rate", type=float, default=0.5)
    p.set_defaults(fn=cmd_fig8)

    p = sub.add_parser("placement", help="Sec. VIII utilisation")
    p.set_defaults(fn=cmd_placement)

    p = sub.add_parser("covert", help="covert-channel BER")
    p.add_argument("--bits", type=int, default=24)
    p.set_defaults(fn=cmd_covert)

    p = sub.add_parser("collab", help="Sec. IX collaborating attackers")
    p.add_argument("--duration", type=_positive_float, default=15.0)
    p.set_defaults(fn=cmd_collab)

    p = sub.add_parser("observe", help="run the Sec. VII-A cloud once: "
                                       "trace, offsets, flows and spans")
    p.add_argument("--duration", type=_positive_float, default=2.0)
    p.add_argument("--seed", type=int, default=5)
    p.add_argument("--categories", default=None,
                   help="comma-separated dotted category prefixes "
                        "(default: record everything)")
    p.add_argument("--cap", type=_positive_int, default=100_000,
                   help="ring-buffer cap per category")
    p.add_argument("--out", default=None, help="stream records to this "
                                               "JSONL file")
    p.add_argument("--perfetto", default=None, metavar="OUT",
                   help="write Chrome trace-event JSON to this file and "
                        "validate it (exit 1 on a problem)")
    p.add_argument("--profile", action="store_true",
                   help="attribute CPU to subsystems; with --perfetto, "
                        "merge counter tracks into the span trace")
    p.add_argument("--flow", default=None, metavar="ID",
                   help="show one flow's span timeline (e.g. echo/3)")
    p.add_argument("--top", type=_positive_int, default=10,
                   help="slowest flows and hottest callbacks to list")
    p.set_defaults(fn=cmd_observe)

    p = sub.add_parser("chaos", help="crash/recover a replica mid-run "
                                     "under load")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--duration", type=_positive_float, default=3.0)
    p.add_argument("--crash-at", type=float, default=0.9)
    p.add_argument("--restart-at", type=float, default=2.0)
    p.add_argument("--replica", type=int, default=2,
                   help="echo replica id to crash")
    p.add_argument("--check-determinism", action="store_true",
                   help="run twice with the same seed and compare "
                        "fault/recovery/heal/release signatures")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser("scale", help="multi-tenant fleet scaling: "
                                     "throughput and mediation delay vs "
                                     "tenant count, with placement and "
                                     "determinism verification")
    p.add_argument("--tenants", type=_ints, default="1,8,32",
                   help="comma-separated tenant counts")
    p.add_argument("--duration", type=_positive_float, default=3.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--shards", type=_positive_int, default=None,
                   help="ingress/egress shard count (default 1)")
    p.add_argument("--workload", default="echo",
                   help="any registry workload name "
                        "(see `repro workloads`)")
    p.add_argument("--workload-param", action="append", default=None,
                   metavar="KEY=VALUE",
                   help="override a workload default (repeatable; JSON "
                        "values accepted, e.g. --workload-param n=4)")
    p.add_argument("--clients", type=_positive_int, default=1,
                   help="client machines per tenant VM")
    p.add_argument("--rate", type=float, default=40.0,
                   help="per-client request rate (echo/nfs)")
    p.add_argument("--machines", type=_positive_int, default=None,
                   help="pin the fleet size (default: auto-size)")
    p.add_argument("--spec", default=None, metavar="TOML",
                   help="run a ScenarioSpec file instead of the "
                        "homogeneous sweep")
    p.add_argument("--once", action="store_true",
                   help="skip the same-seed determinism re-run")
    p.add_argument("--profile", action="store_true",
                   help="profile each cell and report subsystem CPU "
                        "attribution (measurement-only; the determinism "
                        "re-run still passes)")
    p.add_argument("--profile-out", default=None, metavar="JSON",
                   help="write the profile as speedscope JSON "
                        "(requires --profile)")
    p.set_defaults(fn=cmd_scale)

    p = sub.add_parser("workloads", help="list the deployable workload "
                                         "registry: name, scope, "
                                         "resource profile, defaults")
    p.add_argument("--json", action="store_true",
                   help="print the registry as JSON")
    p.set_defaults(fn=cmd_workloads)

    from repro.bench.cli import add_bench_parser
    add_bench_parser(sub)

    from repro.campaign.cli import add_campaign_parser
    add_campaign_parser(sub)

    p = sub.add_parser("list", help="list subcommands and cells")
    p.set_defaults(fn=cmd_list, commands=list(sub.choices))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
