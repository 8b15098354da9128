"""The repo benchmark: four paper-shaped workloads, end to end and by layer.

    PYTHONPATH=src python perf/run.py [--seed N] [--out FILE]
    PYTHONPATH=src python perf/run.py --trace
    python3 perf/run.py --workload nfs-fs --seed 5 --seconds 15 --trace 0
    python3 perf/run.py --compare perf/results/run-a.json run-b.json

Without ``--workload`` every workload runs, one after another.  Each
repeat is a fresh single-threaded worker process (``perf/worker.py``).
An untraced run measures the end-to-end metrics: StopWatch repeats
until ``--seconds`` have passed (at least three; host metrics are their
medians) plus one untimed ``PASSTHROUGH`` baseline for ``overhead_x``.
``--trace`` instead pairs one untraced repeat with one ``cProfile`` run
and reports the per-layer metrics.  Either way the correctness gates
run, every metric is printed with its unit, the result is written to
``--out`` and the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when a gate fails.

Metric names, units, directions and bounds live in ``BENCHMARK.json``;
this file computes the values.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import worker  # noqa: E402  (imports no simulator code at module level)

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_OUT = os.path.join(HERE, "results", "latest.json")
RESULT_SCHEMA = "perf-result/1"

MIN_REPEATS = 3
MAX_REPEATS = 9
#: a worker still running after this long has hung (s, wall clock)
WORKER_TIMEOUT = 150.0
#: workers stay on one core: no BLAS thread pools behind numpy/scipy
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}

#: layer self times must account for the traced CPU within this share
LAYER_SUM_TOLERANCE = 0.01


class WorkerError(RuntimeError):
    """A worker process failed or printed no result."""


def load_benchmark(path=BENCHMARK):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_worker(workload, seed, mode):
    """One repeat in a fresh process; the worker is killed and reaped
    if it outlives ``WORKER_TIMEOUT``."""
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), workload,
             str(seed), mode],
            capture_output=True, text=True, timeout=WORKER_TIMEOUT,
            env=dict(os.environ, **SINGLE_THREADED))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{workload} {mode} seed {seed}: no result "
                          f"after {WORKER_TIMEOUT:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"{workload} {mode} seed {seed} exited "
                          f"{done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def geomean(values):
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def job_overheads(run, baseline):
    """Per-job StopWatch/baseline completion-time ratios (batch only)."""
    return {name: run["jobs"][name] / baseline["jobs"][name]
            for name in run["jobs"]}


def overhead_x(run, baseline):
    """StopWatch mean op latency over the baseline's on the same seed;
    for a batch, the geometric mean of the per-job ratios."""
    if run["jobs"] is not None:
        return geomean(job_overheads(run, baseline).values())
    return run["latency"]["mean_ms"] / baseline["latency"]["mean_ms"]


def paper_x(workload, run):
    """The paper's overhead ratio for ``workload``, or ``None``."""
    if run["paper_jobs"] is not None:
        return geomean(sw / base
                       for base, sw, _ints in run["paper_jobs"].values())
    return worker.WORKLOADS[workload]["paper"]


def _shape(declared, values, samples):
    """Order ``values`` by the declared metric list and attach units;
    a metric declared but not computed (or the reverse) is a bug."""
    names = {metric["name"] for metric in declared}
    if names != set(values):
        raise KeyError(f"not computed: {sorted(names - set(values))}; "
                       f"not declared: {sorted(set(values) - names)}")
    shaped = {}
    for metric in declared:
        name = metric["name"]
        shaped[name] = {"value": values[name], "unit": metric["unit"]}
        if name in samples:
            shaped[name]["samples"] = samples[name]
    return shaped


def run_cpu(timed):
    """CPU of the workload's run: the sum over its simulated slices of
    the median slice CPU across repeats.  Every repeat does the same work
    in a slice, so a burst of host contention that hits one repeat's
    slice is filtered out instead of inflating that repeat's total."""
    slices = zip(*(r["slice_cpu_s"] for r in timed))
    return sum(statistics.median(cpu) for cpu in slices)


def end_to_end(bench, timed, baseline):
    """The end-to-end metrics of one untraced run: host metrics are
    medians over repeats (``samples`` keeps each repeat's own reading),
    simulated ones are fixed by the seed."""
    samples = {
        "cpu_s": [r["cpu_s"] for r in timed],
        "sim_s_per_cpu_s": [r["sim_s"] / r["cpu_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "latency_p50_ms": [r["latency"]["p50_ms"] for r in timed],
        "latency_tail_ms": [r["latency"]["tail_ms"] for r in timed],
        "overhead_x": [overhead_x(timed[0], baseline)],
    }
    values = {name: statistics.median(xs) for name, xs in samples.items()}
    values["cpu_s"] = run_cpu(timed)
    values["sim_s_per_cpu_s"] = timed[0]["sim_s"] / values["cpu_s"]
    return _shape(bench["end_to_end"], values, samples)


def per_layer(bench, timed, traced):
    """The per-layer metrics: cProfile self time and calls per layer from
    the traced run, public counters from the untraced repeats, simulated
    stage waits from the traced run's flow tracker."""
    cpu = run_cpu(timed)
    values = {}
    for layer, row in traced["layers"].items():
        values[f"{layer}.self_s"] = row["self_s"]
        values[f"{layer}.calls"] = row["calls"]
    values.update(timed[0]["counters"])
    values["sim.events_per_cpu_s"] = values["sim.events"] / cpu
    values["setup.import_s"] = statistics.median(r["import_s"] for r in timed)
    values["setup.build_s"] = statistics.median(r["build_s"] for r in timed)
    for stage, row in traced["stages"].items():
        values[f"obs.stage.{stage}.p50_ms"] = row["p50_ms"]
        values[f"obs.stage.{stage}.p99_ms"] = row["p99_ms"]
    values["trace.overhead_x"] = traced["cpu_s"] / cpu
    return _shape(bench["per_layer"], values, {})


def gates(workload, timed, baseline=None, traced=None):
    """Correctness failures of one workload run (empty when correct)."""
    failures = []
    stopwatch = timed + ([traced] if traced else [])
    signatures = {r["signature"] for r in stopwatch}
    if len(signatures) != 1:
        failures.append(f"egress signatures differ across repeats"
                        f"{' and the traced run' if traced else ''}: "
                        f"{sorted(s[:12] for s in signatures)}")
    for run in stopwatch + ([baseline] if baseline else []):
        label = f"{run['mode']} run"
        checks = run["checks"]
        if not checks["outputs_agree"]:
            failures.append(f"{label}: replica output counts disagree")
        if checks["divergences"]:
            failures.append(f"{label}: {checks['divergences']} divergences")
        if not checks["placement_ok"]:
            failures.append(f"{label}: placement does not verify")
        for name, count in checks.get("disk_interrupts", {}).items():
            expected = run["paper_jobs"][name][2]
            if count != expected:
                failures.append(f"{label}: {name} took {count} disk "
                                f"interrupts, the paper's is {expected}")
    if baseline is not None:
        run = timed[0]
        spec = worker.WORKLOADS[workload]
        if "job_max_x" in spec:
            for name, ratio in job_overheads(run, baseline).items():
                if ratio > spec["job_max_x"]:
                    failures.append(f"{name} overhead {ratio:.3f}x > "
                                    f"{spec['job_max_x']}x")
        if "band" in spec:
            low, high = spec["band"]
            ratio = overhead_x(run, baseline)
            if not low <= ratio <= high:
                failures.append(f"overhead {ratio:.3f}x outside "
                                f"[{low}, {high}]")
    if traced is not None:
        covered = sum(row["self_s"] for row in traced["layers"].values())
        share = covered / traced["cpu_s"]
        if abs(share - 1.0) > LAYER_SUM_TOLERANCE:
            failures.append(f"layer self times cover {share:.2%} of the "
                            f"traced CPU")
    return failures


def notes(workload, timed, baseline, traced):
    """What the metrics rest on: latency sample count and tail rule,
    load shape, the paper reference where the repo holds one, and the
    number of flows behind the traced stage waits."""
    run = timed[0]
    out = {"latency_n": run["latency"]["n"],
           "latency_tail": run["latency"]["tail"],
           "load": worker.WORKLOADS[workload]["load"],
           "repeats": len(timed)}
    if baseline is not None:
        reference = paper_x(workload, run)
        if reference is None:
            out["paper_x"] = "none; the model is unvalidated here"
        else:
            out["paper_x"] = reference
            out["paper_err"] = \
                abs(overhead_x(run, baseline) - reference) / reference
        if run["jobs"] is not None:
            out["job_overhead_x"] = job_overheads(run, baseline)
    if traced is not None:
        out["stage_flows"] = traced["stages"]["replicate"]["n"]
    return out


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------
def run_workload(bench, workload, seed, seconds, trace):
    """All repeats of one workload; returns its result entry."""
    started = time.monotonic()
    timed = []
    wanted = 1 if trace else MIN_REPEATS
    while len(timed) < MAX_REPEATS:
        timed.append(run_worker(workload, seed, "timed"))
        elapsed = time.monotonic() - started
        if len(timed) >= wanted and (
                trace or elapsed * (len(timed) + 1) / len(timed) > seconds):
            break
    baseline = traced = None
    if trace:
        traced = run_worker(workload, seed, "traced")
        metrics = per_layer(bench, timed, traced)
    else:
        baseline = run_worker(workload, seed, "baseline")
        metrics = end_to_end(bench, timed, baseline)
    failures = gates(workload, timed, baseline, traced)
    return {
        "seed": seed,
        "correct": not failures,
        "failures": failures,
        "attempted": sum(r["attempted"] for r in timed),
        "failed": sum(r["attempted"] - r["completed"] for r in timed),
        "signature": timed[0]["signature"],
        "metrics": metrics,
        "notes": notes(workload, timed, baseline, traced),
        "wall_s": time.monotonic() - started,
    }


def _fmt(value):
    if isinstance(value, dict):
        return ", ".join(f"{key} {_fmt(v)}" for key, v in value.items())
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, entry):
    """Human-readable table of one workload's result."""
    verdict = "correct" if entry["correct"] else "INCORRECT"
    lines = [f"== {workload} (seed {entry['seed']}, "
             f"{entry['notes']['repeats']} untraced repeats, "
             f"{entry['wall_s']:.1f} s) {verdict}"]
    lines += [f"   gate failed: {failure}" for failure in entry["failures"]]
    for name, metric in entry["metrics"].items():
        lines.append(f"   {name:<32} {_fmt(metric['value']):>14} "
                     f"{metric['unit']}")
    for key, value in entry["notes"].items():
        if key != "repeats":
            lines.append(f"   {key}: {_fmt(value)}")
    lines.append(f"   ops attempted {entry['attempted']}, "
                 f"not completed {entry['failed']}; egress signature "
                 f"{entry['signature'][:16]}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def spread(samples):
    """Interquartile distance as a share of the median (0 for <2)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / statistics.median(samples)


def mark(metric, a, b):
    """``ok``/``worse``/``unresolved`` for one (workload, metric) pair:
    unresolved when the spread exceeds the bound, unless every run of B
    reads better than every run of A."""
    lower = metric["better"] == "lower"
    a_samples = a.get("samples", [a["value"]])
    b_samples = b.get("samples", [b["value"]])
    if lower and max(b_samples) < min(a_samples) \
            or not lower and min(b_samples) > max(a_samples):
        return "ok"
    if max(spread(a_samples), spread(b_samples)) > metric["bound"]:
        return "unresolved"
    change = (b["value"] - a["value"]) / a["value"]
    return "worse" if (change if lower else -change) > metric["bound"] \
        else "ok"


def compare(bench, result_a, result_b):
    """One row per (workload, end-to-end metric) present in both."""
    rows = []
    for workload, entry_a in result_a["workloads"].items():
        entry_b = result_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric in bench["end_to_end"]:
            a = entry_a["metrics"][metric["name"]]
            b = entry_b["metrics"][metric["name"]]
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "a": a["value"], "b": b["value"],
                "spread": max(spread(a.get("samples", [])),
                              spread(b.get("samples", []))),
                "bound": metric["bound"], "mark": mark(metric, a, b)})
    return rows


def _load_result(path):
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    if result.get("schema") != RESULT_SCHEMA or result.get("trace"):
        raise ValueError(f"{path}: not an untraced {RESULT_SCHEMA} result")
    return result


def run_compare(bench, path_a, path_b):
    try:
        rows = compare(bench, _load_result(path_a), _load_result(path_b))
    except (OSError, ValueError, KeyError) as exc:
        print(f"perf: cannot compare: {exc}", file=sys.stderr)
        return 2
    print(f"{'workload':<14} {'metric':<16} {'A':>12} {'B':>12} "
          f"{'spread':>7} {'bound':>6}  mark")
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<16} "
              f"{_fmt(row['a']):>12} {_fmt(row['b']):>12} "
              f"{row['spread']:>7.2%} {row['bound']:>6.1%}  {row['mark']}")
    return 1 if any(row["mark"] == "worse" for row in rows) else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------
def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (see perf/README.md).")
    parser.add_argument("--workload", choices=sorted(worker.WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int,
                        help="workload seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float,
                        help="wall time to spend on untraced repeats "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="per-layer run under cProfile instead of the "
                             "end-to-end run")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="result JSON path (default: %(default)s)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two untraced result files")
    args = parser.parse_args(argv)

    bench = load_benchmark()
    if args.compare:
        return run_compare(bench, *args.compare)
    if not os.path.isfile(os.path.join(worker.SRC, "repro", "__init__.py")):
        print(f"perf: no simulator sources under {worker.SRC}",
              file=sys.stderr)
        return 2
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(worker.WORKLOADS)
    result = {"schema": RESULT_SCHEMA, "trace": args.trace,
              "seconds": seconds, "workloads": {}}
    for name in names:
        seed = worker.WORKLOADS[name]["seed"] if args.seed is None \
            else args.seed
        print(f"perf: running {name} seed {seed}"
              f"{' traced' if args.trace else ''}", file=sys.stderr)
        try:
            entry = run_workload(bench, name, seed, seconds, args.trace)
        except WorkerError as exc:
            print(f"perf: {exc}", file=sys.stderr)
            return 1
        result["workloads"][name] = entry
        print(report(name, entry), flush=True)

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    entries = result["workloads"].values()
    correct = all(entry["correct"] for entry in entries)
    summary = {"correct": correct,
               "attempted": sum(entry["attempted"] for entry in entries),
               "failed": sum(entry["failed"] for entry in entries)}
    summary["metrics"] = {
        metric if args.workload else f"{name}.{metric}":
            {"value": m["value"], "unit": m["unit"]}
        for name, entry in result["workloads"].items()
        for metric, m in entry["metrics"].items()}
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
