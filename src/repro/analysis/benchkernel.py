"""Kernel throughput benchmark: the consolidated fleet cell behind the
``kernel.scale<N>`` benchmark.

``run_kernel_bench`` runs the N-tenant scale cell (the hot-loop
workload: ~100k events per simulated second of VM quanta, replica
multicast, pacing and egress mediation) several times in one process
and reports

- **simulated seconds per CPU second** -- the primary throughput
  metric, measured with ``time.process_time`` so a loaded benchmark
  host does not turn scheduler noise into a regression; unlike an
  event rate it does not move when a change fires fewer events for the
  same simulation;
- events per CPU second and per wall second (the earlier primary and
  historical metrics, kept for continuity with older trajectory
  entries);
- the event heap's high-water mark (most entries queued at once) and
  mediation p95, and
- the egress signature of every repeat: all repeats must be
  byte-identical, which is simultaneously the determinism gate and the
  regression fixture for the old process-global packet-uid counter
  (warm repeats in one process used to diverge).

With ``profile=True`` one extra profiled repeat runs after the timed
ones (so attribution never contaminates the headline throughput); its
egress signature must match the unprofiled runs byte-for-byte -- the
profiler-neutrality invariant -- and its
:class:`~repro.prof.profiler.SubsystemProfiler` summary rides in the
report's ``"profile"`` key.

:func:`kernel_metrics` picks the report keys a trajectory entry
records; :mod:`repro.bench.registry` does the rest.
"""

import time
from typing import Dict, List

from repro.core.errors import check_count, check_number

#: the result keys that become trajectory-entry metrics
_METRIC_KEYS = ("sim_seconds_per_cpu_second", "events_per_cpu_second",
                "events_per_second", "events_fired", "cpu_seconds",
                "heap_high_water", "mediation_p95")


class BenchError(RuntimeError):
    """Determinism failure in the kernel benchmark."""


def run_kernel_bench(tenants: int = 32,
                     duration: float = 2.0,
                     seed: int = 1,
                     request_rate: float = 30.0,
                     repeats: int = 2,
                     profile: bool = False) -> Dict[str, object]:
    """Run the kernel benchmark cell ``repeats`` times; return the report.

    Repeats run in one warm process on purpose: identical egress
    signatures across them prove per-run determinism is independent of
    process history.  Throughput is taken from the best repeat (the
    least-interfered-with one); the heap high-water mark is identical
    across repeats by determinism.
    """
    from repro.analysis.scale import build_scale_spec, run_scale_cell

    check_count("tenants", tenants)
    check_number("request_rate", request_rate)
    check_count("repeats", repeats)
    runs: List[Dict[str, object]] = []
    for _ in range(repeats):
        spec = build_scale_spec(tenants, request_rate=request_rate)
        cpu_start = time.process_time()
        row = run_scale_cell(spec, duration=duration, seed=seed)
        cpu = time.process_time() - cpu_start
        runs.append({
            "events_fired": row["events_fired"],
            "cpu_seconds": round(cpu, 4),
            "wall_seconds": round(row["wall_seconds"], 4),
            "sim_seconds_per_cpu_second": round(duration / cpu, 4)
            if cpu > 0 else 0.0,
            "events_per_cpu_second": round(row["events_fired"] / cpu, 1)
            if cpu > 0 else 0.0,
            "events_per_second": round(row["events_per_second"], 1),
            "heap_high_water": row["heap_high_water"],
            "mediation_p95": row["mediation_p95"],
            "egress_signature": row["egress_signature"],
        })

    signatures = {run["egress_signature"] for run in runs}
    if len(signatures) != 1:
        raise BenchError(
            f"egress signatures diverged across {repeats} same-seed "
            f"repeats in one process: {sorted(signatures)}")

    best = max(runs, key=lambda run: run["sim_seconds_per_cpu_second"])
    report: Dict[str, object] = {
        "benchmark": f"kernel.scale{tenants}",
        # repeats is a measurement parameter, not part of the workload
        "config": {"tenants": tenants, "duration": duration, "seed": seed,
                   "request_rate": request_rate},
        "repeats": repeats,
        "sim_seconds_per_cpu_second": best["sim_seconds_per_cpu_second"],
        "events_per_cpu_second": best["events_per_cpu_second"],
        "events_per_second": best["events_per_second"],
        "events_fired": best["events_fired"],
        "cpu_seconds": best["cpu_seconds"],
        "heap_high_water": best["heap_high_water"],
        "mediation_p95": best["mediation_p95"],
        "egress_signature": best["egress_signature"],
        "deterministic": True,
        "runs": runs,
    }
    if profile:
        spec = build_scale_spec(tenants, request_rate=request_rate)
        profiled = run_scale_cell(spec, duration=duration, seed=seed,
                                  profile=True)
        if profiled["egress_signature"] != best["egress_signature"]:
            raise BenchError(
                f"profiling perturbed the egress signature: "
                f"{profiled['egress_signature']} != "
                f"{best['egress_signature']} -- the profiler must be "
                f"measurement-only")
        report["profile"] = profiled["profile"]
    return report


def kernel_metrics(result: Dict[str, object]) -> Dict[str, object]:
    """The trajectory-entry metrics of a bench report."""
    return {key: result[key] for key in _METRIC_KEYS}
