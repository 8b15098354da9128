"""Flow-level analysis behind ``repro observe``'s span and flow tables.

Reads the representative echo+compute cloud run with causal flow
tracking on (``run_observed_workload(flows=True)``, :mod:`repro.obs`)
and reports where each packet's mediation delay went: per-stage
latency percentiles, the slowest flows with their dominant stage, and
per-flow span timelines.  Also registers the
``flow_stage_latency`` campaign runner so stage-level percentiles can be
rolled up across seeds by ``repro campaign aggregate``.
"""

from typing import List, Optional, Tuple

from repro.analysis.observe import run_observed_workload
from repro.obs.flows import STAGES, FlowTracker, stage_metrics


def flow_stage_rows(tracker: FlowTracker) -> List[tuple]:
    """(stage, count, mean ms, p50 ms, p95 ms, p99 ms) per stage plus a
    ``total`` row -- the critical-path decomposition in aggregate."""
    snapshot = stage_metrics(tracker).snapshot()["observations"]
    rows = []
    for stage in STAGES + ("total",):
        name = "flow.total" if stage == "total" else f"flow.stage.{stage}"
        stats = snapshot.get(name)
        if stats is None:
            continue
        rows.append((stage, stats["count"], stats["mean"] * 1000,
                     stats["p50"] * 1000, stats["p95"] * 1000,
                     stats["p99"] * 1000))
    return rows


def slowest_flow_rows(tracker: FlowTracker,
                      top_k: int = 10) -> List[tuple]:
    """The ``top_k`` slowest completed flows: (flow id, end-to-end ms,
    dominant stage, then one ms column per stage).  Ties broken by
    admission order so output is deterministic."""
    flows = sorted(tracker.completed_flows(),
                   key=lambda f: (-f.end_to_end, f.vm, f.seq))
    rows = []
    for flow in flows[:top_k]:
        stages = flow.stage_times()
        dominant = max(STAGES, key=lambda s: stages[s])
        rows.append((flow.flow_id, flow.end_to_end * 1000, dominant)
                    + tuple(stages[s] * 1000 for s in STAGES))
    return rows


def flow_detail_rows(tracker: FlowTracker,
                     flow_id: str) -> Tuple[Optional[object], List[tuple]]:
    """A flow's full span timeline: (flow, rows) where each row is
    (span name, replica, start ms, end ms, duration ms, annotations).
    Returns ``(None, [])`` for an unknown flow id."""
    flow = tracker.get_flow(flow_id)
    if flow is None:
        return None, []
    spans = sorted(tracker.store.by_flow(flow.flow_id),
                   key=lambda s: (s.start,
                                  -1 if s.replica is None else s.replica,
                                  s.span_id))
    rows = []
    for span in spans:
        replica = "-" if span.replica is None else span.replica
        end = span.end * 1000 if span.closed else float("nan")
        dur = span.duration * 1000 if span.closed else float("nan")
        notes = " ".join(f"{k}={v}" for k, v in
                         sorted(span.annotations.items()))
        rows.append((span.name, replica, span.start * 1000, end, dur,
                     notes))
    return flow, rows


def flow_summary(tracker: FlowTracker) -> dict:
    """Tracker-level counts for the CLI headline."""
    return {
        "flows": len(tracker.flows),
        "complete": tracker.completed_count,
        "incomplete": tracker.incomplete_count(),
        "dropped_flows": tracker.dropped_flows,
        "spans": len(tracker.store),
        "open_spans": tracker.store.open_count(),
        "dropped_spans": tracker.store.dropped,
        "nak_repairs": tracker.nak_repairs,
    }


# ---------------------------------------------------------------------------
# campaign runner
# ---------------------------------------------------------------------------
def flow_stage_latency(duration: float = 2.0, seed: int = 5) -> dict:
    """Campaign runner: per-stage latency decomposition of one seeded
    run.  The ``rows`` are the stage table; ``metrics`` is the full
    :meth:`~repro.sim.monitor.MetricSet.snapshot` that the campaign
    executor persists into the manifest for cross-seed rollups."""
    sim = run_observed_workload(duration=duration, seed=seed, flows=True)[0]
    rows = [list(row) for row in flow_stage_rows(sim.flows)]
    return {"rows": rows,
            "metrics": stage_metrics(sim.flows).snapshot()}
