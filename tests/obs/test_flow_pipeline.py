"""Flow tracking against the real mediated pipeline.

The headline guarantees: enabling span tracking never perturbs the
simulation (bit-for-bit identical egress behaviour under the same
seed), and every completed flow's five-stage decomposition sums
*exactly* -- not approximately -- to its end-to-end mediation delay.
"""

import hashlib
import json

import pytest

from repro.analysis.flows import (flow_detail_rows, flow_stage_rows,
                                  flow_summary, slowest_flow_rows)
from repro.analysis.observe import run_observed_workload
from repro.obs.flows import STAGES, critical_path, stage_metrics


def _egress_trace(sim):
    return [(r.time, r.category, r.payload)
            for r in sim.trace.select("egress")]


class TestDeterminism:
    def test_span_tracking_does_not_perturb_the_simulation(self):
        """Same seed, spans off vs on: identical egress traces."""
        baseline, _, _ = run_observed_workload(duration=0.6, seed=11,
                                               flows=False)
        traced, _, _ = run_observed_workload(duration=0.6, seed=11,
                                             flows=True)
        base_records = _egress_trace(baseline)
        assert base_records == _egress_trace(traced)
        assert len(base_records) > 0
        assert len(traced.flows.flows) > 0

    def test_two_traced_runs_are_identical(self, traced_sim):
        again = run_observed_workload(duration=1.0, seed=5,
                                      flows=True)[0]
        assert _egress_trace(traced_sim) == _egress_trace(again)
        a = sorted(f.flow_id for f in traced_sim.flows.completed_flows())
        b = sorted(f.flow_id for f in again.flows.completed_flows())
        assert a == b and a


class TestStageDecomposition:
    def test_every_completed_flow_sums_exactly(self, traced_sim):
        flows = traced_sim.flows.completed_flows()
        assert len(flows) >= 10
        for flow in flows:
            stages = flow.stage_times()
            assert set(stages) == set(STAGES)
            assert all(d >= 0.0 for d in stages.values())
            # telescoping differences: exact equality, no tolerance
            assert sum(stages.values()) == flow.end_to_end

    def test_critical_path_segments_cover_admission_to_release(
            self, traced_sim):
        for flow in traced_sim.flows.completed_flows():
            segments = critical_path(flow)
            assert segments[0][1] == flow.admitted
            assert segments[-1][2] == flow.released
            for (_, _, end), (_, start, _) in zip(segments, segments[1:]):
                assert end == start

    def test_stage_metrics_feed_the_metric_set(self, traced_sim):
        snapshot = stage_metrics(traced_sim.flows).snapshot()
        observations = snapshot["observations"]
        completed = len(traced_sim.flows.completed_flows())
        for stage in STAGES:
            stats = observations[f"flow.stage.{stage}"]
            assert stats["count"] == completed
            assert {"p50", "p95", "p99"} <= set(stats)
        assert observations["flow.total"]["count"] == completed
        assert snapshot["counters"]["flows.completed"] == completed

    def test_offset_wait_dominates_mediated_delay(self, traced_sim):
        """StopWatch's cost story: the Δn offset wait is the dominant
        stage of mediated network delivery (Sec. VII-A)."""
        rows = {row[0]: row for row in flow_stage_rows(traced_sim.flows)}
        dominant = max(STAGES, key=lambda s: rows[s][2])
        assert dominant == "offset-wait"
        assert rows["offset-wait"][2] > 0.5 * rows["total"][2]


def span_fingerprint(spans) -> str:
    """SHA-256 over every span's flow, name, replica, exact times and
    annotations, independent of span order and ids."""
    rows = sorted((s.flow_id, s.name, -1 if s.replica is None else s.replica,
                   repr(s.start), repr(s.end),
                   json.dumps(s.annotations, sort_keys=True, default=repr))
                  for s in spans)
    return hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


class TestRecordedSpans:
    def test_flow_records_rebuild_the_recorded_spans(self, traced_sim):
        """The seed-5, 1 s run's flows and spans, pinned to the values
        recorded when spans were still stored as the hooks fired."""
        tracker = traced_sim.flows
        spans = tracker.spans()
        assert len(tracker.flows) == 72
        assert len(tracker.completed_flows()) == 71
        assert len(spans) == 1005
        assert sum(1 for span in spans if not span.closed) == 6
        assert span_fingerprint(spans) == (
            "e3009996d5cd1d11005d9fe9a3dc2e7b"
            "ba3fe23b9cc97150f011d876a328569b")


class TestAnalysisViews:
    def test_summary_counts_are_consistent(self, traced_sim):
        summary = flow_summary(traced_sim.flows)
        assert summary["flows"] == (summary["complete"]
                                    + summary["incomplete"])
        assert summary["complete"] >= 10
        assert summary["dropped_flows"] == 0
        assert summary["spans"] > summary["flows"]
        assert sum(n for _, n in summary["span_names"]) == summary["spans"]

    def test_slowest_flows_are_sorted_and_decomposed(self, traced_sim):
        rows = slowest_flow_rows(traced_sim.flows, top_k=5)
        assert 0 < len(rows) <= 5
        e2e = [row[1] for row in rows]
        assert e2e == sorted(e2e, reverse=True)
        for row in rows:
            assert row[2] in STAGES                      # dominant stage
            # the exact invariant lives in seconds; the ms view rounds
            assert sum(row[3:]) == pytest.approx(row[1])

    def test_flow_detail_timeline(self, traced_sim):
        flow_id = traced_sim.flows.completed_flows()[0].flow_id
        flow, rows = flow_detail_rows(traced_sim.flows, flow_id)
        assert flow is not None
        names = [row[0] for row in rows]
        assert names[0] == "flow"
        for stage in STAGES:
            assert stage in names
        starts = [row[2] for row in rows]
        assert starts == sorted(starts)
        assert flow_detail_rows(traced_sim.flows, "no/999") == (None, [])
