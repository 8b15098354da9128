"""Unit tests for span values and the spans a flow record builds."""

import pytest

from repro.analysis.flows import flow_summary
from repro.obs.flows import FlowTracker, Span


class TestSpanLifecycle:
    def test_open_then_closed(self):
        span = Span(0, "replicate", 1.0, flow_id="echo/3", vm="echo",
                    replica=0)
        assert not span.closed
        assert span.duration is None
        span = Span(0, "replicate", 1.0, flow_id="echo/3", vm="echo",
                    replica=0, annotations={"hops": 2}, end=1.5)
        assert span.closed
        assert span.duration == pytest.approx(0.5)
        assert span.annotations["hops"] == 2

    def test_parent_link_and_flow_lookup(self):
        tracker = FlowTracker(enabled=True)
        tracker.flow_admitted(0.0, "echo", 0, replicas=3)
        tracker.flow_admitted(0.0, "echo", 1, replicas=3)
        root, *stages = tracker.flows[("echo", 0)].spans()
        assert root.name == "flow" and root.parent_id is None
        assert all(span.parent_id == root.span_id for span in stages)
        assert {span.flow_id for span in stages} == {"echo/0"}
        # ids are unique across flows, numbered in admission order
        ids = [span.span_id for span in tracker.spans()]
        assert ids == list(range(8))
        other = tracker.spans()[4]
        assert other.name == "flow" and other.flow_id == "echo/1"


class TestQueries:
    def test_counts_and_iteration(self):
        tracker = FlowTracker(enabled=True)
        tracker.flow_admitted(0.0, "echo", 0, replicas=3)
        tracker.packet_observed(0.001, "echo", 0, 1, proposal=0.002)
        summary = flow_summary(tracker)
        assert summary["span_names"] == [("agree", 1), ("flow", 1),
                                         ("replicate", 3)]
        assert summary["spans"] == 5
        assert summary["open_spans"] == 4       # replica 1's replicate closed
        assert [s.name for s in tracker.spans() if s.closed] == ["replicate"]

    def test_repr_shows_state(self):
        span = Span(7, "agree", 1.0, flow_id="vm/7", replica=2)
        assert "open" in repr(span)
        span.end = 2.0
        assert "dur=" in repr(span)


class TestBoundedMemory:
    def test_rejects_nonpositive_cap(self):
        # span memory is bounded by the flow cap alone
        with pytest.raises(ValueError):
            FlowTracker(max_flows=0)
