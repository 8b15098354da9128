"""FlowTracker semantics, driven synthetically (no simulator).

Each test hand-feeds the pipeline hook sequence a real run would
produce, so edge cases (disabled tracker, missed datagrams, degraded
releases, eviction) are exercised without depending on workload timing.
"""

import pytest

from repro.obs.flows import STAGES, FlowTracker, critical_path


def _drive_flow(tracker, vm="echo", seq=0, trigger=1, out_seq=0):
    """One clean 3-replica flow: admitted at t=0, released at t=0.012."""
    tracker.flow_admitted(0.0, vm, seq, replicas=3)
    for replica in range(3):
        tracker.packet_observed(0.001 + replica * 1e-4, vm, seq, replica,
                                proposal=0.002)
    for replica in range(3):
        tracker.decision_committed(0.002, vm, seq, replica, decision=0.01)
    for replica in range(3):
        tracker.net_injected(0.010, vm, seq, replica, virt=0.01)
    for replica in range(3):
        tracker.output_emitted(0.0105 + replica * 1e-4, vm, out_seq,
                               replica, flow_seq=seq)
    tracker.output_released(0.012, vm, out_seq, trigger)
    return tracker.flows.get((vm, seq))


class TestDisabled:
    def test_hooks_are_noops_until_enabled(self):
        tracker = FlowTracker(enabled=False)
        _drive_flow(tracker)
        assert len(tracker.flows) == 0
        assert tracker.spans() == []
        tracker.repair_requested(0.0, "ingress.echo", 0)
        tracker.flow_annotate("echo", 0, naks=1)
        assert tracker.nak_repairs == 0

    def test_enable_recaps_stores(self):
        tracker = FlowTracker()
        tracker.enable(max_flows=4)
        assert tracker.enabled
        assert tracker.max_flows == 4
        with pytest.raises(ValueError):
            tracker.enable(max_flows=0)


class TestCompleteFlow:
    def test_stage_times_telescope_to_end_to_end(self):
        tracker = FlowTracker(enabled=True)
        flow = _drive_flow(tracker)
        assert flow.complete
        stages = flow.stage_times()
        assert set(stages) == set(STAGES)
        assert sum(stages.values()) == flow.end_to_end  # exact, no approx
        assert flow.end_to_end == 0.012

    def test_critical_path_segments_abut(self):
        tracker = FlowTracker(enabled=True)
        flow = _drive_flow(tracker, trigger=2)
        segments = critical_path(flow)
        assert [name for name, _, _ in segments] == list(STAGES)
        assert segments[0][1] == flow.admitted
        assert segments[-1][2] == flow.released
        for (_, _, end), (_, start, _) in zip(segments, segments[1:]):
            assert end == start

    def test_critical_spans_marked_on_trigger_replica(self):
        tracker = FlowTracker(enabled=True)
        flow = _drive_flow(tracker, trigger=1)
        root, *stages = flow.spans()
        critical = [span for span in stages
                    if span.annotations.get("critical")]
        assert sorted(span.name for span in critical) == sorted(STAGES)
        assert all(span.replica == 1 for span in critical)
        assert root.name == "flow" and root.closed
        assert root.annotations["critical_replica"] == 1
        # every stage span is parented on the flow root
        assert all(span.parent_id == root.span_id for span in critical)

    def test_all_spans_closed_after_completion(self):
        tracker = FlowTracker(enabled=True)
        _drive_flow(tracker)
        assert all(span.closed for span in tracker.spans())
        assert tracker.completed_count == 1
        assert tracker.completed_flows() != []

    def test_later_outputs_only_counted(self):
        tracker = FlowTracker(enabled=True)
        flow = _drive_flow(tracker)
        # a second output of the same flow, emitted after completion:
        # counted, but never indexed (the flow's timing is sealed)
        for replica in range(3):
            tracker.output_emitted(0.020, "echo", 1, replica, flow_seq=0)
        tracker.output_released(0.021, "echo", 1, 0)
        assert flow.outputs == 6
        assert flow.releases == 1
        assert flow.released == 0.012          # first release wins
        assert flow.release_replica == 1


class TestDegradedPaths:
    def test_decision_before_observation_skips_agree_span(self):
        """A replica that missed the datagram gets the decision by
        unicast; there is no agree span to close but offset-wait and the
        rest of the path still form."""
        tracker = FlowTracker(enabled=True)
        tracker.flow_admitted(0.0, "echo", 0, replicas=3)
        tracker.decision_committed(0.002, "echo", 0, 2, decision=0.01)
        tracker.net_injected(0.010, "echo", 0, 2, virt=0.01)
        names = {(s.replica, s.name) for s in tracker.spans()}
        assert (2, "agree") not in names
        assert (2, "offset-wait") in names
        assert (2, "service") in names

    def test_skipped_injection_opens_no_service_span(self):
        tracker = FlowTracker(enabled=True)
        tracker.flow_admitted(0.0, "echo", 0, replicas=3)
        tracker.decision_committed(0.002, "echo", 0, 0, decision=0.01)
        tracker.net_injected(0.010, "echo", 0, 0, virt=0.01, skipped=True)
        flow = tracker.flows[("echo", 0)]
        assert flow.skipped[0] is True
        assert (0, "service") not in {(s.replica, s.name)
                                      for s in flow.spans()}

    def test_observation_after_adoption_leaves_agree_open(self):
        """A replica that adopted the decision before the repaired
        datagram reached it has an open agree span that carries only its
        proposal; the flow still keeps what it proposed and adopted."""
        tracker = FlowTracker(enabled=True)
        tracker.flow_admitted(0.0, "echo", 0, replicas=3)
        tracker.decision_committed(0.002, "echo", 0, 2, decision=0.01)
        tracker.packet_observed(0.003, "echo", 0, 2, proposal=0.004)
        tracker.net_injected(0.010, "echo", 0, 2, virt=0.0101)
        flow = tracker.flows[("echo", 0)]
        assert (flow.proposals[2], flow.decisions[2], flow.virts[2]) == \
            (0.004, 0.01, 0.0101)
        spans = {(s.replica, s.name): s for s in flow.spans()}
        agree = spans[(2, "agree")]
        assert agree.start == 0.003 and not agree.closed
        assert agree.annotations == {"proposal": 0.004}
        wait = spans[(2, "offset-wait")]
        assert (wait.start, wait.end) == (0.002, 0.010)
        assert wait.annotations == {"decision": 0.01, "virt": 0.0101,
                                    "skipped": False}

    def test_retarget_release_has_no_critical_path(self):
        """A degraded retarget release passes ``replica=None``: the flow
        is released (latency still measured) but has no single critical
        replica, so it is not 'complete'."""
        tracker = FlowTracker(enabled=True)
        tracker.flow_admitted(0.0, "echo", 0, replicas=3)
        tracker.packet_observed(0.001, "echo", 0, 0)
        tracker.decision_committed(0.002, "echo", 0, 0, decision=0.01)
        tracker.net_injected(0.010, "echo", 0, 0, virt=0.01)
        tracker.output_emitted(0.011, "echo", 0, 0, flow_seq=0)
        tracker.output_released(0.012, "echo", 0, None)
        flow = tracker.flows[("echo", 0)]
        assert flow.released == 0.012
        assert not flow.complete
        assert flow.stage_times() is None
        with pytest.raises(ValueError):
            critical_path(flow)

    def test_unattributed_outputs_are_ignored(self):
        tracker = FlowTracker(enabled=True)
        tracker.flow_admitted(0.0, "echo", 0, replicas=3)
        tracker.output_emitted(0.01, "echo", 7, 0, flow_seq=None)
        tracker.output_released(0.01, "echo", 7, 0)
        flow = tracker.flows[("echo", 0)]
        assert flow.outputs == 0 and flow.released is None


class TestAttribution:
    def test_nak_repairs_annotate_the_delayed_flow(self):
        tracker = FlowTracker(enabled=True)
        tracker.flow_admitted(0.0, "echo", 4, replicas=3)
        tracker.repair_requested(0.001, "ingress.echo", 4)
        tracker.repair_requested(0.002, "ingress.echo", 4)
        tracker.repair_requested(0.003, "coord.echo", 4)   # not a flow seq
        tracker.repair_requested(0.004, "ingress.echo", 99)  # unknown flow
        assert tracker.nak_repairs == 4
        assert tracker.flows[("echo", 4)].annotations["naks"] == 2

    def test_flow_annotate_reaches_the_root_span(self):
        tracker = FlowTracker(enabled=True)
        tracker.flow_admitted(0.0, "echo", 0, replicas=3)
        tracker.flow_annotate("echo", 0, spread=0.004, degraded=False)
        flow = tracker.flows[("echo", 0)]
        root = flow.spans()[0]
        assert flow.annotations["spread"] == 0.004
        assert root.annotations["degraded"] is False

    def test_get_flow_parses_display_ids(self):
        tracker = FlowTracker(enabled=True)
        tracker.flow_admitted(0.0, "vm:echo", 3, replicas=3)
        assert tracker.get_flow("vm:echo/3") is not None
        assert tracker.get_flow("vm:echo/4") is None
        assert tracker.get_flow("nonsense") is None
        assert tracker.get_flow("vm:echo/notanumber") is None


class TestEviction:
    def test_oldest_flow_and_its_spans_are_evicted(self):
        tracker = FlowTracker(enabled=True, max_flows=2)
        for seq in range(4):
            tracker.flow_admitted(float(seq), "echo", seq, replicas=3)
        assert len(tracker.flows) == 2
        assert sorted(seq for _, seq in tracker.flows) == [2, 3]
        assert tracker.dropped_flows == 2
        # the evicted flows' spans (1 root + 3 replicate each) are gone
        assert len(tracker.spans()) == 2 * 4

    def test_eviction_clears_the_output_index(self):
        tracker = FlowTracker(enabled=True, max_flows=1)
        tracker.flow_admitted(0.0, "echo", 0, replicas=3)
        tracker.output_emitted(0.01, "echo", 0, 0, flow_seq=0)
        tracker.flow_admitted(1.0, "echo", 1, replicas=3)   # evicts seq 0
        # a release for the evicted flow's output must be a no-op
        tracker.output_released(1.5, "echo", 0, 0)
        assert tracker.released_count == 0
