"""ReplicaCoordination: what its multicasts carry, failure detection,
degraded agreement, and PGM loss handling."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import Cloud
from repro.core import DEFAULT, RESILIENT
from repro.net import UdpStack
from repro.sim import Simulator
from repro.vmm.coordination import HEARTBEAT, ReplicaCoordination
from repro.workloads import EchoServer


def echo_cloud(config, seed=4):
    sim = Simulator(seed=seed)
    cloud = Cloud(sim, machines=3, config=config)
    vm = cloud.create_vm("echo", EchoServer)
    client = cloud.add_client("client:1")
    udp = UdpStack(client)
    replies = []
    udp.bind(9000, lambda d, s: replies.append((sim.now, d.tag)))
    return sim, cloud, vm, udp, replies


def run_and_drain(sim, cloud, vm, until):
    """Run to ``until``, then stop every engine and let the
    coordination traffic already sent arrive."""
    cloud.run(until=until)
    for vmm in vm.vmms:
        vmm.stop()
    sim.run(until=until + 0.1)


def window(vmm):
    """The payloads a replica's coordination sender keeps for repair."""
    return list(vmm.coordination.sender._window_data)


def spy_on_streams(vm, sender_id):
    """Log every (pgm seq, message) each sibling's stream delivers from
    ``sender_id``; returns {observer replica id: log}."""
    address = vm.vmms[sender_id].coordination.host.address
    logs = {}
    for vmm in vm.vmms:
        if vmm.replica_id == sender_id:
            continue
        stream = vmm.coordination.receiver._streams[address]
        log = logs[vmm.replica_id] = []

        def on_data(message, seq, deliver=stream.on_data, log=log):
            log.append((seq, message))
            deliver(message, seq)
        stream.on_data = on_data
    return logs


def swallow_next_report(coordination, after, purge):
    """Swallow the ODATA of ``coordination``'s first pacing report sent
    at or after ``after``; returns {"seq", "boundary"} once it is."""
    report = coordination.report_progress
    dropped = {}

    def swallowing(boundary):
        if not dropped and coordination.sim.now >= after:
            dropped.update(seq=coordination.sender.next_seq,
                           boundary=boundary)
            coordination.sender.drop_next(1, purge=purge)
        report(boundary)
    coordination.report_progress = swallowing
    return dropped


class TestMessages:
    def test_progress_report_is_the_bare_boundary(self):
        """A pacing report holds one int in the retransmit window: the
        replica's consecutive boundaries, the last of which every
        sibling records as its progress."""
        sim, cloud, vm, udp, replies = echo_cloud(DEFAULT)
        sim.call_after(0.1, udp.send, "vm:echo", 9000, 7, 64, "x")
        run_and_drain(sim, cloud, vm, 0.5)
        assert [tag for _, tag in replies] == ["x"]
        for vmm in vm.vmms:
            entries = window(vmm)
            reports = [m for m in entries if type(m) is int]
            assert reports, "no pacing report in the window"
            assert reports == list(range(reports[0],
                                         reports[0] + len(reports)))
            # everything else is a tuple naming its kind, never the sender
            assert all(type(m) is tuple and m[0] == "proposal"
                       and len(m) == 3
                       for m in entries if type(m) is not int)
            for sibling in vm.vmms:
                if sibling is not vmm:
                    progress = sibling.coordination.sibling_progress
                    assert progress[vmm.replica_id] == reports[-1]

    def test_every_heartbeat_is_the_shared_constant(self):
        sim, cloud, vm, udp, replies = echo_cloud(RESILIENT)
        run_and_drain(sim, cloud, vm, 0.5)
        for vmm in vm.vmms:
            beats = [m for m in window(vmm)
                     if type(m) is tuple and m[0] == "heartbeat"]
            assert beats
            assert all(m is HEARTBEAT for m in beats)

    def test_swallowed_report_is_repaired(self):
        """NAK repair resends the int itself, so the siblings receive
        the swallowed report under its own PGM seq."""
        sim, cloud, vm, udp, replies = echo_cloud(DEFAULT)
        coordination = vm.vmms[2].coordination
        dropped = swallow_next_report(coordination, 0.2, purge=False)
        logs = spy_on_streams(vm, 2)
        run_and_drain(sim, cloud, vm, 0.5)
        assert dropped and coordination.sender.rdata_sent >= 2
        for observer, log in logs.items():
            assert (dropped["seq"], dropped["boundary"]) in log
            assert [seq for seq, _ in log] == list(range(len(log)))
            assert vm.vmms[observer].coordination.stream_losses[2] == 0
        assert not list(sim.trace.iter_records("fault.pgm_loss"))

    def test_purged_report_reaches_on_loss(self):
        sim, cloud, vm, udp, replies = echo_cloud(DEFAULT)
        dropped = swallow_next_report(vm.vmms[2].coordination, 0.2,
                                      purge=True)
        logs = spy_on_streams(vm, 2)
        run_and_drain(sim, cloud, vm, 0.5)
        assert dropped
        for observer, log in logs.items():
            assert dropped["seq"] not in [seq for seq, _ in log]
            assert vm.vmms[observer].coordination.stream_losses[2] == 1
        losses = list(sim.trace.iter_records("fault.pgm_loss"))
        assert sorted((r.payload["observer"], r.payload["replica"],
                       r.payload["seq"]) for r in losses) == [
            (0, 2, dropped["seq"]), (1, 2, dropped["seq"])]


def pacing_view(live, progress, lead_boundaries):
    """A coordination endpoint reduced to what ``can_proceed`` reads."""
    coordination = ReplicaCoordination.__new__(ReplicaCoordination)
    coordination.live = live
    coordination.live_expected = 1 + sum(live.values())
    coordination.sibling_progress = progress
    coordination.lead_boundaries = lead_boundaries
    return coordination


class TestPacingRule:
    @given(st.lists(st.tuples(st.booleans(), st.integers(-1, 40)),
                    max_size=6),
           st.integers(0, 60), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_can_proceed_matches_the_reference_rule(
            self, siblings, boundary, lead_boundaries):
        """The ``live_expected // 2``-th largest live sibling progress
        may trail ``boundary`` by at most ``lead_boundaries``; dead
        siblings' progress is ignored, and a lone survivor never
        stalls."""
        live = {rid: ok for rid, (ok, _) in enumerate(siblings)}
        progress = {rid: value for rid, (_, value) in enumerate(siblings)}
        coordination = pacing_view(live, progress, lead_boundaries)
        need = coordination.live_expected // 2
        live_progress = [progress[rid] for rid in live if live[rid]]
        if need == 0 or not live_progress:
            expected = True
        else:
            reference = sorted(live_progress, reverse=True)[
                min(need, len(live_progress)) - 1]
            expected = boundary - reference <= lead_boundaries
        assert coordination.can_proceed(boundary) is expected


class TestFailureDetection:
    def test_silent_replica_suspected_after_timeout(self):
        sim, cloud, vm, udp, replies = echo_cloud(RESILIENT)
        sim.call_after(0.5, cloud.hosts[2].fail)
        cloud.run(until=1.0)
        for survivor in (vm.vmms[0], vm.vmms[1]):
            assert survivor.coordination.live[2] is False
        suspects = list(sim.trace.iter_records("fault.suspect"))
        assert {r.payload["observer"] for r in suspects} == {0, 1}
        # suspicion fires one timeout after the last heartbeat, not later
        assert all(r.time < 0.5 + 2 * RESILIENT.suspicion_timeout
                   for r in suspects)

    def test_no_detection_by_default(self):
        """DEFAULT keeps the paper's stall-on-failure semantics: no
        heartbeats, no suspicion, agreements stay stuck."""
        sim, cloud, vm, udp, replies = echo_cloud(DEFAULT)
        sim.call_after(0.3, cloud.hosts[2].fail)
        sim.call_after(0.6, udp.send, "vm:echo", 9000, 7, 64, "late")
        cloud.run(until=1.5)
        assert not list(sim.trace.iter_records("fault.suspect"))
        assert [tag for _, tag in replies] == []
        assert vm.vmms[0].coordination.live[2] is True

    def test_service_survives_replica_crash(self):
        """The degraded 2-of-3 quorum keeps answering: median agreement,
        pacing and epoch resync all proceed on the live set."""
        sim, cloud, vm, udp, replies = echo_cloud(RESILIENT)
        sim.call_after(0.1, udp.send, "vm:echo", 9000, 7, 64, "before")
        sim.call_after(0.5, cloud.hosts[2].fail)
        sim.call_after(1.0, udp.send, "vm:echo", 9000, 7, 64, "after")
        cloud.run(until=2.0)
        assert [tag for _, tag in replies] == ["before", "after"]
        assert sim.trace.count("fault.degraded_agreement") > 0
        # agreements do not accumulate: degraded commits clear them
        for survivor in (vm.vmms[0], vm.vmms[1]):
            assert len(survivor.coordination._agreements) == 0

    def test_degraded_decision_is_median_of_survivors(self):
        degraded = list_degraded = None
        sim, cloud, vm, udp, replies = echo_cloud(RESILIENT)
        sim.call_after(0.3, cloud.hosts[2].fail)
        sim.call_after(0.8, udp.send, "vm:echo", 9000, 7, 64, "x")
        cloud.run(until=1.5)
        list_degraded = list(
            sim.trace.iter_records("fault.degraded_agreement"))
        assert list_degraded
        assert all(r.payload["proposals"] == 2 for r in list_degraded)


class TestPgmLossPath:
    def test_unrepairable_proposal_loss_triggers_suspicion(self):
        """Satellite: a failed NAK repair of coordination traffic feeds
        the suspicion path instead of silently stranding agreements."""
        sim, cloud, vm, udp, replies = echo_cloud(RESILIENT)

        def sabotage():
            # replica 2's next coordination multicast vanishes for good
            vm.vmms[2].coordination.sender.drop_next(1, purge=True)

        sim.call_after(0.2, sabotage)
        sim.call_after(0.5, udp.send, "vm:echo", 9000, 7, 64, "ping")
        cloud.run(until=1.5)
        losses = list(sim.trace.iter_records("fault.pgm_loss"))
        assert losses and all(r.payload["replica"] == 2 for r in losses)
        assert sim.trace.count("fault.pgm_loss") >= 1
        suspects = list(sim.trace.iter_records("fault.suspect"))
        assert any(r.payload["reason"] == "pgm_loss" for r in suspects)
        # the victim VM still answers (degraded or post-rejoin)
        assert [tag for _, tag in replies] == ["ping"]

    def test_loss_counted_without_detection(self):
        """With detection off the loss is still counted and traced --
        observability without behaviour change."""
        sim, cloud, vm, udp, replies = echo_cloud(DEFAULT)

        def sabotage():
            vm.vmms[2].coordination.sender.drop_next(1, purge=True)
            udp.send("vm:echo", 9000, 7, 64, "ping")

        sim.call_after(0.2, sabotage)
        cloud.run(until=1.0)
        assert sim.trace.count("fault.pgm_loss") >= 1
        assert not list(sim.trace.iter_records("fault.suspect"))
        for survivor in (vm.vmms[0], vm.vmms[1]):
            assert survivor.coordination.stream_losses[2] >= 1


class TestRejoinView:
    def test_rejoin_restores_full_quorum_view(self):
        sim, cloud, vm, udp, replies = echo_cloud(RESILIENT)
        sim.call_after(0.3, cloud.hosts[2].fail)

        def resurrect():
            # membership-level rejoin (replay-based state recovery is
            # exercised in tests/integration/test_fault_recovery.py)
            cloud.hosts[2].restore()
            vm.vmms[2].failed = False
            vm.vmms[2].coordination.announce_rejoin()

        sim.call_after(0.8, resurrect)
        cloud.run(until=1.2)
        for survivor in (vm.vmms[0], vm.vmms[1]):
            assert survivor.coordination.live[2] is True
        rejoins = list(sim.trace.iter_records("recovery.rejoin"))
        assert {r.payload["observer"] for r in rejoins} == {0, 1}

    def test_live_count_follows_every_view_change(self):
        """``live_expected`` is kept as a count: through a suspicion and
        a rejoin it always equals this replica plus its live siblings."""
        sim, cloud, vm, udp, replies = echo_cloud(RESILIENT)
        views = []

        def snapshot():
            views.append([(c.live_expected, 1 + sum(c.live.values()))
                          for c in (vmm.coordination for vmm in vm.vmms)])

        def resurrect():
            cloud.hosts[2].restore()
            vm.vmms[2].failed = False
            vm.vmms[2].coordination.announce_rejoin()

        sim.call_after(0.3, cloud.hosts[2].fail)
        sim.call_after(0.7, snapshot)
        sim.call_after(0.8, resurrect)
        sim.call_after(1.1, snapshot)
        cloud.run(until=1.2)
        assert views == [[(2, 2), (2, 2), (3, 3)], [(3, 3)] * 3]
