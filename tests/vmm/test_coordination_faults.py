"""Failure detection, degraded agreement, and PGM loss handling in
ReplicaCoordination (the heart of the fault-tolerance tentpole)."""

from repro.cloud import Cloud
from repro.core import DEFAULT, RESILIENT
from repro.net import UdpStack
from repro.sim import Simulator
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
        assert sim.metrics.counters["fault.degraded_agreements"] > 0
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
        assert sim.metrics.counters["fault.pgm_losses"] >= 1
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
        assert sim.metrics.counters.get("fault.pgm_losses", 0) >= 1
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
