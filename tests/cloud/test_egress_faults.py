"""Egress under replica failure: degraded quorum and the stale sweep
that keeps ``pending_releases`` bounded when copies never arrive."""

from repro.cloud.egress import EgressNode
from repro.net import Network, Packet, ReplicaEnvelope
from repro.sim import Simulator


def make_egress(stale_timeout=0.5):
    sim = Simulator(seed=5)
    net = Network(sim)
    egress = EgressNode(sim, net, stale_timeout=stale_timeout)
    egress.register_vm("echo", replicas=3)
    out = []
    net.attach("client:1", out.append)
    return sim, egress, out


def copy(seq, replica_id):
    inner = Packet(src="vm:echo", dst="client:1", protocol="udp",
                   payload=None, size=64)
    envelope = ReplicaEnvelope(vm="echo", direction="out", seq=seq,
                               inner=inner, replica_id=replica_id)
    return Packet(src=f"host:{replica_id}", dst="egress",
                  protocol="replica-out", payload=envelope,
                  size=envelope.wire_size())


class TestDegradedQuorum:
    def test_one_replica_down_still_releases_on_second_copy(self):
        sim, egress, out = make_egress()
        egress.mark_replica_down("echo", 2)
        assert egress.live_count("echo") == 2
        egress.node._receive(copy(0, 0))
        assert out == []  # first copy alone never releases
        egress.node._receive(copy(0, 1))
        sim.run(until=0.1)
        assert len(out) == 1
        # both live copies arrived: the entry is complete, not leaked
        assert egress.pending_releases == 0

    def test_two_replicas_down_releases_on_sole_copy(self):
        sim, egress, out = make_egress()
        egress.mark_replica_down("echo", 1)
        egress.mark_replica_down("echo", 2)
        egress.node._receive(copy(0, 0))
        sim.run(until=0.1)
        assert len(out) == 1
        assert egress.pending_releases == 0

    def test_mark_down_retargets_inflight_entries(self):
        """A copy waiting for its quorum is re-evaluated the moment the
        view shrinks -- no new packet needed to unstick it."""
        sim, egress, out = make_egress()
        egress.node._receive(copy(0, 0))
        egress.node._receive(copy(0, 1))
        sim.run(until=0.01)
        assert len(out) == 1          # released on 2nd copy
        assert egress.pending_releases == 1  # waiting for replica 2
        egress.mark_replica_down("echo", 2)
        assert egress.pending_releases == 0
        (record,) = sim.trace.iter_records("egress.degraded")
        assert record.payload["live"] == 2

    def test_mark_up_restores_expectation(self):
        sim, egress, out = make_egress()
        egress.mark_replica_down("echo", 2)
        egress.mark_replica_up("echo", 2)
        assert egress.live_count("echo") == 3
        egress.node._receive(copy(0, 0))
        egress.node._receive(copy(0, 1))
        sim.run(until=0.1)
        assert len(out) == 1
        assert egress.pending_releases == 1  # replica 2 owes a copy again

    def test_duplicate_mark_down_is_idempotent(self):
        sim, egress, out = make_egress()
        egress.mark_replica_down("echo", 2)
        egress.mark_replica_down("echo", 2)
        assert egress.live_count("echo") == 2
        assert len(list(sim.trace.iter_records("egress.degraded"))) == 1


class TestStaleSweep:
    def test_crashed_replica_does_not_grow_pending_without_bound(self):
        """Satellite regression: with one replica silently dead and no
        failure detection, released entries used to sit in
        ``_releases`` forever waiting for the third copy."""
        sim, egress, out = make_egress(stale_timeout=0.5)
        for seq in range(40):
            egress.node._receive(copy(seq, 0))
            egress.node._receive(copy(seq, 1))  # replica 2 never sends
        sim.run(until=0.1)
        assert len(out) == 40          # service unaffected
        assert egress.pending_releases == 40
        sim.run(until=2.0)             # several sweep periods later
        assert egress.pending_releases == 0
        assert egress.stale_swept == 40
        assert sim.trace.count("egress.stale") == 40

    def test_sweep_traces_release_state(self):
        sim, egress, out = make_egress(stale_timeout=0.2)
        egress.node._receive(copy(0, 0))  # one copy: never released
        sim.run(until=1.0)
        (record,) = sim.trace.iter_records("egress.stale")
        assert record.payload["released"] is False
        assert record.payload["arrivals"] == 1
        assert out == []
        assert egress.pending_releases == 0

    def test_fresh_entries_survive_a_sweep(self):
        sim, egress, out = make_egress(stale_timeout=0.5)
        egress.node._receive(copy(0, 0))
        sim.call_after(0.45, lambda: egress.node._receive(copy(1, 0)))
        sim.run(until=0.6)             # sweep at ~0.5 retires only seq 0
        assert egress.stale_swept == 1
        assert egress.pending_releases == 1
        sim.run(until=2.0)
        assert egress.pending_releases == 0
        assert egress.stale_swept == 2
