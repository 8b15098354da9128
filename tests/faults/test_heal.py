"""EvacuationController: permanent host loss heals onto spare capacity."""

from repro.analysis.chaos import chaos_signature
from repro.cloud import Cloud
from repro.core import RESILIENT
from repro.faults import (
    EvacuationController,
    FaultInjector,
    FaultSchedule,
)
from repro.placement.scheduler import PlacementScheduler
from repro.sim import Simulator, Trace
from repro.workloads import EchoServer, PingClient

#: tightened detection so suspicion-path heals land inside short runs
CONFIG = RESILIENT.with_overrides(egress_stale_timeout=0.8,
                                  stale_agreement_timeout=0.5)

HEAL_TRACE = ("fault", "recovery", "heal", "egress")


def build(entries, seed=11, machines=5, load_until=3.3, trace=None):
    """5-machine cloud (hosts 3 and 4 spare), echo VM, paced pinger."""
    sim = Simulator(seed=seed, trace=trace)
    placer = PlacementScheduler(machines, 2)
    cloud = Cloud(sim, machines=machines, config=CONFIG, placer=placer)
    vm = cloud.create_vm("echo", EchoServer)
    client = cloud.add_client("client:1")
    pinger = PingClient(client, "vm:echo", local_port=9000,
                        spacing_fn=lambda rng: 0.040)
    sim.call_after(0.05, pinger.start)
    sim.call_after(load_until, pinger.stop)
    healer = EvacuationController(cloud)
    injector = FaultInjector(cloud, FaultSchedule.from_entries(entries))
    injector.arm()
    return sim, cloud, vm, placer, pinger, healer


class TestEvacuation:
    def test_condemned_host_replica_moves_to_spare(self):
        sim, cloud, vm, placer, pinger, healer = build(
            [(0.9, "crash_host", "host:2")])
        cloud.run(until=4.0)
        # the replica left the condemned machine for a spare one
        assert vm.hosts[2] not in (2,)
        assert vm.hosts[2] in (3, 4)
        assert cloud.hosts[2].condemned and not cloud.hosts[2].alive
        assert [vmm.failed for vmm in vm.vmms] == [False] * 3
        assert len(healer.evacuations) == 1
        record = healer.evacuations[0]
        assert record["old_host"] == 2
        assert record["new_host"] == vm.hosts[2]

    def test_evacuation_preserves_placement_invariants(self):
        _, cloud, vm, placer, _, _ = build(
            [(0.9, "crash_host", "host:2")])
        cloud.run(until=4.0)
        assert placer.verify()
        assert placer.assignments["echo"] == tuple(sorted(vm.hosts))
        wired = tuple(sorted(vmm.host.host_id for vmm in vm.vmms))
        assert wired == placer.assignments["echo"]

    def test_service_restored_after_evacuation(self):
        sim, cloud, vm, _, pinger, _ = build(
            [(0.9, "crash_host", "host:2")])
        cloud.run(until=4.0)
        # every replica processed the identical inbound sequence
        outputs = {vmm.stats["outputs"] for vmm in vm.vmms}
        assert len(outputs) == 1
        # the client kept being served, including after the heal
        heal_time = max(r.time for r in
                        sim.trace.iter_records("heal.complete"))
        assert any(t > heal_time + 0.3 for t in pinger.reply_times)
        assert cloud.pending_releases == 0

    def test_suspicion_path_evacuates_orphaned_crash(self):
        # crash_replica with no restart takes the machine down (not
        # condemned): only the failure detector and the healer's
        # suspicion path can bring the replica back, and with the host
        # still dark it must move to a spare
        sim, cloud, vm, _, _, healer = build(
            [(0.9, "crash_replica", "echo:1")])
        cloud.run(until=4.5)
        assert not vm.vmms[1].failed
        (complete,) = sim.trace.iter_records("heal.complete")
        assert complete.payload["mode"] == "evacuate"
        assert complete.payload["reason"] == "suspicion"

    def test_rejoin_in_place_when_host_recovers_first(self):
        # the machine comes back before the heal attempt fires: the
        # healer rebuilds the replica in place instead of moving it
        sim, cloud, vm, _, _, _ = build(
            [(0.9, "crash_replica", "echo:1")])
        crashed_host = vm.hosts[1]
        sim.call_after(1.2, cloud.hosts[crashed_host].restore)
        cloud.run(until=4.5)
        assert not vm.vmms[1].failed
        assert vm.hosts[1] == crashed_host
        (complete,) = sim.trace.iter_records("heal.complete")
        assert complete.payload["mode"] == "rejoin"
        assert complete.payload["reason"] == "suspicion"

    def test_no_spare_capacity_gives_up_with_heal_failed(self):
        # 3 machines, no spare: evacuation has nowhere to go
        sim, cloud, vm, _, _, healer = build(
            [(0.9, "crash_host", "host:2")], machines=3)
        cloud.run(until=6.0)
        assert vm.vmms[2].failed
        assert len(healer.failures) == 1
        failed = sim.trace.select("heal.failed")
        assert len(failed) == 1
        assert failed[0].payload["vm"] == "echo"
        # every attempt was traced before giving up
        retries = sim.trace.select("heal.retry")
        assert len(retries) == CONFIG.heal_max_attempts - 1
        # the fabric survives: survivors still serve on a degraded quorum
        assert cloud.pending_releases == 0

    def test_readmit_of_falsely_suspected_live_replica(self):
        # purge enough of replica 2's proposals that the survivors
        # write it off; the replica never crashed, so the healer must
        # re-announce it instead of rebuilding anything
        sim, cloud, vm, _, _, _ = build(
            [(0.9, "drop_proposals", "echo:2",
              {"count": 30, "purge": True})])
        cloud.run(until=4.5)
        (complete,) = sim.trace.iter_records("heal.complete")
        assert complete.payload["mode"] == "readmit"
        for rid in (0, 1):
            assert vm.vmms[rid].coordination.live[2] is True

    def test_second_condemnation_evacuates_again(self):
        sim, cloud, vm, placer, _, healer = build([
            (0.9, "crash_host", "host:2"),
            (2.2, "crash_host", "host:1"),
        ], load_until=4.3)
        cloud.run(until=5.5)
        assert len(healer.evacuations) == 2
        assert placer.verify()
        assert [vmm.failed for vmm in vm.vmms] == [False] * 3
        # only live machines carry replicas, still pairwise distinct
        assert set(vm.hosts).isdisjoint({1, 2})
        assert len(set(vm.hosts)) == 3


class TestHealDeterminism:
    def run_once(self):
        trace = Trace(categories=HEAL_TRACE)
        sim, cloud, *_ = build(
            [(0.9, "crash_host", "host:2"),
             (1.4, "crash_replica", "echo:0")], trace=trace)
        cloud.run(until=4.5)
        return chaos_signature(trace)

    def test_same_seed_heal_signature_is_identical(self):
        first = self.run_once()
        second = self.run_once()
        assert any(entry[1].startswith("heal.") for entry in first)
        assert first == second
