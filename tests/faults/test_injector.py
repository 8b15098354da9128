"""FaultInjector: target resolution and layer hooks."""

import pytest

from repro.cloud import Cloud
from repro.core import RESILIENT
from repro.faults import FaultInjector, FaultSchedule, InjectionError
from repro.sim import Simulator
from repro.workloads import EchoServer


def make_cloud(seed=11):
    sim = Simulator(seed=seed)
    cloud = Cloud(sim, machines=3, config=RESILIENT)
    vm = cloud.create_vm("echo", EchoServer)
    return sim, cloud, vm


class TestTargetResolution:
    def test_unknown_vm_rejected(self):
        sim, cloud, _ = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries(
            [(0.1, "crash_replica", "nope:0")]))
        injector.arm()
        with pytest.raises(InjectionError):
            sim.run(until=0.5)

    def test_bad_replica_id_rejected(self):
        sim, cloud, _ = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries(
            [(0.1, "crash_replica", "echo:9")]))
        injector.arm()
        with pytest.raises(InjectionError):
            sim.run(until=0.5)

    def test_bad_host_rejected(self):
        sim, cloud, _ = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries(
            [(0.1, "partition_host", "host:99")]))
        injector.arm()
        with pytest.raises(InjectionError):
            sim.run(until=0.5)

    def test_double_arm_rejected(self):
        _, cloud, _ = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule([]))
        injector.arm()
        with pytest.raises(InjectionError):
            injector.arm()


class TestInjection:
    def test_crash_fails_host_and_vmm(self):
        sim, cloud, vm = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries(
            [(0.2, "crash_replica", "echo:1")]))
        injector.arm()
        cloud.run(until=0.3)
        assert not cloud.hosts[1].alive
        assert vm.vmms[1].failed
        assert cloud.network.is_isolated("host:1")
        assert len(injector.applied) == 1
        assert sim.trace.count("fault.inject") == 1

    def test_partition_and_heal(self):
        sim, cloud, _ = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries([
            (0.1, "partition_host", "host:2"),
            (0.3, "heal_host", "host:2"),
        ]))
        injector.arm()
        cloud.run(until=0.2)
        assert cloud.network.is_isolated("host:2")
        sim.run(until=0.4)
        assert not cloud.network.is_isolated("host:2")

    def test_degrade_and_restore_link(self):
        sim, cloud, _ = make_cloud()
        link = cloud.network.link_for("host:0", "host:1")
        original = (link.loss, link.latency)
        injector = FaultInjector(cloud, FaultSchedule.from_entries([
            (0.1, "degrade_link", "host:0->host:1",
             {"loss": 0.5, "latency": 0.05}),
            (0.3, "restore_link", "host:0->host:1"),
        ]))
        injector.arm()
        cloud.run(until=0.2)
        assert (link.loss, link.latency) == (0.5, 0.05)
        sim.run(until=0.4)
        assert (link.loss, link.latency) == original

    def test_restore_link_without_degrade_is_noop(self):
        sim, cloud, _ = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries(
            [(0.1, "restore_link", "host:0->host:1")]))
        injector.arm()
        sim.run(until=0.5)   # randomized storms must survive this
        (noop,) = sim.trace.select("fault.noop")
        assert noop.payload["fault"] == "restore_link"
        assert "never degraded" in noop.payload["reason"]
        assert len(injector.applied) == 1

    def test_drop_proposals_swallows_multicasts(self):
        sim, cloud, vm = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries(
            [(0.1, "drop_proposals", "echo:0",
              {"count": 2, "purge": False})]))
        injector.arm()
        cloud.run(until=0.5)
        sender = vm.vmms[0].coordination.sender
        assert sender._drop_budget == 0  # budget consumed by traffic
        injected = [r for r in sim.trace.iter_records("net.drop")
                    if r.payload.get("reason") == "injected"]
        assert len(injected) == 2
        assert all(r.payload["src"] == "host:0" for r in injected)
        # purge=False: receivers repaired the gap via NAK -> RDATA
        assert sender.rdata_sent >= 1

    def test_delay_dom0_occupies_queue(self):
        sim, cloud, _ = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries(
            [(0.1, "delay_dom0", "host:0", {"duration": 0.5})]))
        injector.arm()
        cloud.run(until=0.11)
        assert cloud.hosts[0].dom0.queue_delay() > 0.4

    def test_recorders_attached_for_recovery(self):
        _, cloud, vm = make_cloud()
        FaultInjector(cloud, FaultSchedule([]))
        assert sorted(vm.recorders) == [0, 1, 2]


class TestEdgeFaults:
    def test_partition_edge_drops_then_service_recovers(self):
        sim, cloud, vm = make_cloud()
        from repro.net import UdpStack
        client = cloud.add_client("client:1")
        udp = UdpStack(client)
        replies = []
        udp.bind(9000, lambda d, s: replies.append((sim.now, d.tag)))
        injector = FaultInjector(cloud, FaultSchedule.from_entries(
            [(0.1, "partition_edge", "ingress:echo"),
             (0.5, "heal_edge", "ingress:echo")]))
        injector.arm()
        # one ping into the partition window, one after the heal
        sim.call_after(0.2, udp.send, "vm:echo", 9000, 7, 64, "during")
        sim.call_after(0.7, udp.send, "vm:echo", 9000, 7, 64, "after")
        cloud.run(until=1.8)
        # the partitioned shard's multicast was observably dropped ...
        dropped = [r for r in sim.trace.iter_records("net.drop")
                   if r.payload.get("reason") == "isolated"
                   and r.payload["src"] == "ingress"]
        assert dropped
        # ... nothing got out while the shard was down, and the healed
        # edge recovered full service (PGM NAK repair refetches the
        # partition-window packet, so nothing is lost permanently)
        assert all(t > 0.5 for t, _ in replies)
        assert {tag for _, tag in replies} == {"during", "after"}

    def test_edge_target_resolves_via_shard(self):
        from repro.core import DEFAULT
        from repro.workloads import EchoServer
        sim = Simulator(seed=11)
        cloud = Cloud(sim, machines=9, config=DEFAULT, shards=3)
        for i in range(3):
            cloud.create_vm(f"echo-{i}", EchoServer)
        target = "echo-0"
        injector = FaultInjector(cloud, FaultSchedule.from_entries(
            [(0.1, "partition_edge", f"egress:{target}")]))
        injector.arm()
        cloud.run(until=0.2)
        partitioned = cloud.egress_for(target).address
        records = sim.trace.select("fault.partition_edge")
        assert [r.payload["address"] for r in records] == [partitioned]

    def test_unknown_edge_vm_rejected(self):
        sim, cloud, _ = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries(
            [(0.1, "partition_edge", "ingress:nope")]))
        injector.arm()
        with pytest.raises(InjectionError):
            sim.run(until=0.5)

    def test_bad_edge_side_rejected(self):
        sim, cloud, _ = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries(
            [(0.1, "partition_edge", "middlebox:echo")]))
        injector.arm()
        with pytest.raises(InjectionError):
            sim.run(until=0.5)


class TestPermanentFaults:
    def test_crash_host_condemns_permanently(self):
        sim, cloud, vm = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries(
            [(0.1, "crash_host", "host:1")]))
        injector.arm()
        cloud.run(until=0.5)
        host = cloud.hosts[1]
        assert host.condemned and not host.alive
        assert vm.vmms[1].failed
        host.restore()          # condemned machines never come back
        assert not host.alive
        (record,) = sim.trace.select("fault.condemn")
        assert record.payload["host"] == 1

    def test_recondemning_a_host_is_noop(self):
        sim, cloud, _ = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries([
            (0.1, "crash_host", "host:1"),
            (0.3, "crash_host", "host:1"),
        ]))
        injector.arm()
        cloud.run(until=0.5)
        (noop,) = sim.trace.select("fault.noop")
        assert noop.payload["fault"] == "crash_host"
        assert "already condemned" in noop.payload["reason"]
        assert len(injector.applied) == 2

    def test_crash_replica_on_dead_host_is_noop(self):
        sim, cloud, _ = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries([
            (0.1, "crash_replica", "echo:1"),
            (0.3, "crash_replica", "echo:1"),
        ]))
        injector.arm()
        cloud.run(until=0.5)
        (noop,) = sim.trace.select("fault.noop")
        assert noop.payload["fault"] == "crash_replica"
        assert "already down" in noop.payload["reason"]

    def test_heal_host_refuses_condemned_machine(self):
        sim, cloud, _ = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries([
            (0.1, "crash_host", "host:1"),
            (0.3, "heal_host", "host:1"),
        ]))
        injector.arm()
        cloud.run(until=0.5)
        (noop,) = sim.trace.select("fault.noop")
        assert noop.payload["fault"] == "heal_host"
        assert "condemned" in noop.payload["reason"]
        assert not cloud.hosts[1].alive


class TestAllReplicasDead:
    def test_restart_with_no_survivor_noops_and_fabric_resumes(self):
        # regression: a randomized storm can kill all three replicas
        # before any restart fires; the rejoin must surface a typed
        # RecoveryError (not crash the event loop) and leave the
        # fabric resumable
        sim, cloud, vm = make_cloud()
        injector = FaultInjector(cloud, FaultSchedule.from_entries([
            (0.1, "crash_replica", "echo:0"),
            (0.15, "crash_replica", "echo:1"),
            (0.2, "crash_replica", "echo:2"),
            (0.6, "restart_replica", "echo:1"),
        ]))
        injector.arm()
        cloud.run(until=1.0)     # must not raise
        (noop,) = sim.trace.select("fault.noop")
        assert noop.payload["fault"] == "restart_replica"
        assert "no live survivor" in noop.payload["reason"]
        assert all(vmm.failed for vmm in vm.vmms)
        assert len(injector.applied) == 4
        # the loop is still serviceable after the failed rejoin
        fired = []
        sim.call_after(0.2, lambda: fired.append(sim.now))
        sim.run(until=1.5)
        assert fired
