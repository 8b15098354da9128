"""Tests for cloud assembly, ingress/egress and the mediated pipeline."""

import pytest

from repro.cloud import Cloud
from repro.core import DEFAULT, PASSTHROUGH
from repro.net import UdpStack
from repro.sim import Simulator, Trace
from repro.sim.errors import ProcessFailed
from repro.workloads import EchoServer


def make_cloud(config, machines=3, seed=42, **kwargs):
    sim = Simulator(seed=seed, trace=kwargs.pop("trace", Trace()))
    cloud = Cloud(sim, machines=machines, config=config, **kwargs)
    return sim, cloud


class TestCloudConstruction:
    def test_too_few_machines_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Cloud(sim, machines=2, config=DEFAULT)

    def test_duplicate_vm_rejected(self):
        sim, cloud = make_cloud(DEFAULT)
        cloud.create_vm("a", EchoServer)
        with pytest.raises(ValueError):
            cloud.create_vm("a", EchoServer)

    def test_wrong_host_count_rejected(self):
        sim, cloud = make_cloud(DEFAULT)
        with pytest.raises(ValueError):
            cloud.create_vm("a", EchoServer, hosts=[0, 1])

    def test_duplicate_client_rejected(self):
        sim, cloud = make_cloud(DEFAULT)
        cloud.add_client("c:1")
        with pytest.raises(ValueError):
            cloud.add_client("c:1")

    def test_replicas_get_identical_workload_rngs(self):
        sim, cloud = make_cloud(DEFAULT)
        vm = cloud.create_vm("a", EchoServer)
        draws = [vmm.guest.rng.random() for vmm in vm.vmms]
        assert len(set(draws)) == 1

    def test_different_vms_get_different_rngs(self):
        sim, cloud = make_cloud(DEFAULT, machines=6)
        vm_a = cloud.create_vm("a", EchoServer, hosts=[0, 1, 2])
        vm_b = cloud.create_vm("b", EchoServer, hosts=[3, 4, 5])
        assert vm_a.vmms[0].guest.rng.random() != \
            vm_b.vmms[0].guest.rng.random()


class _EchoHarness:
    """Shared scaffolding: echo VM + pinging external client."""

    def __init__(self, config, seed=42, pings=8, interval=0.03):
        self.sim, self.cloud = make_cloud(config, seed=seed)
        self.vm = self.cloud.create_vm("echo", EchoServer)
        self.client = self.cloud.add_client("client:1")
        self.udp = UdpStack(self.client)
        self.replies = []
        self.sent = []
        self.udp.bind(9000, lambda d, s: self.replies.append(
            (self.sim.now, d.tag)))
        self._pings = pings
        self._interval = interval
        self.sim.call_after(0.05, self._send, 0)

    def _send(self, index):
        if index >= self._pings:
            return
        self.sent.append(self.sim.now)
        self.udp.send("vm:echo", 9000, 7, 64, tag=index)
        self.sim.call_after(self._interval, self._send, index + 1)

    def run(self, until=2.0):
        self.cloud.run(until=until)
        return self


class TestMediatedPipeline:
    def test_every_ping_answered_exactly_once(self):
        harness = _EchoHarness(DEFAULT).run()
        assert sorted(tag for _, tag in harness.replies) == list(range(8))

    def test_ingress_replicates_every_packet(self):
        harness = _EchoHarness(DEFAULT).run()
        assert harness.cloud.ingress.packets_replicated == 8

    def test_egress_releases_once_per_output(self):
        harness = _EchoHarness(DEFAULT).run()
        assert harness.cloud.egress.packets_released == 8
        assert harness.cloud.egress.pending_releases == 0

    def test_rtt_includes_delta_n(self):
        harness = _EchoHarness(DEFAULT).run()
        rtts = [t - harness.sent[tag] for t, tag in harness.replies]
        # Δn = 10 ms plus WAN and quantisation: every RTT well above 10 ms
        assert all(rtt > 0.010 for rtt in rtts)
        assert all(rtt < 0.030 for rtt in rtts)

    def test_replica_delivery_virts_identical(self):
        harness = _EchoHarness(DEFAULT).run()
        deliveries = {}
        for rec in harness.sim.trace.select("vmm.deliver.net", vm="echo"):
            deliveries.setdefault(rec.payload["seq"], set()).add(
                rec.payload["virt"])
        assert len(deliveries) == 8
        assert all(len(virts) == 1 for virts in deliveries.values())

    def test_no_divergences_under_default_config(self):
        harness = _EchoHarness(DEFAULT).run()
        assert harness.vm.stat_sum("divergences") == 0

    def test_all_replicas_echo_same_count(self):
        harness = _EchoHarness(DEFAULT).run()
        outputs = {vmm.stats["outputs"] for vmm in harness.vm.vmms}
        assert outputs == {8}


class TestBaselinePipeline:
    def test_every_ping_answered(self):
        harness = _EchoHarness(PASSTHROUGH).run()
        assert sorted(tag for _, tag in harness.replies) == list(range(8))

    def test_baseline_rtt_much_smaller(self):
        base = _EchoHarness(PASSTHROUGH).run()
        mediated = _EchoHarness(DEFAULT).run()
        base_rtt = sum(t - base.sent[tag]
                       for t, tag in base.replies) / len(base.replies)
        med_rtt = sum(t - mediated.sent[tag]
                      for t, tag in mediated.replies) / len(mediated.replies)
        assert med_rtt > 2 * base_rtt

    def test_single_replica_only(self):
        harness = _EchoHarness(PASSTHROUGH).run()
        assert len(harness.vm.vmms) == 1


class TestHostValidation:
    def test_out_of_range_host_rejected(self):
        sim, cloud = make_cloud(DEFAULT)
        with pytest.raises(ValueError, match="outside the 3-machine fleet"):
            cloud.create_vm("a", EchoServer, hosts=[0, 1, 3])

    def test_negative_host_rejected(self):
        sim, cloud = make_cloud(DEFAULT)
        with pytest.raises(ValueError, match="outside the 3-machine fleet"):
            cloud.create_vm("a", EchoServer, hosts=[-1, 0, 1])

    def test_non_integer_host_rejected(self):
        sim, cloud = make_cloud(DEFAULT)
        with pytest.raises(ValueError, match="host id"):
            cloud.create_vm("a", EchoServer, hosts=[0, 1, "2"])


class TestLifecycle:
    def test_start_is_idempotent(self):
        harness = _EchoHarness(DEFAULT)
        harness.cloud.start()
        harness.cloud.start()  # second call must be a no-op
        harness.run()
        assert sorted(tag for _, tag in harness.replies) == list(range(8))

    def test_stop_resets_started(self):
        sim, cloud = make_cloud(DEFAULT)
        cloud.create_vm("echo", EchoServer)
        cloud.start()
        assert cloud._started
        cloud.stop()
        assert not cloud._started

    def test_stop_start_roundtrip_resumes_service(self):
        harness = _EchoHarness(DEFAULT, pings=20, interval=0.05)
        harness.cloud.start()
        harness.sim.run(until=0.3)
        harness.cloud.stop()
        harness.sim.run(until=0.5)
        stopped_replies = len(harness.replies)
        harness.cloud.start()  # must actually reboot after stop()
        harness.sim.run(until=3.0)
        assert all(vmm.running for vmm in harness.vm.vmms)
        assert len(harness.replies) > stopped_replies


class _StartFails:
    """A guest whose ``start()`` raises on the given replicas."""

    def __init__(self, guest, failing):
        self.replica_id = guest.vmm.replica_id
        self.failing = failing

    def start(self):
        if self.replica_id in self.failing:
            raise ValueError(f"guest start failed on r{self.replica_id}")


class TestGuestFailure:
    def test_every_replica_failing_raises(self):
        sim, cloud = make_cloud(DEFAULT)
        cloud.create_vm("doomed", lambda guest: _StartFails(guest, {0, 1, 2}))
        with pytest.raises(ProcessFailed, match="doomed") as caught:
            cloud.run(until=0.2)
        assert isinstance(caught.value.__cause__, ValueError)

    def test_one_failed_replica_does_not_raise(self):
        sim, cloud = make_cloud(DEFAULT)
        vm = cloud.create_vm("limping", lambda guest: _StartFails(guest, {0}))
        cloud.run(until=0.2)
        first, *siblings = vm.vmms
        assert isinstance(first.engine_failure.__cause__, ValueError)
        assert [vmm.engine_failure for vmm in siblings] == [None, None]
        assert all(vmm.stats["vm_exits"] > 0 for vmm in siblings)


class TestPlacement:
    def test_auto_placer_matches_legacy_on_three_machines(self):
        # greedy packing's first triangle is (0, 1, 2): the default
        # single-tenant cloud keeps its historical host assignment
        sim, cloud = make_cloud(DEFAULT)
        vm = cloud.create_vm("echo", EchoServer)
        assert vm.hosts == [0, 1, 2]

    def test_auto_placer_assigns_disjoint_triangles(self):
        sim, cloud = make_cloud(DEFAULT, machines=9)
        for i in range(4):
            cloud.create_vm(f"vm-{i}", EchoServer)
        assert cloud.placer is not None
        assert cloud.placer.verify()
        triangles = [set(vm.hosts) for vm in cloud.vms.values()]
        for i, a in enumerate(triangles):
            for b in triangles[i + 1:]:
                assert len(a & b) <= 1

    def test_auto_placer_falls_back_when_pool_exhausted(self):
        # 3 machines hold exactly one triangle; the second VM falls
        # back to legacy hosts instead of failing
        sim, cloud = make_cloud(DEFAULT)
        cloud.create_vm("a", EchoServer)
        vm = cloud.create_vm("b", EchoServer)
        assert vm.hosts == [0, 1, 2]

    def test_strict_placer_raises_when_full(self):
        from repro.placement import PlacementError, PlacementScheduler
        sim = Simulator(seed=42)
        placer = PlacementScheduler(3, 1)
        cloud = Cloud(sim, machines=3, config=DEFAULT, placer=placer)
        cloud.create_vm("a", EchoServer)
        with pytest.raises(PlacementError):
            cloud.create_vm("b", EchoServer)

    def test_strict_placer_fleet_mismatch_rejected(self):
        from repro.placement import PlacementScheduler
        sim = Simulator(seed=42)
        with pytest.raises(ValueError, match="placer covers"):
            Cloud(sim, machines=3, config=DEFAULT,
                  placer=PlacementScheduler(9, 4))

    def test_explicit_hosts_bypass_placer(self):
        sim, cloud = make_cloud(DEFAULT, machines=6)
        vm = cloud.create_vm("pinned", EchoServer, hosts=[3, 4, 5])
        assert vm.hosts == [3, 4, 5]
        assert cloud.placer is None or "pinned" not in \
            cloud.placer.assignments


class TestShardedEdge:
    def test_single_shard_keeps_legacy_addresses(self):
        sim, cloud = make_cloud(DEFAULT)
        assert cloud.ingress.address == "ingress"
        assert cloud.egress.address == "egress"

    def test_sharded_accessors(self):
        sim, cloud = make_cloud(DEFAULT, machines=9, shards=3)
        assert len(cloud.ingresses) == 3
        assert len(cloud.egresses) == 3
        with pytest.raises(RuntimeError):
            cloud.ingress
        with pytest.raises(RuntimeError):
            cloud.egress

    def test_vm_pinned_to_stable_shard(self):
        from repro.cloud import shard_index
        sim, cloud = make_cloud(DEFAULT, machines=9, shards=3)
        vm = cloud.create_vm("echo", EchoServer)
        assert vm.shard == shard_index("echo", 3)
        assert cloud.ingress_for("echo") is cloud.ingresses[vm.shard]
        assert cloud.egress_for("echo") is cloud.egresses[vm.shard]

    def test_sharded_pipeline_serves_traffic(self):
        sim = Simulator(seed=42)
        cloud = Cloud(sim, machines=9, config=DEFAULT, shards=2)
        for i in range(4):
            cloud.create_vm(f"echo-{i}", EchoServer)
        client = cloud.add_client("client:1")
        udp = UdpStack(client)
        replies = []
        udp.bind(9000, lambda d, s: replies.append(d.tag))
        for i in range(4):
            sim.call_after(0.05 + 0.01 * i, udp.send, f"vm:echo-{i}",
                           9000, 7, 64, i)
        cloud.run(until=1.5)
        assert sorted(replies) == [0, 1, 2, 3]
        # aggregate edge counters span the shards
        assert cloud.packets_replicated == 4
        assert cloud.packets_released == 4
        assert sum(n.packets_replicated for n in cloud.ingresses) == 4


class TestFiveReplicas:
    def test_five_replica_echo_works(self):
        config = DEFAULT.with_overrides(replicas=5)
        sim = Simulator(seed=42)
        cloud = Cloud(sim, machines=5, config=config)
        vm = cloud.create_vm("echo", EchoServer)
        client = cloud.add_client("client:1")
        udp = UdpStack(client)
        replies = []
        udp.bind(9000, lambda d, s: replies.append(d.tag))
        sim.call_after(0.05, udp.send, "vm:echo", 9000, 7, 64, "ping")
        cloud.run(until=1.0)
        assert replies == ["ping"]
        # egress releases on the 3rd copy of 5
        assert cloud.egress.packets_released == 1
