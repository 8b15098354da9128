"""Unit coverage of the mitigation-policy subsystem: registry,
deployment shapes, and the hook arithmetic each policy promises."""

import math
from types import SimpleNamespace

import pytest

from repro.cloud.scenario import ScenarioError, TenantSpec
from repro.core.config import DEFAULT, PASSTHROUGH
from repro.mitigation import (
    DeterlandPolicy,
    MitigationPolicy,
    PassthroughPolicy,
    PolicyError,
    POLICIES,
    StopWatchPolicy,
    UniformNoisePolicy,
    default_policy,
    make_policy,
    resolve_policy,
)
from repro.sim.kernel import Simulator


class TestRegistry:
    def test_all_four_policies_registered(self):
        assert sorted(POLICIES) == ["deterland", "none", "stopwatch",
                                    "uniform-noise"]
        for name in POLICIES:
            policy = make_policy(name)
            assert isinstance(policy, MitigationPolicy)
            assert policy.name == name

    def test_unknown_name_lists_choices(self):
        with pytest.raises(PolicyError, match="deterland"):
            make_policy("median-of-five")

    def test_bad_params_raise_policy_error(self):
        with pytest.raises(PolicyError, match="bad params"):
            make_policy("stopwatch", replicas=5)
        with pytest.raises(PolicyError, match="interval"):
            make_policy("deterland", interval=-1.0)
        with pytest.raises(PolicyError, match="bound"):
            make_policy("uniform-noise", bound=0.0)

    def test_default_policy_tracks_config(self):
        assert isinstance(default_policy(DEFAULT), StopWatchPolicy)
        assert isinstance(default_policy(PASSTHROUGH), PassthroughPolicy)

    def test_resolve_policy_forms(self):
        assert isinstance(resolve_policy(None, DEFAULT), StopWatchPolicy)
        assert isinstance(resolve_policy(None, PASSTHROUGH),
                          PassthroughPolicy)
        assert isinstance(resolve_policy("deterland", DEFAULT),
                          DeterlandPolicy)
        instance = UniformNoisePolicy(bound=0.02)
        assert resolve_policy(instance, DEFAULT) is instance
        with pytest.raises(PolicyError):
            resolve_policy(42, DEFAULT)


class TestDeploymentShape:
    """Each policy's replica count and egress routing: the policy alone
    decides both, whatever the config's replica count."""

    @pytest.mark.parametrize("config", [DEFAULT, PASSTHROUGH],
                             ids=["default", "passthrough"])
    def test_stopwatch_replicates_per_config(self, config):
        policy = StopWatchPolicy()
        assert policy.replica_count(config) == config.replicas
        assert policy.coordinated
        assert policy.egress

    @pytest.mark.parametrize("name", ["deterland", "uniform-noise"])
    def test_single_replica_policies_keep_egress(self, name):
        policy = make_policy(name)
        assert policy.replica_count(DEFAULT) == 1
        assert not policy.coordinated
        assert policy.egress

    def test_passthrough_disables_everything(self):
        policy = PassthroughPolicy()
        assert policy.replica_count(DEFAULT) == 1
        assert not policy.coordinated
        assert not policy.egress


class TestStopWatchHooks:
    """The extracted hooks must reproduce the pre-extraction math."""

    def test_hook_arithmetic(self):
        vmm = SimpleNamespace(last_exit_virt=0.012, config=DEFAULT,
                              current_virt=lambda: 0.0134)
        policy = StopWatchPolicy()
        assert policy.network_proposal_virt(vmm) == \
            0.012 + DEFAULT.delta_net
        assert policy.disk_delivery_virt(vmm, 0.5) == \
            0.5 + DEFAULT.delta_disk
        assert policy.timer_gate_virt(vmm, 0.0134) == 0.0134
        assert policy.inbound_delivery_virt(vmm) == float("-inf")
        assert policy.release_delay(None, "vm") == 0.0
        assert policy.coordinated
        assert policy.immediate_injection
        assert not policy.disk_poke
        assert policy.replica_count(DEFAULT) == DEFAULT.replicas


class TestDeterlandHooks:
    def test_quantisation_onto_boundaries(self):
        policy = DeterlandPolicy(interval=0.005)
        vmm = SimpleNamespace(config=DEFAULT,
                              current_virt=lambda: 0.0123)
        assert policy.inbound_delivery_virt(vmm) == pytest.approx(0.015)
        assert policy.timer_gate_virt(vmm, 0.0123) == pytest.approx(0.010)
        disk = policy.disk_delivery_virt(vmm, 0.0123)
        assert disk > 0.0123 + DEFAULT.delta_disk
        assert disk == pytest.approx(
            DeterlandPolicy._next_boundary(
                0.0123 + DEFAULT.delta_disk, 0.005))
        assert (disk / 0.005) == pytest.approx(round(disk / 0.005))

    def test_exact_boundary_moves_to_next(self):
        assert DeterlandPolicy._next_boundary(0.010, 0.005) == \
            pytest.approx(0.015)

    def test_release_delay_targets_next_real_boundary(self):
        policy = DeterlandPolicy(interval=0.005, release_interval=0.02)
        egress = SimpleNamespace(sim=SimpleNamespace(now=0.031))
        assert policy.release_delay(egress, "vm") == \
            pytest.approx(0.040 - 0.031)
        assert policy.describe()["release_interval"] == 0.02


class TestUniformNoiseHooks:
    def test_draws_are_seeded_and_bounded(self):
        draws = []
        for _ in range(2):
            sim = Simulator(seed=3)
            vmm = SimpleNamespace(sim=sim, vm_name="a", replica_id=0,
                                  config=DEFAULT,
                                  current_virt=lambda: 1.0)
            policy = UniformNoisePolicy(bound=0.01)
            draws.append([policy.inbound_delivery_virt(vmm) - 1.0,
                          policy.disk_delivery_virt(vmm, 2.0) - 2.0,
                          policy.release_delay(
                              SimpleNamespace(sim=sim), "a")])
        assert draws[0] == draws[1]
        assert all(0.0 <= d <= 0.01 for d in draws[0])

    def test_streams_are_per_vm(self):
        sim = Simulator(seed=3)
        policy = UniformNoisePolicy(bound=0.01)
        first = policy.release_delay(SimpleNamespace(sim=sim), "a")
        second = policy.release_delay(SimpleNamespace(sim=sim), "b")
        assert first != second


class TestTenantSpecPolicy:
    def test_unknown_policy_rejected_eagerly(self):
        with pytest.raises(ScenarioError, match="policy"):
            TenantSpec(name="t", policy="median-of-five")

    def test_params_without_policy_rejected(self):
        with pytest.raises(ScenarioError, match="policy_params"):
            TenantSpec(name="t", policy_params={"bound": 0.01})

    def test_policy_params_reach_the_instance(self):
        tenant = TenantSpec(name="t", policy="deterland",
                            policy_params={"interval": 0.002})
        policy = tenant.make_policy()
        assert isinstance(policy, DeterlandPolicy)
        assert policy.interval == 0.002

    def test_no_policy_means_cloud_default(self):
        assert TenantSpec(name="t").make_policy() is None
