"""Tests for the declarative multi-tenant scenario builder."""

import pytest

from repro.cloud.scenario import (
    BUILTIN_WAN,
    CloudBuilder,
    ScenarioError,
    ScenarioSpec,
    TenantSpec,
    WanProfile,
)
from repro.sim import Simulator, Trace

try:
    import tomllib
except ModuleNotFoundError:         # Python < 3.11
    tomllib = None


def small_spec(**overrides):
    fields = dict(
        name="test",
        tenants=[TenantSpec(name="ping", count=2, workload="echo",
                            clients=1, request_rate=30.0)],
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestSpecValidation:
    def test_needs_tenants(self):
        with pytest.raises(ScenarioError, match="at least one"):
            ScenarioSpec(name="x", tenants=[])

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            ScenarioSpec(name="x", tenants=[
                TenantSpec(name="a"), TenantSpec(name="a")])

    def test_unknown_workload_rejected(self):
        with pytest.raises(ScenarioError, match="unknown workload"):
            TenantSpec(name="a", workload="database")

    def test_unknown_workload_suggests_close_match(self):
        with pytest.raises(ScenarioError) as excinfo:
            TenantSpec(name="a", workload="echoo")
        message = str(excinfo.value)
        assert "registered workloads" in message
        assert "did you mean 'echo'?" in message

    def test_unknown_workload_param_rejected(self):
        with pytest.raises(ScenarioError, match="no_such"):
            TenantSpec(name="a", workload="echo",
                       workload_params={"no_such": 1})

    def test_clients_without_driver_rejected(self):
        with pytest.raises(ScenarioError, match="no client driver"):
            TenantSpec(name="a", workload="parsec.canneal", clients=1)

    @pytest.mark.parametrize("scale", [0, -1.0, "1", float("nan"), True])
    def test_bad_parsec_scale_rejected(self, scale):
        with pytest.raises(ScenarioError, match="scale"):
            TenantSpec(name="a", workload="parsec.canneal", clients=0,
                       workload_params={"scale": scale})

    def test_parsec_scale_accepted(self):
        tenant = TenantSpec(name="a", workload="parsec.canneal", clients=0,
                            workload_params={"scale": 0.5})
        assert tenant.workload_params == {"scale": 0.5}

    def test_workload_params_accepted(self):
        tenant = TenantSpec(name="s", count=3, workload="storage",
                            workload_params={"k": 2, "n": 3})
        assert tenant.workload_params == {"k": 2, "n": 3}

    def test_unknown_wan_profile_rejected(self):
        with pytest.raises(ScenarioError, match="unknown WAN profile"):
            small_spec(tenants=[TenantSpec(name="a", wan="dialup")])

    def test_bad_tenant_count_rejected(self):
        with pytest.raises(ScenarioError, match="count"):
            TenantSpec(name="a", count=0)

    def test_host_pin_length_must_match_count(self):
        with pytest.raises(ScenarioError, match="host pins"):
            TenantSpec(name="a", count=2, hosts=[[0, 1, 2]])

    def test_tiny_fleet_rejected(self):
        with pytest.raises(ScenarioError, match=">= 3 machines"):
            small_spec(machines=2)

    def test_bad_wan_profile_rejected(self):
        with pytest.raises(ScenarioError, match="bandwidth"):
            WanProfile(bandwidth=0)

    def test_builtin_profiles_exist(self):
        assert {"lan", "campus", "metro", "wide"} <= set(BUILTIN_WAN)

    def test_total_vms_and_fleet_sizing(self):
        spec = small_spec(tenants=[
            TenantSpec(name="a", count=5), TenantSpec(name="b", count=3)])
        assert spec.total_vms == 8
        machines, capacity = spec.resolved_fleet()
        assert machines == 9 and capacity == 4

    def test_config_overrides_flow_into_stopwatch_config(self):
        spec = small_spec(config={"delta_net": 0.02})
        assert spec.stopwatch_config().delta_net == 0.02

    def test_bad_config_override_rejected(self):
        with pytest.raises(ScenarioError, match="config"):
            small_spec(config={"no_such_knob": 1}).stopwatch_config()


class TestSpecLoading:
    TOML = """
name = "smoke"
shards = 2

[wan.slow]
latency = 0.1
bandwidth = 1e6
jitter = 0.01

[[tenant]]
name = "web"
count = 2
workload = "fileserver"
clients = 1
wan = "slow"
file_bytes = 4000

[[tenant]]
name = "ping"
count = 2
workload = "echo"
request_rate = 50.0
"""

    def test_from_toml(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(self.TOML)
        if tomllib is None:
            with pytest.raises(ScenarioError, match="Python 3.11"):
                ScenarioSpec.from_file(str(path))
            return
        spec = ScenarioSpec.from_file(str(path))
        assert spec.name == "smoke"
        assert spec.shards == 2
        assert [t.name for t in spec.tenants] == ["web", "ping"]
        assert spec.wan["slow"].latency == 0.1
        assert spec.tenants[0].wan == "slow"

    def test_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"name": "j", "tenant": [{"name": "a"}]}')
        spec = ScenarioSpec.from_file(str(path))
        assert spec.name == "j" and spec.tenants[0].name == "a"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ScenarioError, match="unknown spec keys"):
            ScenarioSpec.from_dict(
                {"name": "x", "tenant": [{"name": "a"}], "typo": 1})

    def test_unknown_tenant_keys_rejected(self):
        with pytest.raises(ScenarioError, match="bad tenant entry"):
            ScenarioSpec.from_dict(
                {"name": "x", "tenant": [{"name": "a", "nope": 2}]})

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text("name: x")
        with pytest.raises(ScenarioError, match="toml or .json"):
            ScenarioSpec.from_file(str(path))


def build_eight_tenant(seed=11, shards=2):
    spec = ScenarioSpec(
        name="eight",
        shards=shards,
        tenants=[TenantSpec(name="t", count=8, workload="echo",
                            clients=1, request_rate=30.0)],
    )
    sim = Simulator(seed=seed, trace=Trace(max_per_category=65_536))
    return sim, spec.build(sim)


class TestBuiltFabric:
    def test_coresidency_bound_in_wired_fabric(self):
        # paper Sec. VIII soundness end to end: in the *wired* cloud,
        # any two tenants share at most one physical host
        sim, built = build_eight_tenant()
        wired = {}
        for name, vm in built.cloud.vms.items():
            wired[name] = {vmm.host.host_id for vmm in vm.vmms}
        names = sorted(wired)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                shared = wired[a] & wired[b]
                assert len(shared) <= 1, \
                    f"{a} and {b} co-reside on {sorted(shared)}"
        assert built.verify_placement()

    def test_wired_hosts_match_scheduler_assignments(self):
        sim, built = build_eight_tenant()
        for name, triangle in built.placer.assignments.items():
            vm = built.cloud.vms[name]
            assert sorted(v.host.host_id for v in vm.vmms) == list(triangle)

    def test_capacity_flows_into_hosts(self):
        sim, built = build_eight_tenant()
        assert all(h.capacity == built.placer.capacity
                   for h in built.cloud.hosts)

    def test_traffic_flows_and_replicas_agree(self):
        sim, built = build_eight_tenant()
        built.run(until=1.5)
        outputs = built.per_tenant_outputs()
        assert set(outputs) == {"t"}
        assert len(outputs["t"]) == 8
        assert all(count > 0 for count in outputs["t"])
        assert built.cloud.packets_released > 0

    def test_host_pinning_respected(self):
        spec = ScenarioSpec(
            name="pinned", machines=9,
            tenants=[TenantSpec(name="a", count=1, hosts=[[2, 5, 8]])])
        sim = Simulator(seed=3)
        built = spec.build(sim)
        assert built.cloud.vms["a"].hosts == [2, 5, 8]
        assert built.placer.assignments["a"] == (2, 5, 8)

    def test_builder_entry_point(self):
        spec = small_spec()
        sim = Simulator(seed=5)
        built = CloudBuilder(spec).build(sim)
        assert set(built.tenant_vms["ping"]) == {"ping-0", "ping-1"}
        assert set(built.drivers) == {("ping-0", 0), ("ping-1", 0)}

    def test_mixed_workloads_build(self):
        spec = ScenarioSpec(
            name="mixed",
            tenants=[
                TenantSpec(name="echo", count=2, workload="echo"),
                TenantSpec(name="web", count=2, workload="fileserver",
                           file_bytes=4000),
                TenantSpec(name="nfs", count=2, workload="nfs",
                           request_rate=20.0),
            ])
        sim = Simulator(seed=9)
        built = spec.build(sim)
        built.run(until=1.0)
        outputs = built.per_tenant_outputs()
        assert all(any(c > 0 for c in counts)
                   for counts in outputs.values())

    def test_tenant_scope_driver_gets_all_vm_addresses(self):
        spec = ScenarioSpec(
            name="store",
            machines=9,
            tenants=[TenantSpec(name="s", count=3, workload="storage",
                                workload_params={"k": 2, "n": 3,
                                                 "object_size": 4096})])
        sim = Simulator(seed=11)
        built = spec.build(sim)
        # one driver per tenant slot, keyed by tenant name, fanning
        # across the ordered VM list
        assert set(built.drivers) == {("s", 0)}
        driver = built.drivers[("s", 0)]
        assert driver.client.targets == \
            [f"vm:{name}" for name in built.tenant_vms["s"]]

    def test_workload_params_flow_into_guests(self):
        spec = ScenarioSpec(
            name="tuned",
            tenants=[TenantSpec(name="web", count=1,
                                workload="fileserver",
                                workload_params={"request_compute": 7})])
        sim = Simulator(seed=4)
        built = spec.build(sim)
        vm_name = built.tenant_vms["web"][0]
        for workload in built.cloud.vms[vm_name].workloads:
            assert workload.request_compute == 7
