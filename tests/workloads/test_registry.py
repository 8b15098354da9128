"""Tests for the pluggable workload registry."""

import pytest

from repro.workloads import registry
from repro.workloads.registry import (
    ResourceProfile,
    UnknownWorkloadError,
    WorkloadSpec,
)

EXPECTED_BUILTINS = {
    "echo", "fileserver", "udp-file", "nfs", "storage",
    "parsec.ferret", "parsec.blackscholes", "parsec.canneal",
    "parsec.dedup", "parsec.streamcluster",
}


class TestRegistry:
    def test_builtins_registered(self):
        assert EXPECTED_BUILTINS <= set(registry.names())

    def test_names_sorted(self):
        assert registry.names() == sorted(registry.names())

    def test_get_returns_spec(self):
        spec = registry.get("echo")
        assert isinstance(spec, WorkloadSpec)
        assert spec.name == "echo"
        assert spec.scope == "vm"

    def test_unknown_name_lists_and_suggests(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            registry.get("fileservr")
        message = str(excinfo.value)
        assert "unknown workload 'fileservr'" in message
        assert "echo" in message and "storage" in message
        assert "did you mean 'fileserver'?" in message
        # the listing is sorted
        listed = message.split("registered workloads: ")[1]
        listed = listed.split(" (did")[0].split(", ")
        assert listed == sorted(listed)

    def test_unknown_name_without_close_match(self):
        with pytest.raises(UnknownWorkloadError) as excinfo:
            registry.get("zzzzzz")
        assert "did you mean" not in str(excinfo.value)

    def test_register_rejects_duplicates(self):
        spec = registry.get("echo")
        with pytest.raises(ValueError):
            registry.register(spec)

    def test_register_replace_roundtrip(self):
        original = registry.get("echo")
        registry.register(original, replace=True)
        assert registry.get("echo") is original


class TestWorkloadSpec:
    def test_params_for_merges_defaults(self):
        spec = registry.get("storage")
        params = spec.params_for({"k": 3, "n": 5})
        assert params["k"] == 3 and params["n"] == 5
        assert params["object_size"] == \
            spec.defaults["object_size"]

    def test_params_for_rejects_unknown_keys(self):
        spec = registry.get("echo")
        with pytest.raises(ValueError) as excinfo:
            spec.params_for({"no_such_knob": 1})
        assert "no_such_knob" in str(excinfo.value)

    def test_make_server_builds_configured_factory(self):
        spec = registry.get("echo")
        factory = spec.make_server(spec.params_for({}))
        # one-guest callable; construction against a real guest is
        # covered by the scenario and workload e2e tests
        assert callable(factory)

    def test_make_driver_without_driver_raises(self):
        spec = registry.get("parsec.ferret")
        with pytest.raises(ValueError) as excinfo:
            spec.make_driver(None, "vm:x", None, {})
        assert "no client driver" in str(excinfo.value)

    def test_storage_check_requires_count_match(self):
        from repro.cloud.scenario import ScenarioError, TenantSpec

        with pytest.raises(ScenarioError) as excinfo:
            TenantSpec(name="s", count=4, workload="storage",
                       workload_params={"k": 2, "n": 3})
        assert "n" in str(excinfo.value)

    def test_parsec_check_rejects_clients(self):
        from repro.cloud.scenario import ScenarioError, TenantSpec

        with pytest.raises(ScenarioError):
            TenantSpec(name="p", count=1, workload="parsec.ferret",
                       clients=1)


class TestResourceProfile:
    def test_rejects_a_negative_weight_and_an_all_zero_profile(self):
        with pytest.raises(ValueError, match="negative resource weight"):
            ResourceProfile(cpu=1.0, disk=-0.1)
        with pytest.raises(ValueError, match="needs a positive weight"):
            ResourceProfile(cpu=0.0)
