"""Tests for campaign spec parsing, validation and expansion."""

import json

import pytest

from repro.campaign import (CampaignError, CampaignSpec, SweepSpec,
                            canonical_params, resolve_runner)
from repro.sim.rng import derive_root_seed

TOML_SPEC = """
name = "demo"
timeout = 60.0
seeds = { base = 1, count = 3 }

[[sweep]]
runner = "fig5_file_download"
params = { trials = 1 }
[sweep.grid]
sizes = [[1000], [2000]]

[[sweep]]
runner = "placement_utilization"
"""


class TestLoading:
    def test_toml_round_trip(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "demo.toml"
        path.write_text(TOML_SPEC)
        spec = CampaignSpec.from_file(str(path))
        assert spec.name == "demo"
        assert spec.timeout == 60.0
        assert spec.seeds == [derive_root_seed(1, i) for i in range(3)]
        assert len(spec.sweeps) == 2

    def test_json_loads_too(self, tmp_path):
        data = {"name": "j", "seeds": [4, 5],
                "sweep": [{"runner": "fig5_file_download",
                           "grid": {"sizes": [[1000]]}}]}
        path = tmp_path / "j.json"
        path.write_text(json.dumps(data))
        spec = CampaignSpec.from_file(str(path))
        assert spec.seeds == [4, 5]
        assert len(spec.expand()) == 2

    def test_unknown_extension_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec.from_file("spec.yaml")

    def test_to_dict_from_dict_round_trip(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "demo.toml"
        path.write_text(TOML_SPEC)
        spec = CampaignSpec.from_file(str(path))
        again = CampaignSpec.from_dict(spec.to_dict())
        assert [c.to_dict() for c in again.expand()] \
            == [c.to_dict() for c in spec.expand()]


class TestValidation:
    def test_unknown_runner(self):
        with pytest.raises(CampaignError, match="unknown runner"):
            SweepSpec(runner="not_a_runner")

    def test_unknown_param_rejected(self):
        with pytest.raises(CampaignError, match="accepts no"):
            SweepSpec(runner="fig5_file_download",
                      params={"bogus_param": 1})

    def test_unknown_grid_key_rejected(self):
        with pytest.raises(CampaignError, match="accepts no"):
            SweepSpec(runner="fig5_file_download",
                      grid={"bogus": [[1]]})

    def test_seed_param_belongs_in_seeds(self):
        with pytest.raises(CampaignError, match="seeds spec"):
            SweepSpec(runner="fig5_file_download", params={"seed": 1})

    def test_grid_values_must_be_lists(self):
        with pytest.raises(CampaignError, match="lists"):
            SweepSpec(runner="fig5_file_download", grid={"sizes": 5})

    def test_empty_campaign_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec(name="x", sweeps=[])

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(CampaignError, match="unknown spec keys"):
            CampaignSpec.from_dict({
                "name": "x", "bogus": 1,
                "sweep": [{"runner": "placement_utilization"}]})

    def test_retries_is_an_unknown_key(self):
        # a deterministic cell runs once: there is no retry budget
        with pytest.raises(CampaignError,
                           match=r"unknown spec keys \['retries'\]"):
            CampaignSpec.from_dict({
                "name": "x", "retries": 1,
                "sweep": [{"runner": "placement_utilization"}]})

    def test_module_path_runner_resolves(self):
        fn = resolve_runner("tests.campaign.runners:add_rows")
        assert fn(a=1, b=2, seed=0) == [("sum", 3.0), ("product", 2)]

    def test_bad_module_path_raises(self):
        with pytest.raises(CampaignError, match="cannot import"):
            resolve_runner("no.such.module:fn")


class TestExpansion:
    def test_grid_is_cartesian_and_deterministic(self):
        spec = CampaignSpec.single(
            "tests.campaign.runners:add_rows",
            grid={"a": [1, 2], "b": [10, 20, 30]}, seeds=[0, 1])
        cells = spec.expand()
        assert len(cells) == 2 * 3 * 2
        assert [c.to_dict() for c in cells] \
            == [c.to_dict() for c in spec.expand()]
        # sorted grid keys: a varies slowest
        assert cells[0].params == {"a": 1, "b": 10}
        assert cells[0].seed == 0
        assert cells[1].seed == 1

    def test_explicit_cells_append_after_grid(self):
        spec = CampaignSpec(
            name="x", seeds=[0],
            sweeps=[SweepSpec("tests.campaign.runners:add_rows",
                              params={"b": 5}, grid={"a": [1]},
                              cells=[{"a": 9, "b": 9}])])
        points = [c.params for c in spec.expand()]
        assert points == [{"a": 1, "b": 5}, {"a": 9, "b": 9}]

    def test_unseeded_runner_gets_single_cell(self):
        spec = CampaignSpec.single("tests.campaign.runners:unseeded",
                                   seeds=[1, 2, 3])
        cells = spec.expand()
        assert len(cells) == 1
        assert cells[0].seed is None
        assert cells[0].call_kwargs() == {}

    def test_sweep_seeds_override_campaign_seeds(self):
        spec = CampaignSpec(
            name="x", seeds=[1, 2, 3],
            sweeps=[SweepSpec("tests.campaign.runners:add_rows",
                              seeds=[7])])
        assert [c.seed for c in spec.expand()] == [7]

    def test_derived_seed_sweep_not_consecutive(self):
        spec = CampaignSpec.single("tests.campaign.runners:add_rows",
                                   seeds={"base": 0, "count": 4})
        seeds = [c.seed for c in spec.expand()]
        assert len(set(seeds)) == 4
        diffs = {b - a for a, b in zip(seeds, seeds[1:])}
        assert diffs != {1}      # not base + i arithmetic


class TestCanonicalParams:
    def test_key_order_insensitive(self):
        assert canonical_params({"a": 1, "b": [2, 3]}) \
            == canonical_params({"b": [2, 3], "a": 1})

    def test_value_changes_canonical_form(self):
        assert canonical_params({"a": 1}) != canonical_params({"a": 2})
