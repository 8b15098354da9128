"""Picklability audit (satellite): every public runner must dispatch
by name through the process-pool executor.

Workers receive only ``(runner_name, params, seed)`` payloads, so the
hard requirement is that the *payload* pickles and the name resolves
inside a fresh interpreter — not that the function object itself is
pickled.  We verify payload round-trips for every registry entry and
push a representative subset through a real pool.
"""

import pickle

import pytest

from repro.bench.registry import CELLS
from repro.campaign import (CampaignSpec, SweepSpec, TaskCell,
                            execute_cell, resolve_runner, run_campaign)

# Cheap, pure-analytic runners that are safe to dispatch through a
# real ProcessPoolExecutor in under a second each.
POOL_SAFE = {
    "fig1_median_cdfs": {},
    "fig1_observation_curves": {"confidences": [0.9]},
    "placement_utilization": {"points": [[9, 4]]},
}


class TestPayloadPicklability:
    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_payload_round_trips(self, name):
        payload = {"runner": name, "params": {}, "seed": 0,
                   "timeout": 30.0}
        blob = pickle.dumps(payload)
        assert pickle.loads(blob) == payload

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_name_resolves_to_a_callable(self, name):
        fn = resolve_runner(name)
        assert callable(fn)
        assert fn is CELLS[name].resolve()

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_cell_dict_round_trips_through_json_manifest(self, name):
        cell = TaskCell(name, {}, seed=0)
        import json
        assert json.loads(json.dumps(cell.to_dict())) == cell.to_dict()


class TestRealPoolDispatch:
    @pytest.mark.parametrize("name", sorted(POOL_SAFE))
    def test_runner_executes_in_worker_process(self, name):
        spec = CampaignSpec(
            name=f"pool-{name}", seeds=[0], timeout=60.0,
            sweeps=[SweepSpec(name, params=POOL_SAFE[name])])
        report = run_campaign(spec, jobs=2)
        (result,) = report.results
        assert result.ok, result.error
        assert result.value

    def test_execute_cell_matches_pool_result(self):
        name = "placement_utilization"
        inline = execute_cell({"runner": name,
                               "params": POOL_SAFE[name], "seed": None,
                               "timeout": None})
        spec = CampaignSpec(
            name="parity", seeds=[0], timeout=60.0,
            sweeps=[SweepSpec(name, params=POOL_SAFE[name])])
        report = run_campaign(spec, jobs=2)
        assert report.results[0].value == inline["value"]
