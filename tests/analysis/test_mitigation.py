"""The mitigation-frontier campaign runner: cell contract, aggregation,
the CI gate, and the BENCH artifact writer."""

import json
import pickle
from pathlib import Path

import pytest

from repro.analysis.mitigation import (
    ATTACK_NAMES,
    POLICY_NAMES,
    frontier_gate,
    mitigation_frontier,
    run_mitigation_cell,
)
from repro.bench import append_entry, cell_entry
from repro.campaign import resolve_runner
from repro.campaign.spec import CampaignError, CampaignSpec

try:
    import tomllib
except ModuleNotFoundError:         # Python < 3.11
    tomllib = None

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_runners_registered():
    assert resolve_runner("mitigation_cell") is run_mitigation_cell
    assert resolve_runner("mitigation_frontier") is mitigation_frontier


def test_name_constants_cover_the_shipped_family():
    assert set(POLICY_NAMES) == {"none", "uniform-noise", "deterland",
                                 "stopwatch"}
    assert set(ATTACK_NAMES) == {"probe", "theft", "clocks"}


def test_cell_returns_plain_picklable_data():
    cell = run_mitigation_cell(policy="none", attack="probe",
                               duration=2.0, seed=3)
    assert cell["policy"] == "none"
    assert cell["attack"] == "probe"
    assert cell["mi_bits"] >= 0.0
    assert cell["capacity_bits"] >= cell["mi_bits"] - 1e-9
    assert cell["samples_absent"] > 0
    assert cell["samples_present"] > 0
    assert cell["victim_requests"] > 0
    assert cell["victim_latency_mean"] > 0
    pickle.dumps(cell)


def test_cell_rejects_unknown_attack():
    with pytest.raises(ValueError, match="unknown attack"):
        run_mitigation_cell(attack="rowhammer", duration=1.0)


def test_frontier_sweep_and_gate():
    summary = mitigation_frontier(policies=("none", "stopwatch"),
                                  attacks=("probe",), duration=3.0,
                                  seeds=[3], jobs=1)
    assert summary["cells"] == 2
    assert not summary["failures"]
    rows = {(r["policy"], r["attack"]): r for r in summary["rows"]}
    assert rows[("none", "probe")]["overhead_x"] == pytest.approx(1.0)
    assert rows[("stopwatch", "probe")]["overhead_x"] > 1.0
    gate = summary["gate"]
    assert gate["checked"] and gate["ok"]
    assert gate["baseline_bits"] > gate["mitigated_bits"]
    assert summary["ok"]


def _synthetic_summary(baseline_bits, mitigated_bits):
    return {"rows": [
        {"policy": "none", "attack": "probe", "mi_bits": baseline_bits},
        {"policy": "stopwatch", "attack": "probe",
         "mi_bits": mitigated_bits},
    ]}


def test_gate_fails_when_baseline_does_not_out_leak():
    gate = frontier_gate(_synthetic_summary(0.0, 0.0))
    assert gate["checked"] and not gate["ok"]
    gate = frontier_gate(_synthetic_summary(0.5, 0.1))
    assert gate["checked"] and gate["ok"]


def test_gate_vacuous_without_both_policies():
    gate = frontier_gate({"rows": [
        {"policy": "deterland", "attack": "probe", "mi_bits": 0.1}]})
    assert not gate["checked"]
    assert gate["ok"]


def test_write_bench_appends_trajectory_entries(tmp_path):
    summary = {"cells": 2, "failures": [], "rows": [],
               "gate": {"checked": True, "ok": True,
                        "baseline_bits": 0.5, "mitigated_bits": 0.1},
               "ok": True, "wall_seconds": 1.0,
               "results": [{"should": "be stripped"}]}
    path = tmp_path / "BENCH_mitigation.json"
    append_entry(str(path), cell_entry("mitigation.frontier", summary,
                                       label="first"))
    first = json.loads(path.read_text())
    assert first["schema"] == "repro.bench.trajectory/1"
    assert [e["label"] for e in first["entries"]] == ["first"]
    head = first["entries"][0]
    assert head["benchmark"] == "mitigation.frontier"
    assert head["primary_metric"] == "margin_bits"
    assert head["metrics"]["margin_bits"] == pytest.approx(0.4)
    assert head["metrics"]["gate_ok"] is True
    assert head["metrics"]["ok"] is True
    assert "results" not in head
    append_entry(str(path), cell_entry("mitigation.frontier", summary,
                                       label="second"))
    second = json.loads(path.read_text())
    assert [e["label"] for e in second["entries"]] == \
        ["first", "second"]


def test_example_spec_loads_and_names_registered_runner():
    path = str(REPO_ROOT / "examples" / "mitigation_frontier.toml")
    if tomllib is None:
        with pytest.raises(CampaignError, match="Python 3.11"):
            CampaignSpec.from_file(path)
        return
    spec = CampaignSpec.from_file(path)
    assert spec.name == "mitigation-frontier"
    assert [s.runner for s in spec.sweeps] == ["mitigation_cell"]
    grid = spec.sweeps[0].grid
    assert set(grid["policy"]) == set(POLICY_NAMES)
    assert set(grid["attack"]) == set(ATTACK_NAMES)
