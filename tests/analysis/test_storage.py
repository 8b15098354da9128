"""Tests for the storage-repair cell runner and its bench plumbing."""

import json

import pytest

from repro.analysis.storage import run_storage_repair_cell
from repro.bench import append_entry, cell_entry


@pytest.fixture(scope="module")
def cell():
    # one gated cell shared by the assertions below; the runner itself
    # performs the same-seed determinism replay internally
    return run_storage_repair_cell(seed=7, duration=4.5, crash_at=1.0,
                                   check_determinism=True)


class TestRepairCell:
    def test_cell_passes_all_gates(self, cell):
        assert cell["ok"] is True
        assert cell["violations"] == []

    def test_repair_ran_and_restored_n_shares(self, cell):
        assert cell["repairs_completed"] >= 1
        assert cell["repaired_bytes"] > 0
        assert cell["min_live_shares"] == cell["n"]
        assert cell["shares_verified"] is True

    def test_same_seed_repair_trace_is_deterministic(self, cell):
        assert cell["deterministic"] is True
        assert cell["divergence"] is None
        assert cell["signature_records"] > 0

    def test_primary_metric_consistent(self, cell):
        assert cell["repaired_bytes_per_sim_s"] == pytest.approx(
            cell["repaired_bytes"] / cell["duration"])

    def test_result_is_plain_data(self, cell):
        json.dumps(cell)     # campaign workers must be able to cache it

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            run_storage_repair_cell(k=4, n=3)
        with pytest.raises(ValueError):
            run_storage_repair_cell(duration=2.0, crash_at=1.0)


class TestBenchPlumbing:
    def test_entry_shape(self, cell):
        entry = cell_entry("storage.repair", cell, label="t",
                           config={"k": cell["k"], "n": cell["n"]})
        assert entry["benchmark"] == "storage.repair"
        assert entry["primary_metric"] == "repaired_bytes_per_sim_s"
        assert entry["label"] == "t"
        assert entry["metrics"]["ok"] is True
        assert entry["metrics"]["repaired_bytes"] == \
            cell["repaired_bytes"]

    def test_write_appends_trajectory(self, cell, tmp_path):
        path = str(tmp_path / "BENCH_storage.json")
        append_entry(path, cell_entry("storage.repair", cell, label="a"))
        append_entry(path, cell_entry("storage.repair", cell, label="b"))
        with open(path) as handle:
            data = json.load(handle)
        assert [entry["label"] for entry in data["entries"]] == ["a", "b"]

    def test_registered_as_campaign_runner(self):
        from repro.campaign import resolve_runner

        assert resolve_runner("storage_repair") is run_storage_repair_cell

    def test_registered_as_benchmark(self):
        from repro.bench.registry import benchmark_names, default_path

        assert "storage.repair" in benchmark_names()
        assert default_path("storage.repair") == "BENCH_storage.json"
