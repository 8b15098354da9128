"""Tests for the kernel benchmark harness and its ``kernel.scale<N>``
cell: the entry it produces, append-only trajectories, and the
``repro bench run`` regression gate."""

import json

import pytest

from repro.analysis.benchkernel import run_kernel_bench
from repro.bench import (TRAJECTORY_SCHEMA, append_entry, empty_trajectory,
                         load_trajectory, make_entry, run_benchmark,
                         write_trajectory)
from repro.cli import main

SMALL = {"duration": 0.2, "seed": 3, "repeats": 1}
SMALL_ARGS = ["--set", "duration=0.2", "--set", "seed=3",
              "--set", "repeats=1"]
CONFIG = {"tenants": 2, "duration": 0.2, "seed": 3, "request_rate": 30.0}


def small_bench(**kwargs):
    params = dict(tenants=2, duration=0.2, seed=3, repeats=2)
    params.update(kwargs)
    return run_kernel_bench(**params)


def baseline(tmp_path, eps, signature=None, config=CONFIG):
    """A one-entry kernel.scale2 trajectory file; returns its path."""
    doc = empty_trajectory()
    doc["entries"].append(make_entry(
        "kernel.scale2", dict(config), {"events_per_cpu_second": eps},
        primary_metric="events_per_cpu_second",
        egress_signature=signature, label="base"))
    path = str(tmp_path / "BENCH_kernel.json")
    write_trajectory(path, doc)
    return path


def bench_run(path, *extra):
    return main(["bench", "run", "--benchmark", "kernel.scale2",
                 *SMALL_ARGS, "--output", path, "--no-write", *extra])


class TestRunKernelBench:
    def test_small_cell_reports_all_fields(self):
        result = small_bench()
        assert result["benchmark"] == "kernel.scale2"
        assert result["deterministic"] is True
        assert result["events_per_cpu_second"] > 0
        assert result["events_fired"] > 0
        assert result["heap_high_water"] > 0
        assert len(result["runs"]) == 2
        # warm repeats are the same simulation: same DAG, same signature
        first, second = result["runs"]
        assert first["events_fired"] == second["events_fired"]
        assert first["egress_signature"] == second["egress_signature"]
        assert "repeats" not in result["config"]
        assert "profile" not in result

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            run_kernel_bench(repeats=0)

    def test_profiled_repeat_attaches_summary_same_signature(self):
        result = small_bench(repeats=1, profile=True)
        profile = result["profile"]
        assert profile["events"] > 0
        assert profile["subsystems"]
        # total attribution: subsystem seconds sum to the cell total
        assert sum(profile["subsystems"].values()) == pytest.approx(
            profile["total_seconds"], rel=1e-6)
        # run_kernel_bench itself asserts signature equality; reaching
        # here means the profiled repeat was byte-identical
        assert result["deterministic"] is True


class TestKernelEntry:
    def test_entry_shape(self):
        result = small_bench()
        made = run_benchmark("kernel.scale2", label="v1",
                             overrides=dict(SMALL, repeats=2))
        assert made["benchmark"] == "kernel.scale2"
        assert made["label"] == "v1"
        assert made["config"] == CONFIG == result["config"]
        assert made["primary_metric"] == "events_per_cpu_second"
        assert made["egress_signature"] == result["egress_signature"]
        assert made["metrics"]["events_fired"] == result["events_fired"]
        assert made["metrics"]["ok"] is True
        assert "profile" not in made


class TestRegressionGate:
    """``repro bench run`` gates the cell against a trajectory."""

    def test_within_tolerance_passes(self, tmp_path, capsys):
        assert bench_run(baseline(tmp_path, 1.0), "--gate") == 0
        out = capsys.readouterr().out
        assert "gate: PASS" in out and "vacuous" not in out

    def test_regression_beyond_tolerance_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            bench_run(baseline(tmp_path, 1e12))
        assert err.value.code == 1
        assert "regressed" in capsys.readouterr().out

    def test_config_mismatch_is_an_error_not_a_pass(self, tmp_path,
                                                     capsys):
        path = baseline(tmp_path, 1.0, config=dict(CONFIG, tenants=8))
        with pytest.raises(SystemExit) as err:
            bench_run(path, "--gate")
        assert err.value.code == 1
        assert "none found" in capsys.readouterr().out

    def test_signature_change_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            bench_run(baseline(tmp_path, 1.0, signature="b" * 64))
        assert err.value.code == 1
        assert "signature changed" in capsys.readouterr().out


class TestWriteBench:
    def test_append_only_trajectory(self, tmp_path):
        path = str(tmp_path / "BENCH_kernel.json")
        first = run_benchmark("kernel.scale2", label="v1", overrides=SMALL)
        append_entry(path, first)
        loaded = load_trajectory(path)
        assert loaded["schema"] == TRAJECTORY_SCHEMA
        assert [e["label"] for e in loaded["entries"]] == ["v1"]

        append_entry(path, run_benchmark("kernel.scale2", label="v2",
                                         overrides=SMALL))
        loaded = load_trajectory(path)
        assert [e["label"] for e in loaded["entries"]] == ["v1", "v2"]
        assert loaded["entries"][0]["metrics"]["events_per_cpu_second"] \
            == first["metrics"]["events_per_cpu_second"]
        # the file is well-formed JSON ending in a newline (atomic writer)
        raw = open(path, encoding="utf-8").read()
        assert raw.endswith("\n")
        json.loads(raw)

    def test_load_missing_returns_none(self, tmp_path):
        assert load_trajectory(str(tmp_path / "absent.json")) is None
