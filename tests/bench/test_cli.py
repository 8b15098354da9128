"""The cell table and the ``repro bench`` CLI round trip."""

import functools
import json
from pathlib import Path

import pytest

from repro.bench import (CELLS, Cell, UnknownBenchmark, bench_plan,
                         benchmark_names, compare_entry, default_path,
                         empty_trajectory, load_trajectory, make_entry,
                         run_benchmark, write_trajectory)
from repro.bench.registry import load
from repro.cli import main

RUN_SMALL = ["--set", "duration=0.2", "--set", "seed=3",
             "--set", "repeats=1"]


def broken_cell(seed=1):
    """A benchmark runner whose own gate fails."""
    return {"ok": False, "value": float(seed)}


def broken_metrics(result):
    return {"value": result["value"]}


class TestRegistry:
    def test_default_path_is_per_family(self):
        assert default_path("kernel.scale32") == "BENCH_kernel.json"
        assert default_path("chaos.storm") == "BENCH_chaos.json"
        assert default_path("mitigation.frontier") == \
            "BENCH_mitigation.json"

    def test_names_cover_registered_families(self):
        names = benchmark_names()
        assert "chaos.storm" in names
        assert "mitigation.frontier" in names
        assert "kernel.scale<N>" in names

    def test_unknown_benchmark_raises(self):
        with pytest.raises(UnknownBenchmark, match="kernel.scale"):
            run_benchmark("kernel.warp9")

    def test_kernel_scale_is_parameterised(self):
        entry = run_benchmark(
            "kernel.scale2", label="t",
            overrides={"duration": 0.2, "seed": 3, "repeats": 1})
        assert entry["schema"] == "repro.bench/1"
        assert entry["benchmark"] == "kernel.scale2"
        assert entry["config"]["tenants"] == 2
        assert "repeats" not in entry["config"]
        assert entry["primary_metric"] == "sim_seconds_per_cpu_second"
        assert entry["metrics"]["sim_seconds_per_cpu_second"] > 0
        assert entry["metrics"]["events_per_cpu_second"] > 0
        assert len(entry["egress_signature"]) == 64
        assert "profile" not in entry

    def test_campaign_runner_is_not_a_benchmark(self):
        with pytest.raises(UnknownBenchmark, match="campaign runner"):
            run_benchmark("fig1_median_cdfs")
        with pytest.raises(UnknownBenchmark, match="<N>"):
            run_benchmark("kernel.scale<N>")

    def test_kernel_config_matches_committed_entries(self):
        _, kwargs, config = bench_plan("kernel.scale32")
        assert config == {"tenants": 32, "duration": 2.0, "seed": 1,
                          "request_rate": 30.0}
        assert kwargs["repeats"] == 2
        path = Path(__file__).resolve().parents[2] / "BENCH_kernel.json"
        committed = load_trajectory(str(path))["entries"]
        assert all(e["config"] == config for e in committed)

    def test_seed_base_is_part_of_the_config(self):
        _, kwargs, config = bench_plan("chaos.storm")
        _, _, other = bench_plan("chaos.storm", {"seed_base": 102})
        assert config["seed_base"] == 101 and other["seed_base"] == 102
        assert "jobs" not in config
        assert "seed_base" not in kwargs and len(kwargs["seeds"]) == 2

        def made(cfg):
            return make_entry("chaos.storm", cfg, {"replies": 10},
                              primary_metric="replies")
        history = empty_trajectory()
        history["entries"].append(made(config))
        assert compare_entry(made(other), history)["comparable"] == 0
        assert compare_entry(made(config), history)["comparable"] == 1

    def test_mitigation_config_records_the_workload(self):
        _, kwargs, config = bench_plan("mitigation.frontier",
                                       {"policies": "none,stopwatch"})
        assert config["policies"] == ["none", "stopwatch"]
        assert kwargs["policies"] == ("none", "stopwatch")
        assert {"seed_base", "bins", "workload"} <= set(config)

    def test_profiled_run_attaches_summary(self):
        entry = run_benchmark(
            "kernel.scale2", profile=True,
            overrides={"duration": 0.2, "seed": 3, "repeats": 1})
        profile = entry["profile"]
        assert profile["subsystems"]
        assert sum(profile["subsystems"].values()) == pytest.approx(
            profile["total_seconds"], rel=1e-6)


def run_cli(*argv):
    return main(list(argv))


class FixedStepClock:
    """Stands in for the ``time`` module: every ``process_time()`` read
    advances one fixed step, so every timed repeat reads the same CPU
    and a gate between two runs never depends on host noise."""

    def __init__(self, step=0.125):
        self.step = step
        self.now = 0.0

    def process_time(self):
        self.now += self.step
        return self.now


class TestBenchRunCommand:
    def test_round_trip_appends_and_gates(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr("repro.analysis.benchkernel.time",
                            FixedStepClock())
        path = str(tmp_path / "BENCH_kernel.json")
        assert run_cli("bench", "run", "--benchmark", "kernel.scale2",
                       *RUN_SMALL, "--output", path,
                       "--label", "first") == 0
        out = capsys.readouterr().out
        assert "sim_seconds_per_cpu_second=" in out
        assert "PASS (vacuous)" in out
        assert run_cli("bench", "run", "--benchmark", "kernel.scale2",
                       *RUN_SMALL, "--output", path,
                       "--label", "second") == 0
        out = capsys.readouterr().out
        assert "gate: PASS" in out and "vacuous" not in out
        doc = json.loads(open(path, encoding="utf-8").read())
        assert doc["schema"] == "repro.bench.trajectory/1"
        assert [e["label"] for e in doc["entries"]] == \
            ["first", "second"]

    def test_no_write_leaves_no_file(self, tmp_path, capsys):
        path = tmp_path / "BENCH_kernel.json"
        run_cli("bench", "run", "--benchmark", "kernel.scale2",
                *RUN_SMALL, "--output", str(path), "--no-write")
        assert not path.exists()

    def test_gate_flag_fails_without_history(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("bench", "run", "--benchmark", "kernel.scale2",
                    *RUN_SMALL, "--output",
                    str(tmp_path / "b.json"), "--gate")
        assert err.value.code == 1
        assert "none found" in capsys.readouterr().out

    def test_profile_out_requires_profile(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="--profile"):
            run_cli("bench", "run", "--benchmark", "kernel.scale2",
                    *RUN_SMALL, "--output", str(tmp_path / "b.json"),
                    "--profile-out", str(tmp_path / "p.json"))

    @pytest.mark.parametrize("name, runner, flags", [
        ("kernel.scale2", "repro.analysis.benchkernel:run_kernel_bench",
         ()),
        # the frontier runner takes no profile at all
        ("mitigation.frontier",
         "repro.analysis.mitigation:mitigation_frontier", ("--profile",)),
    ])
    def test_profile_out_rejected_before_running(self, tmp_path,
                                                 monkeypatch, name,
                                                 runner, flags):
        @functools.wraps(load(runner))      # keeps the real signature
        def never_called(*args, **kwargs):
            raise AssertionError("the runner ran before the flags were "
                                 "checked")

        monkeypatch.setattr(runner.replace(":", "."), never_called)
        path = tmp_path / "b.json"
        with pytest.raises(SystemExit, match="--profile"):
            run_cli("bench", "run", "--benchmark", name, *flags,
                    "--output", str(path),
                    "--profile-out", str(tmp_path / "p.json"))
        assert not path.exists()

    def test_profile_out_writes_valid_speedscope(self, tmp_path, capsys):
        from repro.prof.export import validate_speedscope_file
        prof = tmp_path / "profile.speedscope.json"
        run_cli("bench", "run", "--benchmark", "kernel.scale2",
                *RUN_SMALL, "--output", str(tmp_path / "b.json"),
                "--profile", "--profile-out", str(prof))
        assert validate_speedscope_file(str(prof)) == []

    def test_json_mode_emits_entry_and_gate(self, tmp_path, capsys):
        run_cli("bench", "run", "--benchmark", "kernel.scale2",
                *RUN_SMALL, "--output", str(tmp_path / "b.json"),
                "--json")
        doc = json.loads(capsys.readouterr().out)
        assert doc["entry"]["benchmark"] == "kernel.scale2"
        assert doc["gate"]["ok"] is True

    def test_malformed_set_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="key=value"):
            run_cli("bench", "run", "--benchmark", "kernel.scale2",
                    "--set", "duration", "--output",
                    str(tmp_path / "b.json"))

    def test_failed_cell_gate_exits_nonzero(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setitem(CELLS, "demo.broken", Cell(
            f"{__name__}:broken_cell", params={"seed": 1},
            metrics=f"{__name__}:broken_metrics", primary="value"))
        path = tmp_path / "BENCH_demo.json"
        with pytest.raises(SystemExit) as err:
            run_cli("bench", "run", "--benchmark", "demo.broken",
                    "--output", str(path))
        assert err.value.code == 1
        assert "cell gate: FAIL" in capsys.readouterr().out
        entry = json.loads(path.read_text())["entries"][0]
        assert entry["metrics"]["ok"] is False
        assert entry["config"] == {"seed": 1}

    def test_tolerance_outside_unit_interval_rejected(self, tmp_path,
                                                      capsys):
        for command in ("run", "compare"):
            for value in ("2.0", "-0.5"):
                with pytest.raises(SystemExit) as err:
                    run_cli("bench", command, "--benchmark",
                            "kernel.scale2", "--tolerance", value)
                assert err.value.code == 2
        assert "tolerance must be in [0, 1)" in capsys.readouterr().err


def no_write_run(name, *sets, flags=()):
    argv = ["bench", "run", "--benchmark", name, "--no-write", *flags]
    for item in sets:
        argv += ["--set", item]
    return run_cli(*argv)


STORM_SMALL = ("seeds=1", "scenarios=single", "duration=3.0")
REPAIR_SMALL = ("duration=4.5", "crash_at=1.0", "check_determinism=false")


class TestCellReports:
    """``bench run`` prints a gated cell's report before its headline."""

    def test_frontier_table_and_gate(self, capsys):
        assert no_write_run("mitigation.frontier", "policies=stopwatch,none",
                            "attacks=probe", "duration=2.0") == 0
        out = capsys.readouterr().out
        assert "policy     attack  MI (bits)  capacity  overhead" in out
        rows = [line.split()[:2] for line in out.splitlines()]
        assert ["none", "probe"] in rows and ["stopwatch", "probe"] in rows
        assert "Gate (probe): PASS -- none=" in out
        assert out.index("Gate (probe)") < \
            out.index("mitigation.frontier [head]")

    def test_storage_repair_lines(self, capsys):
        assert no_write_run("storage.repair", *REPAIR_SMALL) == 0
        out = capsys.readouterr().out
        assert "Storage repair cell: 2-of-3 over 3 x 8192 B objects" in out
        assert "  repair: 1/1 completed" in out
        assert "  shares: min 3/3 live per object, digests verified" in out

    def test_chaos_invariants_and_progress(self, capsys):
        assert no_write_run("chaos.storm", *STORM_SMALL) == 0
        out = capsys.readouterr().out
        assert out.startswith("[1/1] chaos_cell(")
        assert "Service: " in out
        assert "Invariants: PASS -- placement, liveness and hygiene held " \
               "in all 1 cells; all signatures replayed byte-identical" in out

    @pytest.mark.parametrize("name, sets, printed", [
        ("chaos.storm", STORM_SMALL,
         ["Invariants: FAIL -- 1 violations:", " single: injected"]),
        ("storage.repair", REPAIR_SMALL, ["  violation: injected"]),
        ("mitigation.frontier", ("attacks=bogus",),
         ["Gate: skipped", "  cell failed: mitigation_cell(",
          "unknown attack 'bogus'"]),
    ])
    def test_failed_gate_prints_every_violation(self, capsys, monkeypatch,
                                                name, sets, printed):
        monkeypatch.setattr("repro.faults.invariants.check_all",
                            lambda *args, **kwargs: ["injected"])
        with pytest.raises(SystemExit) as err:
            no_write_run(name, *sets)
        assert err.value.code == 1
        out = capsys.readouterr().out
        for line in printed + [f"cell gate: FAIL ({name} reported"]:
            assert line in out

    def test_json_carries_the_raw_result(self, capsys):
        # the storm's runner takes progress; --json keeps it off, so
        # stdout is one JSON document
        assert no_write_run("chaos.storm", *STORM_SMALL,
                            flags=["--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"]["cells"] == doc["entry"]["metrics"]["cells"]
        assert doc["result"]["results"][0]["scenario"] == "single"


def kernel_entry(eps, label, signature="a" * 64):
    return make_entry("kernel.scale32", {"tenants": 32},
                      {"events_per_cpu_second": eps},
                      primary_metric="events_per_cpu_second",
                      egress_signature=signature, label=label)


class TestBenchCompareCommand:
    def write(self, tmp_path, *entries):
        doc = empty_trajectory()
        doc["entries"].extend(entries)
        path = str(tmp_path / "BENCH_kernel.json")
        write_trajectory(path, doc)
        return path

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        path = self.write(tmp_path,
                          kernel_entry(100_000.0, "good"),
                          kernel_entry(70_000.0, "regressed"))
        with pytest.raises(SystemExit) as err:
            run_cli("bench", "compare", "--path", path)
        assert err.value.code == 1
        assert "regressed" in capsys.readouterr().out

    def test_healthy_trajectory_passes(self, tmp_path, capsys):
        path = self.write(tmp_path,
                          kernel_entry(100_000.0, "good"),
                          kernel_entry(95_000.0, "head"))
        assert run_cli("bench", "compare", "--path", path) == 0
        assert "gate: PASS" in capsys.readouterr().out

    def test_signature_change_exits_nonzero(self, tmp_path, capsys):
        path = self.write(
            tmp_path, kernel_entry(100_000.0, "good"),
            kernel_entry(100_000.0, "head", signature="b" * 64))
        with pytest.raises(SystemExit) as err:
            run_cli("bench", "compare", "--path", path)
        assert err.value.code == 1
        assert "signature changed" in capsys.readouterr().out

    def test_single_entry_is_vacuous_unless_gated(self, tmp_path,
                                                  capsys):
        path = self.write(tmp_path, kernel_entry(100_000.0, "only"))
        assert run_cli("bench", "compare", "--path", path) == 0
        with pytest.raises(SystemExit):
            run_cli("bench", "compare", "--path", path, "--gate")

    def test_benchmark_filter_selects_last_matching(self, tmp_path,
                                                    capsys):
        other = make_entry("kernel.scale8", {"tenants": 8},
                           {"events_per_cpu_second": 1.0},
                           primary_metric="events_per_cpu_second",
                           label="noise")
        path = self.write(tmp_path, kernel_entry(100_000.0, "good"),
                          kernel_entry(95_000.0, "head"), other)
        assert run_cli("bench", "compare", "--path", path,
                       "--benchmark", "kernel.scale32") == 0
        out = capsys.readouterr().out
        assert "[head]" in out

    def test_missing_trajectory_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no trajectory"):
            run_cli("bench", "compare", "--path",
                    str(tmp_path / "absent.json"))


class TestBenchHistoryAndMigrate:
    def test_history_lists_entries(self, tmp_path, capsys):
        doc = empty_trajectory()
        doc["entries"] = [kernel_entry(100_000.0, "good"),
                          kernel_entry(95_000.0, "head")]
        path = str(tmp_path / "t.json")
        write_trajectory(path, doc)
        run_cli("bench", "history", "--path", path)
        out = capsys.readouterr().out
        assert "2 entries" in out
        assert "good" in out and "head" in out

    def test_list_names_benchmarks(self, capsys):
        run_cli("bench", "list")
        out = capsys.readouterr().out
        assert "kernel.scale<N>" in out
        assert "BENCH_kernel.json" in out
