"""Tests for the command-line interface."""

import json

import pytest

from repro.bench.registry import lookup
from repro.cli import build_parser, main

#: the commands `repro observe` replaced
FOLDED_INTO_OBSERVE = ("offsets", "trace", "metrics", "spans", "flows")


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("fig1", "fig4", "fig5", "fig6", "fig7", "fig8",
                        "placement", "observe", "covert", "collab",
                        "list"):
            args = parser.parse_args(
                [command] if command != "fig7" else ["fig7"])
            assert callable(args.fn)

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_size_list_parsing(self):
        args = build_parser().parse_args(["fig5", "--sizes", "10,20"])
        assert args.sizes == [10, 20]

    def test_kernel_list_parsing(self):
        args = build_parser().parse_args(["fig7", "--kernels",
                                          "ferret,dedup"])
        assert args.kernels == ["ferret", "dedup"]

    @pytest.mark.parametrize("argv,option", [
        (["fig5", "--sizes", "abc"], "--sizes"),
        (["scale", "--tenants", "x"], "--tenants"),
        (["fig6", "--rates", ","], "--rates"),
        (["fig4", "--duration", "0"], "--duration"),
        (["fig6", "--duration", "-2"], "--duration"),
        (["collab", "--duration", "nan"], "--duration"),
        (["observe", "--duration", "-1"], "--duration"),
        (["chaos", "--duration", "inf"], "--duration"),
        (["scale", "--duration", "0"], "--duration"),
        (["fig7", "--scale", "0"], "--scale"),
        (["fig7", "--kernels", "ferret,bogus"], "--kernels"),
        (["fig5", "--sizes", "0"], "--sizes"),
        (["fig6", "--rates", "25,-5"], "--rates"),
        (["scale", "--tenants", "0"], "--tenants"),
        (["fig1", "--victim-rate", "nan"], "--victim-rate"),
        (["fig8", "--victim-rate", "0"], "--victim-rate"),
        (["scale", "--rate", "-5"], "--rate"),
        (["covert", "--bits", "0"], "--bits"),
        (["chaos", "--crash-at", "nan", "--duration", "1"], "--crash-at"),
        (["chaos", "--crash-at", "-1"], "--crash-at"),
        (["chaos", "--replica", "9"], "--replica"),
        (["campaign", "run", "spec.toml", "--timeout", "-1"], "--timeout"),
        (["campaign", "run", "spec.toml", "--timeout", "0"], "--timeout"),
        (["campaign", "run", "spec.toml", "--timeout", "nan"], "--timeout"),
        (["campaign", "resume", "spec.toml", "--timeout", "inf"],
         "--timeout"),
        (["observe", "--flow", "echo"], "--flow"),
        (["observe", "--flow", "echo/x"], "--flow"),
        (["observe", "--flow", "/3"], "--flow"),
    ])
    def test_bad_numbers_exit_2_naming_the_option(self, argv, option,
                                                  capsys):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(argv)
        assert exit_.value.code == 2
        assert f"argument {option}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", FOLDED_INTO_OBSERVE)
    def test_folded_commands_are_unknown(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args([command])
        assert exit_.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_observe_has_nine_options(self):
        parser = build_parser()
        (sub,) = [action for action in parser._actions
                  if action.dest == "command"]
        options = {option for action in sub.choices["observe"]._actions
                   for option in action.option_strings} - {"-h", "--help"}
        assert options == {"--duration", "--seed", "--categories", "--cap",
                           "--out", "--perfetto", "--profile", "--flow",
                           "--top"}

    def test_chaos_has_no_campaign_mode(self):
        # the storm runs only as `repro bench run --benchmark chaos.storm`
        for argv in (["chaos", "campaign"], ["chaos", "--seeds", "2"]):
            with pytest.raises(SystemExit) as exit_:
                build_parser().parse_args(argv)
            assert exit_.value.code == 2


def never_called(*args, **kwargs):
    raise AssertionError("the runner ran before the flags were checked")


class TestFlagChecks:
    def test_observe_perfetto_exits_1_on_a_validation_problem(
            self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr("repro.obs.validate_file",
                            lambda path: ["no critical path in " + path])
        out = tmp_path / "spans.json"
        with pytest.raises(SystemExit) as exit_:
            main(["observe", "--duration", "0.3", "--perfetto", str(out)])
        assert exit_.value.code == 1
        text = capsys.readouterr().out
        assert "Validation FAILED" in text
        assert f"no critical path in {out}" in text

    def test_chaos_restart_before_the_crash_exits_2(self, monkeypatch,
                                                    capsys):
        # the fault schedule owns the order rule; the command names the flag
        monkeypatch.setattr("repro.analysis.chaos.run_chaos_experiment",
                            never_called)
        with pytest.raises(SystemExit) as exit_:
            main(["chaos", "--crash-at", "2.5", "--restart-at", "1"])
        assert exit_.value.code == 2
        assert capsys.readouterr().err.startswith(
            "error: argument --restart-at: restart_replica at t=1.0")

    @pytest.mark.parametrize("argv", [
        ["--machines", "2"],
        ["--workload", "bogus"],
        ["--workload-param", "bogus=1"],
        ["--workload-param", "bogus"],
        ["--workload", "storage", "--tenants", "2"],
        ["--spec", "missing.toml"],
    ], ids=["machines", "workload", "workload-param", "workload-param-pair",
            "storage-count", "spec-file"])
    def test_scale_bad_scenario_exits_2(self, argv, monkeypatch, tmp_path,
                                        capsys):
        # the spec refuses it before any cell runs: one line, no traceback
        monkeypatch.setattr("repro.analysis.scale.run_scale_cell",
                            never_called)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(["scale", *argv])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_scale_profile_out_needs_profile(self, monkeypatch, tmp_path,
                                             capsys):
        monkeypatch.setattr("repro.analysis.scale.run_scale_cell",
                            never_called)
        with pytest.raises(SystemExit) as exit_:
            main(["scale", "--tenants", "1",
                  "--profile-out", str(tmp_path / "p.json")])
        assert exit_.value.code == 2
        assert capsys.readouterr().err == \
            "error: --profile-out requires --profile\n"


class TestExecution:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        assert "fig5" in capsys.readouterr().out

    def test_every_listed_name_resolves(self, capsys):
        assert main(["list"]) == 0
        commands, cells = [line.split(": ", 1)[1].split() for line
                           in capsys.readouterr().out.splitlines()]
        assert {"fig5", "bench", "campaign", "list"} <= set(commands)
        assert not {"bench-kernel", "mitigate", "storage"} & set(commands)
        assert "observe" in commands
        assert not set(FOLDED_INTO_OBSERVE) & set(commands)
        for command in commands:
            with pytest.raises(SystemExit) as exit_:
                build_parser().parse_args([command, "--help"])
            assert exit_.value.code == 0
        assert {"fig5_file_download", "kernel.scale<N>"} <= set(cells)
        for name in cells:
            assert callable(lookup(name)[0].resolve())

    def test_workloads_json(self, capsys):
        assert main(["workloads", "--json"]) == 0
        specs = {spec["name"]: spec
                 for spec in json.loads(capsys.readouterr().out)}
        assert "echo" in specs and "storage" in specs
        for spec in specs.values():
            assert set(spec["profile"]) == {"cpu", "disk", "net"}

        def heaviest(name):
            profile = specs[name]["profile"]
            return max(profile, key=profile.get)

        assert heaviest("storage") == "disk"
        assert heaviest("parsec.ferret") == "cpu"

    def test_storage_json(self, capsys):
        assert main(["bench", "run", "--benchmark", "storage.repair",
                     "--no-write", "--json", "--set", "duration=4.5",
                     "--set", "crash_at=1.0",
                     "--set", "check_determinism=false"]) == 0
        doc = json.loads(capsys.readouterr().out)
        metrics = doc["entry"]["metrics"]
        assert metrics["ok"] is True and metrics["repairs_completed"] >= 1
        assert doc["result"]["repairs_completed"] == \
            metrics["repairs_completed"]

    def test_fig1_prints_table(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "w/o StopWatch" in out
        assert "0.99" in out

    def test_placement_prints_table(self, capsys):
        assert main(["placement"]) == 0
        assert "StopWatch VMs" in capsys.readouterr().out

    def test_fig8_prints_tables(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "noise" in out
        assert "Protection-cost scaling" in out

    def test_fig5_small_run(self, capsys):
        assert main(["fig5", "--sizes", "5000"]) == 0
        assert "HTTP" in capsys.readouterr().out

    def test_trace_command_summarizes_and_exports(self, capsys, tmp_path):
        out = tmp_path / "run.jsonl"
        assert main(["observe", "--duration", "0.3", "--categories",
                     "vmm.deliver,ingress", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "vmm.deliver.net" in text
        assert "ingress.replicate" in text
        assert "vmm.emit" not in text          # filtered out
        assert out.exists() and out.read_text().count("\n") > 0

    def test_metrics_command_prints_percentiles(self, capsys):
        assert main(["observe", "--duration", "0.3", "--profile",
                     "--top", "3"]) == 0
        text = capsys.readouterr().out
        assert "events_per_second" in text
        assert "delta_n" in text
        assert "p95" in text
        assert "Hottest callbacks" in text

    def test_observe_runs_the_cloud_once(self, capsys, monkeypatch):
        from repro.analysis import observe
        calls = []
        run = observe.run_observed_workload

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return run(*args, **kwargs)

        monkeypatch.setattr(observe, "run_observed_workload", counting)
        assert main(["observe", "--duration", "0.3", "--flow",
                     "echo/1"]) == 0
        assert len(calls) == 1 and calls[0]["flows"] is True
        text = capsys.readouterr().out
        for heading in ("Trace:", "Event loop:", "Sec. VII-A", "Spans:",
                        "Flows:", "Flow echo/1:"):
            assert heading in text

    def test_observe_unknown_flow_exits_2_with_id_hint(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["observe", "--duration", "0.3", "--flow", "no/999"])
        assert exit_.value.code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: unknown flow 'no/999'")
        assert "echo/3" in line
