"""Tests for the command-line interface."""

import json

import pytest

from repro.bench.registry import lookup
from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("fig1", "fig4", "fig5", "fig6", "fig7", "fig8",
                        "placement", "offsets", "covert", "collab",
                        "trace", "metrics", "list"):
            args = parser.parse_args(
                [command] if command != "fig7" else ["fig7"])
            assert callable(args.fn)

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_size_list_parsing(self):
        args = build_parser().parse_args(["fig5", "--sizes", "10,20"])
        assert args.sizes == "10,20"

    def test_chaos_has_no_campaign_mode(self):
        # the storm runs only as `repro bench run --benchmark chaos.storm`
        for argv in (["chaos", "campaign"], ["chaos", "--seeds", "2"]):
            with pytest.raises(SystemExit) as exit_:
                build_parser().parse_args(argv)
            assert exit_.value.code == 2


def never_called(*args, **kwargs):
    raise AssertionError("the runner ran before the flags were checked")


class TestFlagChecks:
    def test_spans_validate_needs_perfetto(self, monkeypatch):
        monkeypatch.setattr("repro.analysis.observe.run_observed_workload",
                            never_called)
        with pytest.raises(SystemExit, match="--perfetto"):
            main(["spans", "--validate"])

    def test_scale_profile_out_needs_profile(self, monkeypatch, tmp_path):
        monkeypatch.setattr("repro.analysis.scale.run_scale_cell",
                            never_called)
        with pytest.raises(SystemExit, match="--profile"):
            main(["scale", "--tenants", "1",
                  "--profile-out", str(tmp_path / "p.json")])


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
        for command in commands:
            with pytest.raises(SystemExit) as exit_:
                build_parser().parse_args([command, "--help"])
            assert exit_.value.code == 0
        assert {"fig5_file_download", "kernel.scale<N>"} <= set(cells)
        for name in cells:
            assert callable(lookup(name)[0].resolve())

    def test_workloads_json(self, capsys):
        assert main(["workloads", "--json"]) == 0
        names = [spec["name"]
                 for spec in json.loads(capsys.readouterr().out)]
        assert "echo" in names and "storage" in names

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
        assert main(["trace", "--duration", "0.3", "--categories",
                     "vmm.deliver,ingress", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "vmm.deliver.net" in text
        assert "ingress.replicate" in text
        assert "vmm.emit" not in text          # filtered out
        assert out.exists() and out.read_text().count("\n") > 0

    def test_metrics_command_prints_percentiles(self, capsys):
        assert main(["metrics", "--duration", "0.3", "--profile",
                     "--top", "3"]) == 0
        text = capsys.readouterr().out
        assert "events_per_second" in text
        assert "delay.net" in text
        assert "p95" in text
        assert "Callback wall-time profile" in text
