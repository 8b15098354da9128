"""End-to-end tests of the ``repro campaign`` CLI."""

import json
import os

import pytest

from repro.cli import main

SPEC_TOML = """
name = "cli-demo"
timeout = 30.0
seeds = [0, 1]

[[sweep]]
runner = "tests.campaign.runners:seeded_rows"
[sweep.grid]
x = [1.0, 2.0]
"""


@pytest.fixture
def spec_path(tmp_path):
    pytest.importorskip("tomllib")
    path = tmp_path / "demo.toml"
    path.write_text(SPEC_TOML)
    return str(path)


def _run(args, tmp_path, *extra):
    return main(["campaign", *args, "--state-dir",
                 str(tmp_path / "state"), *extra])


class TestRunResumeStatus:
    def test_full_cycle(self, spec_path, tmp_path, capsys):
        assert _run(["run", spec_path, "--jobs", "1"], tmp_path) == 0
        out = capsys.readouterr().out
        assert "4 cells, 4 executed, 0 cached" in out
        assert "cache hit rate" in out
        assert "Aggregate over seeds" in out

        state = tmp_path / "state" / "cli-demo"
        assert (state / "manifest.jsonl").exists()
        assert (state / "summary.txt").exists()
        assert (state / "aggregate.txt").exists()
        assert (state / "spec.json").exists()
        assert (state / "events.jsonl").exists()

        # resume executes nothing: 100% cache hits
        assert _run(["resume", spec_path, "--jobs", "1",
                     "--expect-all-cached"], tmp_path) == 0
        out = capsys.readouterr().out
        assert "0 executed, 4 cached" in out
        assert "100.0%" in out

        assert _run(["status", spec_path], tmp_path) == 0
        out = capsys.readouterr().out
        assert "4" in out
        assert "campaign is complete" in out

        assert _run(["aggregate", spec_path], tmp_path) == 0
        out = capsys.readouterr().out
        assert "aggregate over 4 cells" in out
        assert "p95" in out

    def test_aggregate_tables_byte_identical_across_runs(
            self, spec_path, tmp_path, capsys):
        _run(["run", spec_path, "--jobs", "1", "--quiet"], tmp_path)
        capsys.readouterr()
        state = tmp_path / "state" / "cli-demo"
        first = (state / "aggregate.txt").read_bytes()
        # re-run from scratch (no cache) into a fresh state dir
        assert main(["campaign", "run", spec_path, "--jobs", "1",
                     "--quiet", "--state-dir",
                     str(tmp_path / "state2")]) == 0
        capsys.readouterr()
        second = (tmp_path / "state2" / "cli-demo"
                  / "aggregate.txt").read_bytes()
        assert first == second

    def test_resume_without_state_errors(self, spec_path, tmp_path):
        with pytest.raises(SystemExit, match="no campaign state"):
            _run(["resume", spec_path], tmp_path)

    def test_expect_all_cached_fails_on_fresh_run(self, spec_path,
                                                  tmp_path, capsys):
        with pytest.raises(SystemExit, match="expect-all-cached"):
            _run(["run", spec_path, "--jobs", "1", "--quiet",
                  "--expect-all-cached"], tmp_path)

    def test_no_cache_executes_everything_again(self, spec_path,
                                                tmp_path, capsys):
        _run(["run", spec_path, "--jobs", "1", "--quiet"], tmp_path)
        capsys.readouterr()
        assert _run(["run", spec_path, "--jobs", "1", "--quiet",
                     "--no-cache"], tmp_path) == 0
        out = capsys.readouterr().out
        assert "4 executed, 0 cached" in out

    def test_failing_campaign_exits_nonzero(self, tmp_path, capsys):
        pytest.importorskip("tomllib")
        path = tmp_path / "bad.toml"
        path.write_text('name = "bad"\n'
                        '[[sweep]]\n'
                        'runner = "tests.campaign.runners:boom"\n')
        with pytest.raises(SystemExit):
            _run(["run", str(path), "--jobs", "1", "--quiet"], tmp_path)
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "boom" in out

    def test_status_before_any_run(self, spec_path, tmp_path, capsys):
        assert _run(["status", spec_path], tmp_path) == 0
        assert "no state" in capsys.readouterr().out

    def test_aggregate_without_results_errors(self, spec_path, tmp_path):
        os.makedirs(tmp_path / "state" / "cli-demo", exist_ok=True)
        with pytest.raises(SystemExit, match="no completed cells"):
            _run(["aggregate", spec_path], tmp_path)

    def test_bad_spec_path_errors(self, tmp_path, capsys):
        good = {"name": "bad", "seeds": [0], "sweep": [
            {"runner": "tests.campaign.runners:seeded_rows"}]}
        specs = {"missing.json": None,
                 "timeout.json": dict(good, timeout=-1),
                 "retries.json": dict(good, retries=1),
                 "no-sweep.json": dict(good, sweep=[])}
        for name, spec in specs.items():
            path = tmp_path / name
            if spec is not None:
                path.write_text(json.dumps(spec))
            for command in ("run", "resume", "status", "aggregate"):
                with pytest.raises(SystemExit) as exit_:
                    _run([command, str(path)], tmp_path)
                assert exit_.value.code == 2, (name, command)
                err = capsys.readouterr().err
                assert err.startswith(f"error: cannot load spec {path}: ")
                assert err.count("\n") == 1, err
        assert not (tmp_path / "state").exists()


class TestParserRegistration:
    def test_campaign_subcommands_registered(self):
        from repro.cli import build_parser
        parser = build_parser()
        for command in ("run", "resume", "status", "aggregate"):
            args = parser.parse_args(["campaign", command, "spec.toml"])
            assert callable(args.fn)
