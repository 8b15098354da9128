"""Tests for the campaign scheduler: parallelism, failure handling,
timeouts, crash blame, caching and resume."""

import os

import pytest

from repro.campaign import (CampaignExecutor, CampaignSpec, ResultCache,
                            SweepSpec, execute_cell, run_campaign)
from repro.campaign.spec import TaskCell

RUNNERS = "tests.campaign.runners"


def _spec(runner, name="t", seeds=(0,), **sweep_kwargs):
    return CampaignSpec(
        name=name, seeds=list(seeds), timeout=20.0,
        sweeps=[SweepSpec(f"{RUNNERS}:{runner}", **sweep_kwargs)])


class TestExecuteCell:
    def test_ok_cell_normalizes_rows(self):
        record = execute_cell({"runner": f"{RUNNERS}:add_rows",
                               "params": {"a": 1, "b": 2}, "seed": 0,
                               "timeout": None})
        assert record["status"] == "ok"
        assert record["value"] == [["sum", 3.0], ["product", 2]]
        assert record["duration"] >= 0

    def test_exception_becomes_failed_record(self):
        record = execute_cell({"runner": f"{RUNNERS}:boom",
                               "params": {}, "seed": 1, "timeout": None})
        assert record["status"] == "failed"
        assert "boom" in record["error"]
        assert "RuntimeError" in record["traceback"]

    def test_timeout_interrupts_the_cell(self):
        record = execute_cell({"runner": f"{RUNNERS}:sleepy",
                               "params": {"duration": 30.0}, "seed": 0,
                               "timeout": 0.2})
        assert record["status"] == "timeout"
        assert record["duration"] < 5.0


class TestInlineExecutor:
    def test_runs_all_cells_in_spec_order(self):
        spec = _spec("seeded_rows", seeds=[0, 1, 2],
                     grid={"x": [1.0, 2.0]})
        report = run_campaign(spec)
        assert len(report.results) == 6
        assert all(r.ok for r in report.results)
        assert report.executed == 6
        assert [r.cell.seed for r in report.results] == [0, 1, 2, 0, 1, 2]

    def test_failure_does_not_kill_campaign(self):
        spec = CampaignSpec(
            name="mix", seeds=[0], timeout=20.0,
            sweeps=[SweepSpec(f"{RUNNERS}:boom"),
                    SweepSpec(f"{RUNNERS}:add_rows")])
        report = run_campaign(spec)
        statuses = [r.status for r in report.results]
        assert statuses == ["failed", "ok"]
        assert len(report.failures) == 1
        assert report.metrics.counters["failed"] == 1

    def test_campaign_trace_categories(self):
        report = run_campaign(_spec("add_rows"))
        assert report.trace.count("campaign.task.start") == 1
        assert report.trace.count("campaign.task.done") == 1
        assert report.metrics.counters["executed"] == 1


class TestProcessPoolExecutor:
    def test_pool_runs_cells(self):
        spec = _spec("seeded_rows", seeds=[0, 1], grid={"x": [1.0, 2.0]})
        report = run_campaign(spec, jobs=2)
        assert len(report.results) == 4
        assert all(r.ok for r in report.results)

    def test_worker_crash_is_contained(self):
        spec = CampaignSpec(
            name="crashmix", seeds=[0], timeout=20.0,
            sweeps=[SweepSpec(f"{RUNNERS}:die"),
                    SweepSpec(f"{RUNNERS}:add_rows")])
        report = run_campaign(spec, jobs=2)
        by_runner = {r.cell.runner.split(":")[-1]: r
                     for r in report.results}
        assert by_runner["die"].status == "crashed"
        assert by_runner["add_rows"].ok

    def test_crash_is_charged_only_to_the_cell_that_dies_alone(self):
        # sleepy and die are in flight when die's worker breaks the
        # pool: each re-runs alone, and add_rows, still queued, runs on
        # a fresh pool -- five starts, one crash
        spec = CampaignSpec(
            name="blame", seeds=[0], timeout=20.0,
            sweeps=[SweepSpec(f"{RUNNERS}:sleepy",
                              params={"duration": 0.5}),
                    SweepSpec(f"{RUNNERS}:die"),
                    SweepSpec(f"{RUNNERS}:add_rows")])
        report = run_campaign(spec, jobs=2)
        assert [r.status for r in report.results] \
            == ["ok", "crashed", "ok"]
        assert report.trace.count("campaign.task.start") == 5

    def test_timeout_in_pool(self):
        spec = CampaignSpec(
            name="slow", seeds=[0], timeout=0.3,
            sweeps=[SweepSpec(f"{RUNNERS}:sleepy",
                              params={"duration": 30.0})])
        report = run_campaign(spec, jobs=2)
        assert report.results[0].status == "timeout"


class TestCacheIntegration:
    def test_second_run_is_all_hits(self, tmp_path):
        spec = _spec("seeded_rows", seeds=[0, 1], grid={"x": [1.0]})
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp")
        first = run_campaign(spec, cache=cache)
        assert first.executed == 2 and first.cache_hits == 0
        second = run_campaign(spec, cache=cache)
        assert second.executed == 0
        assert second.cache_hits == 2
        assert second.hit_rate == 1.0
        assert [r.value for r in second.results] \
            == [r.value for r in first.results]
        assert second.trace.count("campaign.cache.hit") == 2

    def test_resume_executes_only_missing_cells(self, tmp_path):
        spec = _spec("seeded_rows", seeds=[0, 1, 2], grid={"x": [1.0]})
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp")
        # simulate an interrupted run: only seed 1's cell completed
        done_cell = TaskCell(f"{RUNNERS}:seeded_rows", {"x": 1.0}, seed=1)
        record = execute_cell({"runner": done_cell.runner,
                               "params": done_cell.params, "seed": 1,
                               "timeout": None})
        cache.put(cache.key(done_cell), record)
        report = run_campaign(spec, cache=cache)
        assert report.cache_hits == 1
        assert report.executed == 2
        cached = [r.cell.seed for r in report.results if r.cached]
        assert cached == [1]

    def test_failed_records_are_reexecuted_on_resume(self, tmp_path):
        sentinel = str(tmp_path / "sentinel")
        spec = CampaignSpec(
            name="t", seeds=[0], timeout=20.0,
            sweeps=[SweepSpec(f"{RUNNERS}:flaky",
                              params={"sentinel": sentinel})])
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp")
        first = run_campaign(spec, cache=cache)
        assert first.results[0].status == "failed"
        second = run_campaign(spec, cache=cache)
        assert second.results[0].ok
        assert second.cache_hits == 0

    def test_profile_summary_persists_through_cache_and_manifest(
            self, tmp_path):
        from repro.ioutil import read_jsonl
        manifest = str(tmp_path / "manifest.jsonl")
        spec = _spec("profiled_rows", seeds=[3])
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp")
        first = CampaignExecutor(spec, cache,
                                 manifest_path=manifest).run()
        result = first.results[0]
        assert result.profile["subsystems"] == {"kernel": 0.3,
                                                "net": 0.2}
        assert result.profile["events"] == 13
        rows = list(read_jsonl(manifest))
        assert rows[0]["profile"]["subsystems"]["kernel"] == 0.3
        # the profile survives a cache hit on resume
        second = CampaignExecutor(spec, cache).run()
        assert second.results[0].cached
        assert second.results[0].profile == result.profile

    def test_manifest_is_appended(self, tmp_path):
        from repro.ioutil import read_jsonl
        manifest = str(tmp_path / "manifest.jsonl")
        spec = _spec("add_rows", seeds=[0, 1])
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp")
        CampaignExecutor(spec, cache, manifest_path=manifest).run()
        CampaignExecutor(spec, cache, manifest_path=manifest).run()
        rows = list(read_jsonl(manifest))
        assert len(rows) == 4
        assert [r["cached"] for r in rows] == [False, False, True, True]
