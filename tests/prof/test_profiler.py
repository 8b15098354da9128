"""Subsystem attribution: mapping, accumulation, gap accounting."""

import math

import pytest

from repro.prof.profiler import (SubsystemProfiler, describe_callable,
                                 merge_summaries, subsystem_of)
from repro.sim.kernel import Simulator


class TestSubsystemOf:
    @pytest.mark.parametrize("module,expected", [
        ("repro.sim.kernel", "kernel"),
        ("repro.sim.events", "kernel"),
        ("repro.net.link", "net"),
        ("repro.net.pgm", "pgm"),
        ("repro.vmm.coordination", "vmm-coordination"),
        ("repro.vmm.hypervisor", "hypervisor"),
        ("repro.machine.dom0", "hypervisor"),
        ("repro.cloud.egress", "egress"),
        ("repro.cloud.ingress", "net"),
        ("repro.workloads.echo", "workloads"),
        ("repro.obs.flows", "obs"),
        ("repro.faults.injector", "faults"),
    ])
    def test_longest_prefix_wins(self, module, expected):
        assert subsystem_of(module) == expected

    def test_unknown_modules_land_in_other(self):
        assert subsystem_of("tests.prof.test_profiler") == "other"
        assert subsystem_of("json") == "other"
        assert subsystem_of(None) == "other"
        assert subsystem_of("") == "other"

    def test_prefix_match_is_segment_aware(self):
        # "repro.network" must not match the "repro.net" prefix
        assert subsystem_of("repro.network") == "other"


class TestDescribeCallable:
    def test_bound_methods_resolve_to_the_class_module(self):
        sim = Simulator()
        row = describe_callable(sim.stop)
        assert row["subsystem"] == "kernel"
        assert row["module"] == "repro.sim.kernel"
        assert "stop" in row["callback"]

    def test_partials_unwrap(self):
        from functools import partial

        def fn():
            pass

        row = describe_callable(partial(partial(fn)))
        assert row["callback"].endswith("fn")


class TestProfilerAccumulation:
    def test_record_groups_bound_methods_by_function(self):
        prof = SubsystemProfiler()

        class Widget:
            def tick(self):
                pass

        a, b = Widget(), Widget()
        prof.record(a.tick, 0.5, 0.0, 3)
        prof.record(b.tick, 0.25, 0.1, 7)
        assert prof.events == 2
        assert prof.attributed_seconds == pytest.approx(0.75)
        rows = prof.callback_rows()
        assert len(rows) == 1
        assert rows[0]["calls"] == 2
        assert rows[0]["seconds"] == pytest.approx(0.75)

    def test_timeline_buckets_by_sim_time(self):
        prof = SubsystemProfiler(timeline_width=0.1)
        prof.record(len, 0.01, 0.02, 5)
        prof.record(len, 0.02, 0.09, 9)
        prof.record(len, 0.04, 0.35, 2)
        buckets = prof.timeline_buckets(release_times=[0.05, 0.07, 0.31])
        assert [b["t"] for b in buckets] == [0.0, pytest.approx(0.3)]
        first, second = buckets
        assert first["events"] == 2
        assert first["queue_high_water"] == 9
        assert first["releases"] == 2
        assert second["events"] == 1
        assert second["releases"] == 1

    def test_bad_timeline_width_rejected(self):
        with pytest.raises(ValueError):
            SubsystemProfiler(timeline_width=0.0)


class TestSummaryTotals:
    def test_gap_accounting_sums_to_total(self):
        prof = SubsystemProfiler()
        sim = Simulator()
        prof.record(sim.stop, 0.4, 0.0, 1)        # kernel
        prof.record(sorted, 0.1, 0.0, 1)          # other
        summary = prof.summary(loop_seconds=0.7, total_seconds=1.0)
        subsystems = summary["subsystems"]
        # dispatch gap (0.7 - 0.5) charged to kernel, harness 0.3
        assert subsystems["kernel"] == pytest.approx(0.6)
        assert subsystems["other"] == pytest.approx(0.1)
        assert subsystems["harness"] == pytest.approx(0.3)
        assert math.fsum(subsystems.values()) == pytest.approx(1.0)
        assert summary["schema"] == "repro.prof/1"

    def test_summary_without_totals_has_no_synthetic_rows(self):
        prof = SubsystemProfiler()
        prof.record(sorted, 0.1, 0.0, 1)
        summary = prof.summary()
        assert "harness" not in summary["subsystems"]
        assert summary["dispatch_gap_seconds"] is None


class TestKernelIntegration:
    def run_cell(self, profile):
        sim = Simulator(seed=11, profile=profile)
        fired = []

        def work(i):
            fired.append((sim.now, i))

        for i in range(50):
            sim.call_after(0.01 * (i + 1), work, i)
        sim.run()
        return sim, fired

    def test_profiling_does_not_perturb_event_order(self):
        _, plain = self.run_cell(False)
        _, profiled = self.run_cell(True)
        assert plain == profiled

    def test_stats_report_callbacks_and_subsystems(self):
        sim, _ = self.run_cell(True)
        rows = sim.profiler.callback_rows()
        assert any("work" in row["callback"] for row in rows)
        # the test-module callback lands in "other"; the dispatch gap
        # puts "kernel" in the table too
        summary = sim.profiler.summary(loop_seconds=sim.wall_seconds)
        assert {"other", "kernel"} <= set(summary["subsystems"])
        assert sim.profiler.events == 50
        assert sum(row["calls"] for row in rows) == 50

    def test_profile_off_leaves_no_profiler(self):
        sim, _ = self.run_cell(False)
        assert sim.profiler is None
        assert "profile" not in sim.stats()


class TestMergeSummaries:
    def test_merges_subsystems_and_callbacks(self):
        a = SubsystemProfiler()
        b = SubsystemProfiler()
        a.record(sorted, 0.2, 0.0, 1)
        b.record(sorted, 0.3, 0.0, 1)
        merged = merge_summaries([
            a.summary(loop_seconds=0.2, total_seconds=0.5),
            b.summary(loop_seconds=0.3, total_seconds=0.5),
        ])
        assert merged["cells"] == 2
        assert merged["events"] == 2
        assert merged["total_seconds"] == pytest.approx(1.0)
        assert merged["subsystems"]["other"] == pytest.approx(0.5)
        (row,) = [r for r in merged["callbacks"]
                  if r["callback"] == "sorted"]
        assert row["calls"] == 2
        assert row["seconds"] == pytest.approx(0.5)

    def test_empty_and_none_summaries_are_skipped(self):
        merged = merge_summaries([None, {}])
        assert merged["cells"] == 0
        assert merged["total_seconds"] is None
