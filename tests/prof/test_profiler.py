"""Sampled attribution: the layer map, the sampler, merging."""

import contextlib
import importlib.util
import math
import os
import pathlib
import signal
import subprocess
import sys
import types

import pytest

import repro
from repro.prof.profiler import (PROFILE_SCHEMA, Sampler, _where,
                                 layer_of, merge_summaries)
from repro.sim.kernel import Simulator
from tests.prof.synthetic import synthetic

ROOT = pathlib.Path(__file__).resolve().parents[2]


def sampled_summary(*calls, release_times=()):
    """Run ``(time, fn)`` events under a sampler; its summary."""
    sim = Simulator()
    for when, fn in calls:
        sim.call_at(when, fn)
    with Sampler(sim) as sampler:
        sim.run()
    return sampler.summary(release_times=release_times)


class TestSubsystemOf:
    """A module's subsystem is its layer: the longest prefix wins."""

    @pytest.mark.parametrize("module,expected", [
        ("repro.sim.kernel", "sim"),
        ("repro.sim.events", "sim"),
        ("repro.net.link", "net"),
        ("repro.net.pgm", "net.pgm"),
        ("repro.net.tcp", "net.tcp"),
        ("repro.vmm.coordination", "vmm.coordination"),
        ("repro.vmm.hypervisor", "vmm.hypervisor"),
        ("repro.vmm.replay", "vmm.hypervisor"),
        ("repro.machine.dom0", "machine"),
        ("repro.machine.fs.journal", "machine.fs"),
        ("repro.cloud.egress", "cloud.egress"),
        ("repro.cloud.ingress", "cloud.ingress"),
        ("repro.cloud.fabric", "cloud"),
        ("repro.workloads.echo", "workloads"),
        ("repro.obs.flows", "obs"),
        ("repro.faults.injector", "other"),
    ])
    def test_longest_prefix_wins(self, module, expected):
        assert layer_of(module) == expected

    def test_unknown_modules_land_in_other(self):
        assert layer_of("tests.prof.test_profiler") == "other"
        assert layer_of("json") == "other"
        assert layer_of(None) == "other"
        assert layer_of("") == "other"

    def test_prefix_match_is_segment_aware(self):
        # "repro.network" must not match the "repro.net" prefix
        assert layer_of("repro.network") == "other"

    def test_every_module_lands_where_the_benchmark_puts_it(self):
        spec = importlib.util.spec_from_file_location(
            "perf_layers", ROOT / "perf" / "layers.py")
        perf_layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(perf_layers)
        src = str(ROOT / "src")
        modules = [perf_layers.module_of(str(path), src)
                   for path in (ROOT / "src" / "repro").rglob("*.py")]
        assert len(modules) > 100
        assert {module: layer_of(module) for module in modules} \
            == {module: perf_layers.layer_of(module) for module in modules}

    def test_labels_fall_back_to_the_bare_name_before_3_11(self):
        # Python 3.10's code objects have no co_qualname
        frame = types.SimpleNamespace(
            f_code=types.SimpleNamespace(co_name="tick"),
            f_globals={"__name__": "repro.sim.kernel"})
        assert _where(frame) == ("repro.sim.kernel", "tick")
        module, function = _where(sys._getframe())
        assert module == __name__
        assert function.endswith("test_labels_fall_back_to_the_bare_"
                                 "name_before_3_11")


class TestProfilerAccumulation:
    def test_record_groups_bound_methods_by_function(self):
        class Widget:
            def tick(self):
                signal.raise_signal(signal.SIGPROF)

        a, b = Widget(), Widget()
        summary = sampled_summary((0.1, a.tick), (0.2, b.tick),
                                  (0.3, a.tick))
        assert summary["samples"] == 3
        (row,) = summary["callbacks"]
        assert row["callback"].endswith("tick")
        assert row["module"] == __name__
        assert row["subsystem"] == "other"
        assert row["samples"] == 3
        assert row["seconds"] == pytest.approx(summary["total_seconds"])

    def test_timeline_buckets_by_sim_time(self):
        sample = synthetic("repro.sim.synthetic")["sample"]
        summary = sampled_summary((0.01, sample), (0.04, sample),
                                  (0.32, sample),
                                  release_times=[0.02, 0.33, 0.47])
        timeline = summary["timeline"]
        assert timeline["bucket_width"] == 0.05
        buckets = timeline["buckets"]
        assert [b["t"] for b in buckets] == pytest.approx([0.0, 0.3, 0.45])
        assert [b["samples"] for b in buckets] == [2, 1, 0]
        assert [b["releases"] for b in buckets] == [1, 1, 1]
        assert math.fsum(b["seconds"] for b in buckets) \
            == pytest.approx(summary["total_seconds"])


class TestSummaryTotals:
    def test_a_known_split_is_recovered(self):
        """3:1 CPU between a net and a sim function reads 75/25."""
        net = synthetic("repro.net.synthetic")["burn"]
        kernel = synthetic("repro.sim.synthetic")["burn"]
        sim = Simulator()
        for i in range(20):
            sim.call_at(0.1 * i, net, 0.0225)
            sim.call_at(0.1 * i, kernel, 0.0075)
        with Sampler(sim) as sampler:
            sim.run()
        summary = sampler.summary()
        total = summary["total_seconds"]
        assert total >= 0.6
        assert summary["events"] == 40
        assert summary["samples"] > 0
        for layer, share in (("net", 0.75), ("sim", 0.25)):
            measured = summary["subsystems"][layer] / total
            error = summary["share_errors"][layer]
            assert abs(measured - share) <= max(0.1, 4 * error), \
                (layer, measured, error, summary["samples"])

    def test_layers_sum_to_the_block_cpu(self):
        summary = sampled_summary(
            (0.1, synthetic("repro.net.synthetic")["sample"]),
            (0.2, synthetic("repro.obs.synthetic")["sample"]),
            (0.3, synthetic("repro.obs.synthetic")["sample"]))
        subsystems = summary["subsystems"]
        assert list(subsystems) == ["obs", "net"]
        assert subsystems["obs"] == pytest.approx(
            2 * subsystems["net"])
        assert math.fsum(subsystems.values()) \
            == pytest.approx(summary["total_seconds"])
        # a 2-of-3 share: sqrt(2/3 * 1/3 / 3)
        assert summary["share_errors"]["obs"] == pytest.approx(
            math.sqrt(2 / 27))
        assert summary["schema"] == PROFILE_SCHEMA

    def test_a_block_without_samples_books_its_total_to_other(self):
        sim = Simulator()
        with Sampler(sim) as sampler:
            pass
        summary = sampler.summary()
        assert summary["samples"] == 0
        assert summary["subsystems"] == {"other":
                                         summary["total_seconds"]}
        assert summary["share_errors"] == {}
        assert summary["callbacks"] == summary["hottest"] == []
        assert summary["timeline"]["buckets"] == []


class TestSignalState:
    def test_exit_restores_the_previous_handler_and_timer(self):
        def previous(_signum, _frame):
            pass

        old = signal.signal(signal.SIGPROF, previous)
        try:
            signal.setitimer(signal.ITIMER_PROF, 50.0, 50.0)
            with pytest.raises(RuntimeError, match="inside"):
                with Sampler(Simulator()):
                    assert signal.getsignal(signal.SIGPROF) \
                        is not previous
                    raise RuntimeError("raised inside the block")
            assert signal.getsignal(signal.SIGPROF) is previous
            delay, interval = signal.getitimer(signal.ITIMER_PROF)
            assert interval == pytest.approx(50.0)
            assert 49.0 < delay < 50.1     # rounded up to a tick
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, old)

    def test_exit_disarms_a_timer_that_was_off(self):
        handler = signal.getsignal(signal.SIGPROF)
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        with Sampler(Simulator()):
            assert signal.getitimer(signal.ITIMER_PROF)[1] > 0.0
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) == handler


class TestKernelIntegration:
    def run_cell(self, profile):
        sim = Simulator(seed=11)
        rng = sim.rng.stream("work")
        burn = synthetic("repro.workloads.synthetic")["burn"]
        fired = []

        def work(i):
            burn(0.002)
            fired.append((sim.now, i, rng.random()))
            if i > 0 and i % 7 == 0:
                sim.call_after(0.005, work, -i)

        for i in range(50):
            sim.call_after(0.01 * (i + 1), work, i)
        with Sampler(sim) if profile else contextlib.nullcontext() \
                as sampler:
            sim.run()
        return sim, fired, sampler

    def test_profiling_does_not_perturb_event_order(self):
        _, plain, _ = self.run_cell(False)
        _, profiled, sampler = self.run_cell(True)
        assert sampler.samples > 0
        assert plain == profiled

    def test_stats_report_callbacks_and_subsystems(self):
        sim, _, sampler = self.run_cell(True)
        summary = sampler.summary()
        assert summary["events"] == sim.event_count == 57
        assert "workloads" in summary["subsystems"]
        rows = summary["callbacks"]
        assert any(row["callback"] == "burn"
                   and row["subsystem"] == "workloads" for row in rows)
        assert sum(row["samples"] for row in rows) == summary["samples"]

    def test_profile_off_leaves_no_profiler(self):
        sim, _, _ = self.run_cell(False)
        assert not hasattr(sim, "profiler")
        assert "profile" not in sim.stats()
        # an unprofiled cell loads no repro.prof module
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from repro.analysis.scale import build_scale_spec, "
             "run_scale_cell\n"
             "run_scale_cell(build_scale_spec(1), duration=0.2)\n"
             "print([m for m in sys.modules if m.startswith('repro.prof')])"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"


class TestMergeSummaries:
    def test_merges_subsystems_and_callbacks(self):
        sample = synthetic("repro.net.synthetic")["sample"]
        kernel = synthetic("repro.sim.synthetic")["sample"]
        a = sampled_summary((0.1, sample), (0.2, kernel))
        b = sampled_summary((0.1, sample))
        merged = merge_summaries([a, b])
        assert merged["cells"] == 2
        assert merged["events"] == 3
        assert merged["samples"] == 3
        assert merged["total_seconds"] == pytest.approx(
            a["total_seconds"] + b["total_seconds"])
        assert merged["subsystems"]["net"] == pytest.approx(
            a["subsystems"]["net"] + b["subsystems"]["net"])
        assert merged["share_errors"]["net"] == pytest.approx(
            math.sqrt(2 / 27))
        (row,) = [r for r in merged["callbacks"] if r["module"]
                  == "repro.net.synthetic"]
        assert row["samples"] == 2
        assert row["seconds"] == pytest.approx(
            a["subsystems"]["net"] + b["subsystems"]["net"])
        assert merged["timeline"]["buckets"] == []

    def test_empty_and_none_summaries_are_skipped(self):
        merged = merge_summaries([None, {}])
        assert merged["cells"] == 0
        assert merged["samples"] == 0
        assert merged["total_seconds"] == 0.0
        assert merged["subsystems"] == {"other": 0.0}
