"""Tests for the PARSEC-style kernels."""

import math
import random

import pytest

from repro.cloud import Cloud
from repro.core import PASSTHROUGH, DEFAULT
from repro.sim import Simulator, Trace
from repro.workloads.parsec import (
    PARSEC_KERNELS,
    BlackScholes,
    Canneal,
    Dedup,
    Ferret,
    RunCollector,
    StreamCluster,
)

FAST_DISK = {"disk_kwargs": {"seek_min": 0.001, "seek_max": 0.003,
                             "per_block": 2e-5}}


def run_kernel(cls, config, scale=0.2, seed=3, until=30.0):
    sim = Simulator(seed=seed, trace=Trace(enabled=False))
    cloud = Cloud(sim, machines=3, config=config, host_kwargs=FAST_DISK)
    client = cloud.add_client("collector:1")
    collector = RunCollector(client)
    vm = cloud.create_vm(
        cls.name, lambda g: cls(g, scale=scale,
                                collector_addr="collector:1"))
    cloud.run(until=until)
    return collector, vm


class _Bench:
    """Run a kernel's computation directly (no simulator) for unit tests."""

    class FakeGuest:
        def __init__(self, seed=5):
            self.rng = random.Random(seed)

    @classmethod
    def prepared(cls, kernel_cls, seed=5):
        kernel = kernel_cls.__new__(kernel_cls)
        kernel.guest = cls.FakeGuest(seed)
        kernel.prepare()
        return kernel

    @classmethod
    def compute_only(cls, kernel_cls):
        kernel = cls.prepared(kernel_cls)
        total = 4
        for i in range(total):
            kernel.run_batch(i, total)
        return kernel.finish_result()


class _FullScanCanneal(Canneal):
    """Canneal scoring each swap by scanning the whole netlist.

    The reference for the incidence index: every net touching ``i`` or
    ``j`` is found by a filter over all of ``self.nets``.
    """

    def run_batch(self, index: int, total: int) -> None:
        rng = self.rng
        for _ in range(self.SWAPS_PER_BATCH):
            i = rng.randrange(self.ELEMENTS)
            j = rng.randrange(self.ELEMENTS)
            if i == j:
                continue
            before = sum(self._wire_len(a, b) for a, b in self.nets
                         if a in (i, j) or b in (i, j))
            self.positions[i], self.positions[j] = \
                self.positions[j], self.positions[i]
            after = sum(self._wire_len(a, b) for a, b in self.nets
                        if a in (i, j) or b in (i, j))
            delta = after - before
            if delta <= 0 or rng.random() < math.exp(
                    -delta / max(self.temperature, 1e-6)):
                self.cost += delta
            else:
                self.positions[i], self.positions[j] = \
                    self.positions[j], self.positions[i]
        self.temperature *= 0.9


def _record_scored_nets(kernel):
    """Log every ``(a, b)`` the kernel scores from now on, in order."""
    scored, wire_len = [], kernel._wire_len

    def recording(a, b):
        scored.append((a, b))
        return wire_len(a, b)

    kernel._wire_len = recording
    return scored


class TestKernelComputations:
    def test_blackscholes_prices_positive(self):
        result = _Bench.compute_only(BlackScholes)
        assert result > 0.0

    def test_ferret_produces_topk(self):
        kernel = Ferret.__new__(Ferret)
        kernel.guest = _Bench.FakeGuest()
        kernel.prepare()
        kernel.run_batch(0, 4)
        assert all(len(match) == Ferret.TOP_K for match in kernel.matches)

    def test_canneal_reduces_cost(self):
        kernel = Canneal.__new__(Canneal)
        kernel.guest = _Bench.FakeGuest()
        kernel.prepare()
        initial = kernel.cost
        for i in range(6):
            kernel.run_batch(i, 6)
        assert kernel.cost < initial
        # incremental cost tracking must agree with a recount
        assert kernel.cost == pytest.approx(kernel._total_cost(), rel=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_canneal_index_matches_full_scan(self, seed):
        # the index must not move a bit: a reordered or double-counted
        # net changes ``delta`` and with it every later acceptance draw
        reference = _Bench.prepared(_FullScanCanneal, seed)
        indexed = _Bench.prepared(Canneal, seed)
        scored = [_record_scored_nets(reference),
                  _record_scored_nets(indexed)]
        for i in range(6):
            reference.run_batch(i, 6)
            indexed.run_batch(i, 6)
        # the same nets, each once, in net order; a net joining i to j
        # that is counted twice can leave ``cost`` bit-identical for
        # dozens of batches before the runs part
        assert scored[1] == scored[0]
        assert indexed.cost == reference.cost
        assert indexed.positions == reference.positions
        assert indexed.temperature == reference.temperature
        assert indexed.guest.rng.random() == reference.guest.rng.random()

    @pytest.mark.parametrize("seed", range(3))
    def test_canneal_netlist_covers_index_edge_cases(self, seed):
        kernel = _Bench.prepared(Canneal, seed)
        nets = kernel.nets
        assert any(a == b for a, b in nets)              # self-loop
        assert len(set(nets)) < len(nets)                # duplicated net
        assert len({e for net in nets for e in net}) \
            < Canneal.ELEMENTS                           # no nets
        assert kernel.incident == [
            [n for n, net in enumerate(nets) if e in net]
            for e in range(Canneal.ELEMENTS)]

    def test_dedup_finds_duplicates(self):
        unique, duplicates, compressed = _Bench.compute_only(Dedup)
        assert unique + duplicates == Dedup.CHUNKS
        assert duplicates > 0
        assert compressed > 0

    def test_streamcluster_bounds_centers(self):
        centers, cost = _Bench.compute_only(StreamCluster)
        assert 1 <= centers <= StreamCluster.MAX_CENTERS
        assert cost > 0.0

    def test_kernels_deterministic_given_seed(self):
        for cls in PARSEC_KERNELS.values():
            assert _Bench.compute_only(cls) == _Bench.compute_only(cls)


class TestKernelRuns:
    def test_baseline_run_completes_and_reports(self):
        collector, vm = run_kernel(BlackScholes, PASSTHROUGH)
        assert collector.completion_time("blackscholes") is not None
        assert vm.workloads[0].finished

    def test_stopwatch_run_slower_than_baseline(self):
        base, _ = run_kernel(StreamCluster, PASSTHROUGH)
        stopwatch, _ = run_kernel(StreamCluster, DEFAULT)
        base_t = base.completion_time("streamcluster")
        sw_t = stopwatch.completion_time("streamcluster")
        assert sw_t > base_t

    def test_replica_results_identical(self):
        _, vm = run_kernel(Ferret, DEFAULT)
        results = {workload.result for workload in vm.workloads}
        assert len(results) == 1

    @pytest.mark.parametrize("name", sorted(PARSEC_KERNELS))
    def test_results_agree_across_replicas_and_baseline(self, name):
        cls = PARSEC_KERNELS[name]
        results = []
        for config in (DEFAULT, PASSTHROUGH):
            collector, vm = run_kernel(cls, config)
            replicas = [workload.result for workload in vm.workloads]
            # the collector holds the one DONE datagram egress released
            assert [result for _, _, result in collector.completions] \
                == replicas[:1]
            results += replicas
        assert len(results) == 4 and len(set(results)) == 1

    def test_disk_interrupt_counts_scale(self):
        _, vm_small = run_kernel(BlackScholes, PASSTHROUGH, scale=0.2)
        _, vm_full = run_kernel(BlackScholes, PASSTHROUGH, scale=1.0,
                                until=60.0)
        small = vm_small.vmms[0].stats["disk_interrupts"]
        full = vm_full.vmms[0].stats["disk_interrupts"]
        assert full > small

    def test_full_scale_disk_interrupts_match_paper(self):
        _, vm = run_kernel(BlackScholes, PASSTHROUGH, scale=1.0,
                           until=60.0)
        assert vm.vmms[0].stats["disk_interrupts"] == 38
