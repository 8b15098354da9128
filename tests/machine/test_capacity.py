"""Tests for host capacity slots and co-residency accounting."""

import random

import pytest

from repro.core import PASSTHROUGH
from repro.machine import Host, HostCapacityError
from repro.mitigation import PassthroughPolicy
from repro.net import Network
from repro.sim import Simulator
from repro.vmm import ReplicaVMM


def make_host(sim, **kwargs):
    network = Network(sim)
    return Host(sim, 0, network, **kwargs)


def attach_guest(sim, host, name):
    return ReplicaVMM(sim, host, name, 0, PASSTHROUGH,
                      workload_rng=random.Random(0),
                      policy=PassthroughPolicy())


class TestCapacity:
    def test_capacity_enforced(self):
        sim = Simulator(seed=1)
        host = make_host(sim, capacity=2)
        attach_guest(sim, host, "a")
        attach_guest(sim, host, "b")
        with pytest.raises(HostCapacityError, match="full"):
            attach_guest(sim, host, "c")

    def test_unlimited_by_default(self):
        sim = Simulator(seed=1)
        host = make_host(sim)
        for i in range(8):
            attach_guest(sim, host, f"vm{i}")
        assert host.residents == 8

    def test_bad_capacity_rejected(self):
        sim = Simulator(seed=1)
        with pytest.raises(ValueError, match="capacity"):
            make_host(sim, capacity=0)

    def test_failed_replica_frees_slot(self):
        sim = Simulator(seed=1)
        host = make_host(sim, capacity=1)
        vmm = attach_guest(sim, host, "a")
        vmm.fail()
        assert host.residents == 0
        attach_guest(sim, host, "b")  # slot is reusable
        assert host.residents == 1

    def test_peak_residents_tracked(self):
        sim = Simulator(seed=1)
        host = make_host(sim)
        attach_guest(sim, host, "a")
        vmm = attach_guest(sim, host, "b")
        vmm.fail()
        assert host.residents == 1
        assert host.peak_residents == 2

    def test_stats_surface_load(self):
        sim = Simulator(seed=1)
        host = make_host(sim, capacity=4)
        attach_guest(sim, host, "a")
        stats = host.stats()
        assert stats["residents"] == 1
        assert stats["capacity"] == 4
        assert stats["alive"] is True

    def test_attach_traced(self):
        sim = Simulator(seed=1)
        host = make_host(sim)
        attach_guest(sim, host, "a")
        records = sim.trace.select("host.attach")
        assert len(records) == 1
        assert records[0].payload["vm"] == "a"
        assert records[0].payload["residents"] == 1


class TestCoresidencySlowdown:
    def test_beta_zero_keeps_historical_timing(self):
        sim = Simulator(seed=1)
        host = make_host(sim, jitter_sigma=0.0)
        attach_guest(sim, host, "a")
        attach_guest(sim, host, "b")
        assert host.slowdown_factor() == pytest.approx(1.0)

    def test_beta_scales_with_other_residents(self):
        sim = Simulator(seed=1)
        host = make_host(sim, jitter_sigma=0.0, coresidency_beta=0.1)
        assert host.slowdown_factor() == pytest.approx(1.0)
        attach_guest(sim, host, "a")
        assert host.slowdown_factor() == pytest.approx(1.0)
        attach_guest(sim, host, "b")
        assert host.slowdown_factor() == pytest.approx(1.1)
        attach_guest(sim, host, "c")
        assert host.slowdown_factor() == pytest.approx(1.2)

    def test_negative_beta_rejected(self):
        sim = Simulator(seed=1)
        with pytest.raises(ValueError, match="coresidency_beta"):
            make_host(sim, coresidency_beta=-0.1)
