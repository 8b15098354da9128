"""Tests for the Host model and the GuestOS runtime."""

import random

import pytest

from repro.core import StopWatchConfig, PASSTHROUGH
from repro.machine import Host
from repro.mitigation import PassthroughPolicy, StopWatchPolicy
from repro.net import Network
from repro.sim import Simulator
from repro.vmm import ReplicaVMM


def make_host(sim, **kwargs):
    network = Network(sim)
    return Host(sim, 0, network, **kwargs)


class TestHost:
    def test_slowdown_near_one_when_idle(self):
        sim = Simulator(seed=9)
        host = make_host(sim, jitter_sigma=0.0)
        assert host.slowdown_factor() == pytest.approx(1.0)

    def test_contention_raises_slowdown(self):
        sim = Simulator(seed=9)
        host = make_host(sim, jitter_sigma=0.0, contention_alpha=0.5)
        for _ in range(20):
            host.dom0.submit(0.002, lambda: None)
        sim.run()
        assert host.slowdown_factor() > 1.1

    def test_jitter_varies_draws(self):
        sim = Simulator(seed=9)
        host = make_host(sim, jitter_sigma=0.05)
        draws = {host.slowdown_factor() for _ in range(10)}
        assert len(draws) > 5

    def test_slowdown_never_below_half(self):
        sim = Simulator(seed=9)
        host = make_host(sim, jitter_sigma=2.0)
        assert all(host.slowdown_factor() >= 0.5 for _ in range(50))

    def test_vmm_attachment(self):
        sim = Simulator(seed=9)
        host = make_host(sim)
        vmm = ReplicaVMM(sim, host, "vm1", 0, PASSTHROUGH,
                         random.Random(1), PassthroughPolicy())
        assert host.vmms == [vmm]


class TestGuestOS:
    """GuestOS exercised through a single-replica (baseline) VMM."""

    def make_guest(self, seed=1, config=None, policy=None):
        sim = Simulator(seed=seed)
        host = make_host(sim, jitter_sigma=0.0)
        vmm = ReplicaVMM(sim, host, "vm1", 0, config or PASSTHROUGH,
                         random.Random(7), policy or PassthroughPolicy())
        return sim, vmm, vmm.guest

    def test_now_starts_at_zero(self):
        _, _, guest = self.make_guest()
        assert guest.now() == 0.0

    def test_schedule_runs_at_virtual_delay(self):
        sim, vmm, guest = self.make_guest()
        fired = []
        guest.schedule_at_instr(0, lambda: guest.schedule(
            0.01, lambda: fired.append(guest.now())))
        vmm.start()
        sim.run(until=0.1)
        assert len(fired) == 1
        assert fired[0] == pytest.approx(0.01, abs=1e-6)

    def test_compute_advances_branch_counter(self):
        sim, vmm, guest = self.make_guest()
        marks = []
        guest.schedule_at_instr(0, lambda: guest.compute(
            50_000, lambda: marks.append(guest.instr)))
        vmm.start()
        sim.run(until=0.1)
        assert marks == [50_000]

    def test_negative_delay_rejected(self):
        _, _, guest = self.make_guest()
        with pytest.raises(ValueError):
            guest.schedule(-1.0, lambda: None)

    def test_negative_compute_rejected(self):
        _, _, guest = self.make_guest()
        with pytest.raises(ValueError):
            guest.compute(-1, lambda: None)

    def test_timer_cancel(self):
        sim, vmm, guest = self.make_guest()
        fired = []

        def setup():
            timer = guest.schedule(0.01, fired.append, "x")
            timer.cancel()

        guest.schedule_at_instr(0, setup)
        vmm.start()
        sim.run(until=0.1)
        assert fired == []

    def test_duplicate_protocol_rejected(self):
        _, _, guest = self.make_guest()
        guest.register_protocol("tcp", lambda p: None)
        with pytest.raises(ValueError):
            guest.register_protocol("tcp", lambda p: None)

    def test_events_run_in_instruction_order(self):
        sim, vmm, guest = self.make_guest()
        order = []

        def setup():
            guest.compute(200_000, order.append, "late")
            guest.compute(100_000, order.append, "early")

        guest.schedule_at_instr(0, setup)
        vmm.start()
        sim.run(until=0.1)
        assert order == ["early", "late"]

    def test_pit_ticks_delivered(self):
        sim, vmm, guest = self.make_guest()
        ticks = []
        guest.schedule_at_instr(0, lambda: guest.on_timer_tick(ticks.append))
        vmm.start()
        sim.run(until=0.105)
        # 250 Hz -> about 25 ticks in 0.1 virtual seconds
        assert 20 <= len(ticks) <= 30

    def test_virtual_time_tracks_branch_count(self):
        """virt == slope * instr exactly (Eqn. 1)."""
        sim, vmm, guest = self.make_guest()
        checks = []

        def check():
            checks.append((guest.now(), guest.instr))

        guest.schedule_at_instr(0, lambda: guest.compute(123_456, check))
        vmm.start()
        sim.run(until=0.1)
        virt, instr = checks[0]
        assert virt == pytest.approx(instr * 1e-8)

    def test_disk_read_callback_fires(self):
        sim, vmm, guest = self.make_guest()
        done = []
        guest.schedule_at_instr(
            0, lambda: guest.disk_read(8, lambda: done.append(guest.now())))
        vmm.start()
        sim.run(until=0.5)
        assert len(done) == 1
        assert done[0] > 0.0

    def test_mediated_disk_delivery_at_delta_d(self):
        config = StopWatchConfig(replicas=1, delta_disk=0.02)
        sim, vmm, guest = self.make_guest(config=config,
                                          policy=StopWatchPolicy())
        done = []
        guest.schedule_at_instr(
            0, lambda: guest.disk_read(8, lambda: done.append(guest.now())))
        vmm.start()
        sim.run(until=0.5)
        # delivered at the first exit at/after request_virt + Δd
        assert done[0] >= 0.02
        assert done[0] <= 0.02 + 2 * config.exit_interval_virtual + 1e-9
