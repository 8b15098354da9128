"""Tests for the virtualised guest clock devices (Sec. IV-B)."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import PASSTHROUGH
from repro.machine import Host
from repro.machine.devices import (
    PIT_INPUT_HZ,
    GuestClockPanel,
    VirtualPitCounter,
    VirtualRtc,
    VirtualTsc,
)
from repro.mitigation import PassthroughPolicy
from repro.net import Network
from repro.sim import Simulator
from repro.vmm import ReplicaVMM


class TestVirtualTsc:
    def test_scales_virtual_time(self):
        tsc = VirtualTsc(frequency_hz=3e9)
        assert tsc.read(0.0) == 0
        assert tsc.read(1.0) == 3_000_000_000
        assert tsc.read(0.5) == 1_500_000_000

    def test_bad_frequency_rejected(self):
        with pytest.raises(ValueError):
            VirtualTsc(0.0)

    @given(st.floats(0.0, 1e6), st.floats(0.0, 1e6))
    def test_monotone(self, a, b):
        tsc = VirtualTsc()
        lo, hi = min(a, b), max(a, b)
        assert tsc.read(lo) <= tsc.read(hi)


class TestVirtualRtc:
    def test_seconds_resolution(self):
        rtc = VirtualRtc(boot_epoch=1000.0)
        assert rtc.read(0.0) == 1000
        assert rtc.read(0.999) == 1000
        assert rtc.read(1.0) == 1001


class TestVirtualPitCounter:
    def test_counts_down_and_reloads(self):
        counter = VirtualPitCounter(latch=1000)
        assert counter.read(0.0) == 1000
        one_tick = 1.0 / PIT_INPUT_HZ
        assert counter.read(one_tick * 1.5) == 999
        # after `latch` ticks the counter has reloaded (float rounding
        # may land a hair before the boundary)
        assert counter.read(1000.5 * one_tick) == 1000

    def test_bad_latch_rejected(self):
        with pytest.raises(ValueError):
            VirtualPitCounter(0)
        with pytest.raises(ValueError):
            VirtualPitCounter(70000)

    @given(st.floats(0.0, 100.0))
    def test_always_in_range(self, virt):
        counter = VirtualPitCounter(latch=65536)
        assert 1 <= counter.read(virt) <= 65536


class TestGuestIntegration:
    def make_guest(self):
        sim = Simulator(seed=1)
        network = Network(sim)
        host = Host(sim, 0, network, jitter_sigma=0.0)
        vmm = ReplicaVMM(sim, host, "vm1", 0, PASSTHROUGH,
                         random.Random(7), PassthroughPolicy())
        return sim, vmm, vmm.guest

    def test_all_devices_pure_functions_of_instr(self):
        """The Sec. IV-B property: every readable clock is derived from
        virtual time, which is derived from the branch counter."""
        sim, vmm, guest = self.make_guest()
        readings = []

        def sample():
            readings.append((guest.instr, guest.read_tsc(),
                             guest.read_rtc(), guest.read_pit_counter()))

        guest.schedule_at_instr(0, lambda: guest.compute(77_000, sample))
        vmm.start()
        sim.run(until=0.1)
        instr, tsc, rtc, pit = readings[0]
        virt = instr * 1e-8
        assert tsc == int(virt * 3e9)
        assert rtc == int(virt)
        assert pit == 65536 - (int(virt * PIT_INPUT_HZ) % 65536)

    def test_panel_snapshot(self):
        panel = GuestClockPanel()
        snap = panel.snapshot(1.0)
        assert set(snap) == {"tsc", "rtc", "pit_counter"}
