"""Tests for the ReplicaVMM engine via single-replica setups."""

import random

import pytest

from repro.core import PASSTHROUGH, StopWatchConfig
from repro.machine import Host
from repro.mitigation import PassthroughPolicy, StopWatchPolicy
from repro.net import Network, Packet
from repro.sim import Simulator
from repro.vmm import ReplicaVMM


def make_vmm(seed=1, config=None, policy=None, **host_kwargs):
    sim = Simulator(seed=seed)
    network = Network(sim)
    host = Host(sim, 0, network, jitter_sigma=0.0, **host_kwargs)
    vmm = ReplicaVMM(sim, host, "vm1", 0, config or PASSTHROUGH,
                     random.Random(7), policy or PassthroughPolicy())
    return sim, host, vmm


#: one replica under the stopwatch policy, with no coordination group
SINGLE = StopWatchConfig(replicas=1)


def make_packet(dst="vm:vm1", proto="raw"):
    return Packet(src="x", dst=dst, protocol=proto, payload=None, size=100)


class TestEngine:
    def test_vm_exits_happen_at_interval(self):
        config = StopWatchConfig(replicas=1,
                                 exit_interval_branches=100_000)
        sim, _, vmm = make_vmm(config=config)
        vmm.start()
        sim.run(until=0.1)
        # 100 ms at 100 Mbranch/s = 10 Mbranches = ~100 exits
        assert 90 <= vmm.stats["vm_exits"] <= 110

    def test_instruction_counter_advances_with_real_time(self):
        sim, _, vmm = make_vmm()
        vmm.start()
        sim.run(until=0.05)
        assert vmm.instr == pytest.approx(5_000_000, rel=0.05)

    def test_stop_halts_engine(self):
        sim, _, vmm = make_vmm()
        vmm.start()
        sim.run(until=0.01)
        vmm.stop()
        instr_at_stop = vmm.instr
        sim.run(until=0.05)
        assert vmm.instr <= instr_at_stop + vmm.config.exit_interval_branches

    def test_timer_interrupts_counted(self):
        sim, _, vmm = make_vmm()
        vmm.start()
        sim.run(until=0.1)
        # 250 Hz for ~0.1 virtual seconds
        assert 20 <= vmm.stats["timer_interrupts"] <= 30


class TestBaselineInjection:
    def test_packet_delivered_promptly(self):
        sim, host, vmm = make_vmm()
        got = []
        vmm.guest.register_protocol("raw",
                                    lambda p: got.append(sim.now))
        vmm.start()
        sim.call_after(0.0123, vmm.observe_inbound, None, make_packet())
        sim.run(until=0.05)
        assert len(got) == 1
        # baseline pokes the engine: delivery well under an exit interval
        assert got[0] - 0.0123 < 0.0005

    def test_fifo_across_packets(self):
        sim, host, vmm = make_vmm()
        got = []
        vmm.guest.register_protocol(
            "raw", lambda p: got.append(p.payload))
        vmm.start()

        def send(tag):
            packet = make_packet()
            packet.payload = tag
            vmm.observe_inbound(None, packet)

        sim.call_after(0.01, send, "a")
        sim.call_after(0.011, send, "b")
        sim.call_after(0.012, send, "c")
        sim.run(until=0.05)
        assert got == ["a", "b", "c"]

    def test_output_direct_when_egress_disabled(self):
        sim, host, vmm = make_vmm()
        got = []
        host.node.network.attach("dest", got.append)
        vmm.start()
        packet = Packet(src="vm:vm1", dst="dest", protocol="raw",
                        payload=None, size=100)
        sim.call_after(0.01, vmm.guest_output, packet)
        sim.run(until=0.05)
        assert len(got) == 1


class TestPokeAtQuantumEnd:
    """A baseline poke at exactly the instant a quantum ends, queued
    behind that quantum's kernel entry, is one more mid-quantum exit --
    not a second chain of wakes driving the same engine (which once
    ran the guest at twice real time from then on)."""

    EXIT = 20

    def exit_instants(self):
        sim, _, vmm = make_vmm()
        instants = []
        vm_exit = vmm._vm_exit

        def recording_exit():
            instants.append(sim.now)
            vm_exit()

        vmm._vm_exit = recording_exit
        vmm.start()
        sim.run(until=0.1)
        return instants

    def run_with_packet(self, scheduled_at, arrives_at):
        """Instructions and exits by t=0.1 s with one inbound packet
        observed at ``arrives_at``, queued by an event at
        ``scheduled_at`` (so after any quantum started before then)."""
        sim, _, vmm = make_vmm()
        vmm.start()
        sim.call_at(scheduled_at, lambda: sim.call_at(
            arrives_at, vmm.observe_inbound, None, make_packet()))
        sim.run(until=0.1)
        return vmm.instr, vmm.stats["vm_exits"]

    def test_same_instant_poke_matches_an_earlier_one(self):
        instants = self.exit_instants()
        previous, exit_at = instants[self.EXIT - 1], instants[self.EXIT]
        scheduled_at = previous + 1e-9
        exact = self.run_with_packet(scheduled_at, exit_at)
        earlier = self.run_with_packet(scheduled_at, exit_at - 1e-7)
        assert exact == earlier
        # one extra exit (the injection) on top of the ~100 boundary
        # exits of 0.1 s at 100 Mbranch/s
        instr, exits = exact
        assert instr == pytest.approx(10_000_000, rel=0.02)
        assert 95 <= exits <= 105


class TestMediatedSingleReplica:
    """The stopwatch policy on one replica: Δn applies with trivial
    medians -- exercised without the coordination machinery
    (coordination=None skips the agreement, so use
    commit_network_delivery directly)."""

    def test_commit_delivers_at_virtual_deadline(self):
        config = SINGLE.with_overrides(delta_net=0.015)
        sim, _, vmm = make_vmm(config=config, policy=StopWatchPolicy())
        got = []
        vmm.guest.register_protocol("raw",
                                    lambda p: got.append(vmm.guest.now()))
        vmm.start()
        sim.call_after(0.005, vmm.commit_network_delivery, 0, 0.020,
                       make_packet())
        sim.run(until=0.1)
        assert len(got) == 1
        assert got[0] >= 0.020
        assert got[0] <= 0.020 + 2 * config.exit_interval_virtual

    def test_fifo_clamp_on_nonmonotonic_medians(self):
        sim, _, vmm = make_vmm(config=SINGLE, policy=StopWatchPolicy())
        got = []
        vmm.guest.register_protocol(
            "raw", lambda p: got.append((p.payload, vmm.guest.now())))
        vmm.start()

        def commit(seq, virt, tag):
            packet = make_packet()
            packet.payload = tag
            vmm.commit_network_delivery(seq, virt, packet)

        sim.call_after(0.001, commit, 0, 0.030, "first")
        sim.call_after(0.002, commit, 1, 0.020, "second")  # earlier median!
        sim.run(until=0.1)
        assert [tag for tag, _ in got] == ["first", "second"]
        assert got[1][1] >= got[0][1]

    def injection_instrs(self, commits):
        """Instruction count at which each seq is injected when the
        ``(seq, median)`` decisions are committed in ``commits`` order."""
        sim, _, vmm = make_vmm(config=SINGLE, policy=StopWatchPolicy())
        injected = {}
        vmm.on_net_delivery = \
            lambda seq, instr, packet: injected.setdefault(seq, instr)
        vmm.guest.register_protocol("raw", lambda p: None)
        vmm.start()
        for order, (seq, median) in enumerate(commits, start=1):
            sim.call_after(0.001 * order, vmm.commit_network_delivery,
                           seq, median, make_packet())
        sim.run(until=0.1)
        return injected

    def test_injection_independent_of_commit_order(self):
        """Replica determinism (DESIGN §7): injections are a function of
        the decided medians, not of the order a replica learns them."""
        in_order = self.injection_instrs([(0, 0.020), (1, 0.030)])
        reversed_order = self.injection_instrs([(1, 0.030), (0, 0.020)])
        assert in_order == {0: 2_000_000, 1: 3_000_000}
        assert reversed_order == in_order

    def test_divergence_detected_when_median_passed(self):
        sim, _, vmm = make_vmm(config=SINGLE, policy=StopWatchPolicy())
        vmm.guest.register_protocol("raw", lambda p: None)
        vmm.start()
        sim.call_after(0.050, vmm.commit_network_delivery, 0, 0.001,
                       make_packet())
        sim.run(until=0.1)
        assert vmm.stats["divergences"] == 1
        assert vmm.stats["net_interrupts"] == 1  # still delivered

    def test_disk_delta_d_wait_counted_when_too_small(self):
        config = SINGLE.with_overrides(
            delta_disk=0.0001)  # far below access time
        sim, _, vmm = make_vmm(config=config, policy=StopWatchPolicy())
        done = []
        vmm.guest.schedule_at_instr(
            0, lambda: vmm.guest.disk_read(8, lambda: done.append(1)))
        vmm.start()
        sim.run(until=0.5)
        assert done == [1]
        assert vmm.stats["delta_d_waits"] >= 1


class TestEpochResyncSingle:
    def test_epoch_resync_tracks_real_time(self):
        """With resync on, a single replica's virtual clock follows its
        host's real clock despite a skewed initial slope."""
        config = SINGLE.with_overrides(
            initial_slope=1.6e-8,              # virt runs 1.6x fast
            slope_range=(0.5e-8, 2e-8),
            epoch_instructions=1_000_000)      # resync every ~10 ms
        sim, _, vmm = make_vmm(config=config, policy=StopWatchPolicy())
        vmm.start()
        sim.run(until=1.0)
        # after many epochs, virtual time should be near real time
        assert vmm.current_virt() == pytest.approx(1.0, rel=0.15)
        assert vmm.clock.epoch_index > 50


class _PacingGate:
    """Coordination stand-in: every pacing boundary stalls until
    :meth:`open` wakes the engines parked on it."""

    def __init__(self, sim):
        self.sim = sim
        self.is_open = False
        self.waiters = []

    def report_progress(self, boundary):
        pass

    def can_proceed(self, boundary):
        return self.is_open

    def wait_progress(self):
        event = self.sim.event()
        self.waiters.append(event)
        return event

    def open(self, wake_first=True):
        self.is_open = True
        for event in self.waiters[0 if wake_first else 1:]:
            event.trigger()


class TestRestart:
    """An engine restarted in place must run alone: nothing its
    predecessor left queued may resume it."""

    def test_restart_before_the_stopped_quantum_ends(self):
        sim, _, vmm = make_vmm()
        vmm.start()
        sim.run(until=0.0105)    # mid-quantum
        vmm.stop()
        vmm.start()
        sim.run(until=0.05)
        assert vmm.instr == pytest.approx(5_000_000, rel=0.05)
        # one engine: exactly one VM exit per exit-interval boundary
        assert vmm.stats["vm_exits"] \
            == vmm.instr // vmm.config.exit_interval_branches
        assert not vmm._engine_proc.triggered

    def test_restart_in_the_crash_instant(self):
        sim, _, vmm = make_vmm()
        vmm.start()
        sim.run(until=0.0105)
        vmm.fail()
        vmm.start()
        sim.run(until=0.05)
        assert vmm.instr == pytest.approx(5_000_000, rel=0.05)
        # one engine: exactly one VM exit per exit-interval boundary
        assert vmm.stats["vm_exits"] \
            == vmm.instr // vmm.config.exit_interval_branches
        assert not vmm._engine_proc.triggered

    def run_restarted(self, wake_stale):
        sim, _, vmm = make_vmm(config=SINGLE, policy=StopWatchPolicy())
        gate = vmm.coordination = _PacingGate(sim)
        vmm.start()
        sim.run(until=0.006)     # parked at the first pacing boundary
        vmm.fail()               # not mid-quantum: nothing to cut short
        vmm.start()              # runs on to the next boundary and parks
        sim.run(until=0.02)
        assert len(gate.waiters) == 2
        gate.open(wake_first=wake_stale)
        sim.run(until=0.05)
        return vmm.instr, vmm.stats["vm_exits"]

    def test_stale_barrier_wake_is_ignored(self):
        """A crash while parked at a pacing barrier leaves a wake on
        that barrier; when it fires, only the new engine's own wake
        may resume it."""
        assert self.run_restarted(wake_stale=True) \
            == self.run_restarted(wake_stale=False)
