"""Tests for deterministic multiprocessor guest execution."""

import random

import pytest

from repro.cloud import Cloud
from repro.core import DEFAULT, PASSTHROUGH
from repro.machine import Host, MultiprocessorRuntime
from repro.mitigation import PassthroughPolicy
from repro.net import Network
from repro.sim import Simulator, Trace
from repro.vmm import ReplicaVMM
from repro.workloads.base import GuestWorkload


def make_guest(seed=1):
    sim = Simulator(seed=seed)
    network = Network(sim)
    host = Host(sim, 0, network, jitter_sigma=0.0)
    vmm = ReplicaVMM(sim, host, "vm1", 0, PASSTHROUGH, random.Random(7),
                     PassthroughPolicy())
    return sim, vmm, vmm.guest


def worker(log, name, chunks=3, cost=20_000):
    for index in range(chunks):
        yield cost
        log.append((name, index))


class TestScheduling:
    def test_threads_interleave_round_robin(self):
        sim, vmm, guest = make_guest()
        log = []
        runtime = MultiprocessorRuntime(guest, vcpus=2, quantum=20_000)

        def setup():
            runtime.spawn(worker(log, "a"), name="a")
            runtime.spawn(worker(log, "b"), name="b")

        guest.schedule_at_instr(0, setup)
        vmm.start()
        sim.run(until=0.2)
        # quantum == cost: each round completes one chunk of each thread
        assert log == [("a", 0), ("b", 0), ("a", 1), ("b", 1),
                       ("a", 2), ("b", 2)]
        assert runtime.all_finished

    def test_thread_return_value(self):
        sim, vmm, guest = make_guest()

        def body():
            yield 10_000
            return "answer"

        holder = []

        def setup():
            holder.append(MultiprocessorRuntime(guest).spawn(body))

        guest.schedule_at_instr(0, setup)
        vmm.start()
        sim.run(until=0.1)
        assert holder[0].result == "answer"

    def test_join_blocks_until_target_finishes(self):
        sim, vmm, guest = make_guest()
        log = []

        def child():
            yield 50_000
            log.append("child-done")

        def parent(runtime):
            target = runtime.spawn(child, name="child")
            yield ("join", target)
            log.append("parent-resumed")

        def setup():
            runtime = MultiprocessorRuntime(guest, quantum=5_000)
            runtime.spawn(parent(runtime), name="parent")

        guest.schedule_at_instr(0, setup)
        vmm.start()
        sim.run(until=0.2)
        assert log == ["child-done", "parent-resumed"]

    def test_vcpus_give_parallel_speedup(self):
        """Four threads on 4 VCPUs finish in ~1/4 the virtual time of
        the same threads on 1 VCPU."""
        durations = {}
        for vcpus in (1, 4):
            sim, vmm, guest = make_guest()
            finish = []

            def setup(v=vcpus):
                runtime = MultiprocessorRuntime(
                    guest, vcpus=v, quantum=10_000,
                    on_idle=lambda: finish.append(guest.now()))
                for i in range(4):
                    runtime.spawn(worker([], f"t{i}", chunks=10), name=str(i))

            guest.schedule_at_instr(0, setup)
            vmm.start()
            sim.run(until=1.0)
            durations[vcpus] = finish[0]
        assert durations[4] < 0.35 * durations[1]

    def test_bad_parameters_rejected(self):
        _, _, guest = make_guest()
        with pytest.raises(ValueError):
            MultiprocessorRuntime(guest, vcpus=0)
        with pytest.raises(ValueError):
            MultiprocessorRuntime(guest, quantum=0)
        with pytest.raises(TypeError):
            MultiprocessorRuntime(guest).spawn(42)


class TestLocks:
    def test_mutual_exclusion_and_fifo_handoff(self):
        sim, vmm, guest = make_guest()
        log = []

        def locker(name):
            yield ("acquire", "m")
            log.append(f"{name}-in")
            yield 30_000
            log.append(f"{name}-out")
            yield ("release", "m")

        def setup():
            runtime = MultiprocessorRuntime(guest, vcpus=2, quantum=5_000)
            runtime.spawn(locker("a"), name="a")
            runtime.spawn(locker("b"), name="b")

        guest.schedule_at_instr(0, setup)
        vmm.start()
        sim.run(until=0.2)
        assert log == ["a-in", "a-out", "b-in", "b-out"]

    def test_release_of_unheld_lock_rejected(self):
        sim, vmm, guest = make_guest()
        errors = []

        def bad():
            yield ("release", "nope")

        def setup():
            runtime = MultiprocessorRuntime(guest)
            runtime.spawn(bad, name="bad")

        guest.schedule_at_instr(0, setup)
        vmm.start()
        sim.run(until=0.1)
        # the scheduler raised inside a guest event; the engine's
        # terminal event carries the failure
        assert vmm._engine_proc.triggered and not vmm._engine_proc.ok


class _MultiprocWorkload(GuestWorkload):
    """A replicated SMP guest: 3 threads with a shared counter."""

    def __init__(self, guest):
        super().__init__(guest)
        self.log = []
        self.finish_virt = None

    def start(self):
        runtime = MultiprocessorRuntime(
            self.guest, vcpus=2, quantum=8_000,
            on_idle=self._done)
        shared = {"value": 0}

        def adder(name):
            for _ in range(5):
                yield 12_000
                yield ("acquire", "counter")
                shared["value"] += 1
                self.log.append((name, shared["value"]))
                yield ("release", "counter")

        for i in range(3):
            runtime.spawn(adder(f"t{i}"), name=f"t{i}")
        self.shared = shared

    def _done(self):
        self.finish_virt = self.guest.now()


class TestReplicatedSmp:
    def test_smp_guest_deterministic_across_replicas(self):
        """The headline of the extension: an SMP guest's interleaving is
        identical on all three replicas despite host timing noise."""
        sim = Simulator(seed=9, trace=Trace(enabled=False))
        cloud = Cloud(sim, machines=3, config=DEFAULT,
                      host_kwargs={"jitter_sigma": 0.05})
        vm = cloud.create_vm("smp", _MultiprocWorkload)
        cloud.run(until=1.0)
        workloads = vm.workloads
        assert all(w.finish_virt is not None for w in workloads)
        assert workloads[0].shared["value"] == 15
        assert workloads[0].log == workloads[1].log == workloads[2].log
        assert len({w.finish_virt for w in workloads}) == 1
