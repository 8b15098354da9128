"""Errors must surface, not vanish: a guest thread crashing when its
host dies mid-quantum fails the engine's terminal event with a
ProcessFailed that chains the original cause."""

import random

from repro.machine import Host, MultiprocessorRuntime
from repro.machine.multiproc import ThreadCrashed
from repro.net import Network
from repro.core import PASSTHROUGH
from repro.mitigation import PassthroughPolicy
from repro.sim import Simulator
from repro.sim.errors import ProcessFailed
from repro.vmm import ReplicaVMM


class TestHostDeathMidQuantum:
    def test_thread_crash_reaches_engine_as_chained_failure(self):
        """A host dying mid-quantum: one guest thread takes the machine
        down, the next thread in the same scheduling round hits the dead
        host and raises.  The error fails the engine's terminal event
        with ProcessFailed -> ThreadCrashed -> the thread's own
        exception."""
        sim = Simulator(seed=2)
        network = Network(sim)
        host = Host(sim, 0, network, jitter_sigma=0.0)
        vmm = ReplicaVMM(sim, host, "vm1", 0, PASSTHROUGH,
                         random.Random(7), PassthroughPolicy())
        guest = vmm.guest

        def killer():
            yield 5_000
            host.fail()          # engine is mid-step: no interrupt race

        def victim():
            yield 5_000
            if not host.alive:
                raise RuntimeError("host died under me")
            yield 5_000

        def setup():
            runtime = MultiprocessorRuntime(guest, vcpus=2, quantum=10_000)
            runtime.spawn(killer, name="killer")
            runtime.spawn(victim, name="victim")

        guest.schedule_at_instr(0, setup)
        vmm.start()
        ended = []
        vmm._engine_proc.add_callback(ended.append)
        sim.run(until=0.5)
        (engine,) = ended
        assert not engine.ok
        failure = engine.value
        assert isinstance(failure, ProcessFailed)
        assert failure.process is vmm
        assert vmm.engine_failure is failure
        crash = failure.__cause__
        assert isinstance(crash, ThreadCrashed)
        assert "victim" in str(crash)
        assert isinstance(crash.__cause__, RuntimeError)
        assert crash.__cause__.args == ("host died under me",)
