"""Deterministic execution record/replay.

StopWatch's determinism means a replica's entire execution is captured
by the schedule of events injected into it: network interrupts, disk
completions and PIT ticks, each pinned to a branch count, plus any
epoch resynchronisations of the virtual clock.  This module records
that schedule from a live replica and re-executes the guest **offline**
-- no hosts, no network, no simulated real time -- reproducing the same
instruction-for-instruction behaviour and the same outputs.

This serves three purposes:

- it is the strongest possible determinism check (used in tests);
- it reconstructs the VM-replay capability the paper relates to
  (ReTrace/VEE'08) on top of StopWatch's own mechanisms;
- it is how a diverged replica would be recovered in a deployment:
  re-run the guest against the healthy replicas' injection schedule.
"""

import heapq
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.core.config import StopWatchConfig
from repro.core.virtual_time import EpochSample, VirtualClock
from repro.machine.guest import GuestOS


@dataclass
class ExecutionRecording:
    """Everything needed to re-execute one replica."""

    vm_name: str
    config: StopWatchConfig
    #: (ingress seq, delivery instr, packet)
    net: List[Tuple[int, int, Any]] = field(default_factory=list)
    #: (request id, delivery instr) -- in request order
    disk: List[Tuple[int, int]] = field(default_factory=list)
    #: (tick index, delivery instr)
    ticks: List[Tuple[int, int]] = field(default_factory=list)
    #: (epoch index, samples)
    epochs: List[Tuple[int, List[EpochSample]]] = field(
        default_factory=list)
    #: (output seq, emission instr, packet) -- the ground truth to match
    outputs: List[Tuple[int, int, Any]] = field(default_factory=list)

    @property
    def horizon_instr(self) -> int:
        """The last recorded event's instruction count."""
        candidates = [0]
        for collection in (self.net, self.disk, self.ticks, self.outputs):
            candidates.extend(item[1] for item in collection)
        return max(candidates)

    def clone(self) -> "ExecutionRecording":
        """A snapshot copy whose event lists can grow independently --
        used to seed a rejoined replica's recorder from a survivor's."""
        return ExecutionRecording(
            vm_name=self.vm_name, config=self.config,
            net=list(self.net), disk=list(self.disk),
            ticks=list(self.ticks), epochs=list(self.epochs),
            outputs=list(self.outputs))


class ExecutionRecorder:
    """Attach to a live ReplicaVMM to capture its injection schedule.

    ``base`` resumes recording on top of a cloned prior recording -- how
    a replica rebuilt by replay becomes a valid recovery source itself:
    its recorder carries the survivor's history up to the rejoin point
    and appends everything the rejoined replica does afterwards.
    """

    def __init__(self, vmm, base: Optional[ExecutionRecording] = None):
        if base is not None:
            self.recording = base.clone()
        else:
            self.recording = ExecutionRecording(vm_name=vmm.vm_name,
                                                config=vmm.config)
        vmm.on_net_delivery = self._on_net
        vmm.on_disk_delivery = self._on_disk
        vmm.on_tick = self._on_tick
        vmm.on_output = self._on_output
        vmm.on_epoch = self._on_epoch

    def _on_net(self, seq, instr, packet) -> None:
        self.recording.net.append((seq, instr, packet))

    def _on_disk(self, request_id, instr) -> None:
        self.recording.disk.append((request_id, instr))

    def _on_tick(self, index, instr) -> None:
        self.recording.ticks.append((index, instr))

    def _on_output(self, seq, instr, packet) -> None:
        self.recording.outputs.append((seq, instr, packet))

    def _on_epoch(self, index, samples) -> None:
        self.recording.epochs.append((index, list(samples)))


class ReplayMismatch(RuntimeError):
    """The replayed execution deviated from the recording."""


class ReplayEngine:
    """Re-executes a guest from an :class:`ExecutionRecording`.

    Provides exactly the VMM surface :class:`GuestOS` consumes, driven
    purely by instruction counts -- replay takes no simulated time at
    all.  Outputs are checked against the recording as they are emitted.
    """

    def __init__(self, recording: ExecutionRecording, workload_factory,
                 workload_rng):
        self.recording = recording
        self.config = recording.config
        self.vm_name = recording.vm_name
        self.vm_address = f"vm:{recording.vm_name}"
        self.clock = VirtualClock(
            start=0.0, slope=self.config.initial_slope,
            slope_range=self.config.slope_range,
            epoch_instructions=self.config.epoch_instructions)
        self.instr = 0
        self.guest = GuestOS(self, workload_rng)
        self.outputs: List[Tuple[int, int, Any]] = []
        self._out_seq = 0
        self._disk_cursor = 0
        # pending replay events: (instr, order, kind, payload)
        self._events: List[Tuple[int, int, str, Any]] = []
        self._order = 0
        for seq, instr, packet in recording.net:
            self._push(instr, "net", packet)
        for index, instr in recording.ticks:
            self._push(instr, "tick", index)
        self._epochs = list(recording.epochs)
        self.workload = workload_factory(self.guest)
        self.guest.schedule_at_instr(0, self.workload.start)

    # ------------------------------------------------------------------
    # the VMM surface GuestOS uses
    # ------------------------------------------------------------------
    def current_virt(self) -> float:
        return self.clock.time_at(self.instr)

    def guest_output(self, packet) -> None:
        seq = self._out_seq
        self._out_seq += 1
        self.outputs.append((seq, self.instr, packet))
        if seq >= len(self.recording.outputs):
            raise ReplayMismatch(
                f"replay produced extra output seq {seq} at instr "
                f"{self.instr}"
            )
        expected_seq, expected_instr, _ = self.recording.outputs[seq]
        if (seq, self.instr) != (expected_seq, expected_instr):
            raise ReplayMismatch(
                f"output {seq} emitted at instr {self.instr}, "
                f"recorded at {expected_instr}"
            )

    def request_disk(self, blocks, fn, args, write) -> None:
        """Disk requests are matched positionally to recorded deliveries
        (the guest issues them in the same deterministic order)."""
        if self._disk_cursor >= len(self.recording.disk):
            raise ReplayMismatch(
                f"replay issued more disk requests than recorded "
                f"({self._disk_cursor + 1})"
            )
        _, delivery_instr = self.recording.disk[self._disk_cursor]
        self._disk_cursor += 1
        if delivery_instr < self.instr:
            raise ReplayMismatch(
                f"recorded disk delivery at instr {delivery_instr} "
                f"precedes the request at {self.instr}"
            )
        self._push(delivery_instr, "disk", (fn, args))

    # ------------------------------------------------------------------
    # replay loop
    # ------------------------------------------------------------------
    def _push(self, instr: int, kind: str, payload) -> None:
        heapq.heappush(self._events, (instr, self._order, kind, payload))
        self._order += 1

    def _apply_due_epochs(self, target: int) -> None:
        while self._epochs:
            boundary = self.clock.next_epoch_boundary()
            if boundary is None or boundary > target:
                return
            index, samples = self._epochs[0]
            if index != self.clock.epoch_index:
                raise ReplayMismatch(
                    f"epoch ordering mismatch: recorded {index}, "
                    f"clock at {self.clock.epoch_index}"
                )
            self._epochs.pop(0)
            self.clock.apply_epoch_resync(samples)

    def run(self) -> List[Tuple[int, int, Any]]:
        """Replay to the recording's horizon; returns the outputs."""
        horizon = self.recording.horizon_instr
        while True:
            guest_next = self.guest.next_event_instr()
            replay_next = self._events[0][0] if self._events else None
            candidates = [c for c in (guest_next, replay_next)
                          if c is not None]
            if not candidates:
                break
            target = min(candidates)
            if target > horizon and replay_next is None:
                break
            self._apply_due_epochs(target)
            self.instr = max(self.instr, target)
            self.guest.run_due_events(self.instr)
            while self._events and self._events[0][0] <= self.instr:
                _, _, kind, payload = heapq.heappop(self._events)
                if kind == "net":
                    self.guest.deliver_packet(payload)
                elif kind == "tick":
                    self.guest.deliver_tick(payload)
                else:  # disk
                    fn, args = payload
                    fn(*args)
        if len(self.outputs) != len(self.recording.outputs):
            raise ReplayMismatch(
                f"replay produced {len(self.outputs)} outputs, recording "
                f"has {len(self.recording.outputs)}"
            )
        return self.outputs
