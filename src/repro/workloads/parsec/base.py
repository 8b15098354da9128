"""Driver machinery shared by the PARSEC-style kernels.

A kernel is a *plan*: an alternating sequence of disk reads (unpacking
inputs), compute batches (the actual algorithm, run for real in Python
with a calibrated branch charge), and disk writes (results).  Completion
is made externally observable the honest way: the guest sends a DONE
datagram to a collector node, so under StopWatch the externally visible
finish time is the egress-median of the replicas' finishes.
"""

import math
import numbers
from typing import Any, List, Optional, Tuple

from repro.net.udp import UdpStack
from repro.workloads.base import GuestWorkload

COLLECTOR_PORT = 7100
DISK_BLOCK = 4096


def scale_problem(scale) -> Optional[str]:
    """Why ``scale`` cannot size a kernel's plan, or None if it can."""
    if isinstance(scale, bool) or not isinstance(scale, numbers.Real) \
            or not math.isfinite(scale) or scale <= 0:
        return f"scale must be a finite number > 0, got {scale!r}"
    return None


class ParsecWorkload(GuestWorkload):
    """Base driver: subclasses provide the plan and the batch kernel."""

    #: human name, overridden
    name = "parsec"
    #: calibrated compute budget (branches) at scale 1.0
    compute_budget = 10**7
    #: disk plan at scale 1.0: (input_reads, output_writes, blocks_each)
    input_reads = 8
    output_writes = 2
    blocks_per_io = 32
    #: how many compute batches the budget is split into
    batches = 20

    def __init__(self, guest, scale: float = 1.0,
                 collector_addr: Optional[str] = None):
        super().__init__(guest)
        self.scale = scale
        self.collector_addr = collector_addr
        self.udp = UdpStack(guest) if collector_addr else None
        self.finished = False
        self.finish_virt: Optional[float] = None
        self.start_virt: Optional[float] = None
        self.result: Any = None
        self.disk_ops = 0
        self._phases: List[Tuple] = []
        self._phase_index = 0

    # -- subclass interface ------------------------------------------------
    def prepare(self) -> None:
        """Generate the kernel's input data (replica-deterministic)."""
        raise NotImplementedError

    def run_batch(self, index: int, total: int) -> None:
        """Execute one batch of real computation."""
        raise NotImplementedError

    def finish_result(self) -> Any:
        """Summarise the computation's output (checked across replicas)."""
        raise NotImplementedError

    # -- plan construction ---------------------------------------------------
    def _build_plan(self) -> None:
        reads = max(1, round(self.input_reads * self.scale))
        writes = max(1, round(self.output_writes * self.scale))
        total_batches = max(1, round(self.batches * self.scale))
        budget = int(self.compute_budget * self.scale)
        per_batch = max(1, budget // total_batches)

        # interleave: all reads first (unpack inputs), then compute
        # batches, then writes -- with a few reads spread mid-run the way
        # streaming kernels behave.
        head_reads = max(1, reads // 2)
        tail_reads = reads - head_reads
        plan: List[Tuple] = [("read",)] * head_reads
        spread = max(1, total_batches // (tail_reads + 1)) if tail_reads \
            else total_batches + 1
        for index in range(total_batches):
            plan.append(("compute", index, total_batches, per_batch))
            if tail_reads > 0 and (index + 1) % spread == 0:
                plan.append(("read",))
                tail_reads -= 1
        plan.extend([("read",)] * max(0, tail_reads))
        plan.extend([("write",)] * writes)
        self._phases = plan

    # -- execution ---------------------------------------------------------
    def start(self) -> None:
        self.start_virt = self.guest.now()
        self.prepare()
        self._build_plan()
        self._phase_index = 0
        self._next_phase()

    def _next_phase(self) -> None:
        if self._phase_index >= len(self._phases):
            self._complete()
            return
        phase = self._phases[self._phase_index]
        self._phase_index += 1
        kind = phase[0]
        if kind == "read":
            self.disk_ops += 1
            self.guest.disk_read(self.blocks_per_io, self._next_phase)
        elif kind == "write":
            self.disk_ops += 1
            self.guest.disk_write(self.blocks_per_io, self._next_phase)
        else:
            _, index, total, branches = phase
            self.run_batch(index, total)
            self.guest.compute(branches, self._next_phase)

    def _complete(self) -> None:
        self.finished = True
        self.finish_virt = self.guest.now()
        self.result = self.finish_result()
        if self.udp is not None:
            self.udp.send(self.collector_addr, COLLECTOR_PORT,
                          COLLECTOR_PORT, 64,
                          tag=("DONE", self.name, self.result))


class RunCollector:
    """Client-side collector: records real completion times of kernels."""

    def __init__(self, client_node):
        self.node = client_node
        self.udp = UdpStack(client_node)
        self.udp.bind(COLLECTOR_PORT, self._on_datagram)
        self.completions: List[Tuple[float, str, Any]] = []

    def _on_datagram(self, datagram, src: str) -> None:
        _, name, result = datagram.tag
        self.completions.append((self.node.now(), name, result))

    def completion_time(self, name: str) -> Optional[float]:
        for time, kernel, _ in self.completions:
            if kernel == name:
                return time
        return None
