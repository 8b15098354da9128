"""The deterministic guest runtime (one per replica).

A guest workload is a callback-driven program written against this
interface.  Its entire observable world is:

- virtual time (:meth:`GuestOS.now`) and the branch counter
  (:attr:`GuestOS.instr`) -- pure functions of executed instructions;
- injected events: network packets, disk completions and PIT ticks, all
  delivered at VMM-controlled virtual times;
- its own deterministic RNG stream (identical across replicas).

Because nothing else is visible, two replicas driven with identical
injection schedules execute identically -- the invariant StopWatch's
design rests on, and one our integration tests assert.

``GuestOS`` implements the NetHost interface (``now`` / ``schedule`` /
``send_packet`` / ``register_protocol`` / ``rng``), so the TCP and UDP
stacks from :mod:`repro.net` run unmodified inside guests.
"""

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.machine.devices.clocks import GuestClockPanel


class GuestTimer:
    """Cancellable handle for a scheduled guest event.

    ``flow`` carries the inbound-packet flow context active when the
    event was scheduled, so asynchronous work (an echo reply after a
    compute phase, a file chunk after a disk read) stays attributed to
    the packet that caused it.  Purely observational -- it never affects
    ordering.
    """

    __slots__ = ("fn", "args", "cancelled", "flow")

    def __init__(self, fn: Callable, args: tuple,
                 flow: Optional[int] = None):
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.flow = flow

    def cancel(self) -> None:
        self.cancelled = True
        self.fn = None
        self.args = ()


class GuestOS:
    """The guest-visible operating environment."""

    def __init__(self, vmm, workload_rng):
        self.vmm = vmm
        self.address = vmm.vm_address
        self.rng = workload_rng
        # a heap of (instr, seq, timer): seq is unique, so the tuples
        # order in C by (instr, seq) and never compare two timers
        self._events: List[Tuple[int, int, GuestTimer]] = []
        self._seq = 0
        self._protocols: Dict[str, Callable] = {}
        self._tick_handlers: List[Callable] = []
        self.clocks = GuestClockPanel(rtc_boot_epoch=vmm.clock.start)
        self.packets_received = 0
        self.packets_sent = 0
        self._current_flow: Optional[int] = None

    # ------------------------------------------------------------------
    # NetHost interface + guest extras (workload-facing)
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current virtual time (the only clock a guest can see)."""
        return self.vmm.current_virt()

    @property
    def instr(self) -> int:
        """The guest branch counter (a TL-style clock for attackers)."""
        return self.vmm.instr

    # -- virtualised clock devices (Sec. IV-B) --------------------------
    def read_tsc(self) -> int:
        """``rdtsc``: scaled from virtual time, not real time."""
        return self.clocks.tsc.read(self.now())

    def read_rtc(self) -> int:
        """The CMOS RTC, seconds resolution, answered in virtual time."""
        return self.clocks.rtc.read(self.now())

    def read_pit_counter(self) -> int:
        """The PIT count-down counter, driven by virtual time."""
        return self.clocks.pit_counter.read(self.now())

    def schedule(self, delay: float, fn: Callable, *args) -> GuestTimer:
        """Run ``fn(*args)`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        target = self.vmm.clock.instr_at(self.now() + delay)
        return self.schedule_at_instr(max(target, self.vmm.instr), fn, *args)

    def compute(self, branches: int, fn: Callable, *args) -> GuestTimer:
        """Run ``fn(*args)`` after executing ``branches`` more branches
        (models a CPU-bound phase of the workload)."""
        if branches < 0:
            raise ValueError(f"negative branch count: {branches}")
        return self.schedule_at_instr(self.vmm.instr + branches, fn, *args)

    def schedule_at_instr(self, instr: int, fn: Callable,
                          *args) -> GuestTimer:
        timer = GuestTimer(fn, args, flow=self._current_flow)
        heapq.heappush(self._events, (instr, self._seq, timer))
        self._seq += 1
        return timer

    def send_packet(self, packet) -> None:
        """Emit a packet (to the egress node under StopWatch)."""
        self.packets_sent += 1
        self.vmm.guest_output(packet)

    def register_protocol(self, protocol: str, handler: Callable) -> None:
        if protocol in self._protocols:
            raise ValueError(f"guest {self.address}: protocol "
                             f"{protocol!r} already registered")
        self._protocols[protocol] = handler

    def disk_read(self, blocks: int, fn: Callable, *args) -> None:
        """Issue a disk read; ``fn(*args)`` runs at interrupt delivery."""
        self.vmm.request_disk(blocks, fn, args, write=False)

    def disk_write(self, blocks: int, fn: Callable, *args) -> None:
        self.vmm.request_disk(blocks, fn, args, write=True)

    def on_timer_tick(self, fn: Callable) -> None:
        """Subscribe to PIT timer interrupts (fn(tick_index))."""
        self._tick_handlers.append(fn)

    # ------------------------------------------------------------------
    # VMM-facing driver API
    # ------------------------------------------------------------------
    def next_event_instr(self) -> Optional[int]:
        """Instruction count of the earliest pending guest event."""
        while self._events and self._events[0][2].cancelled:
            heapq.heappop(self._events)
        return self._events[0][0] if self._events else None

    def run_due_events(self, instr: int) -> None:
        """Execute every pending event with ``event.instr <= instr``,
        each under the flow context it was scheduled in."""
        while self._events:
            head_instr, _, head = self._events[0]
            if head.cancelled:
                heapq.heappop(self._events)
                continue
            if head_instr > instr:
                break
            heapq.heappop(self._events)
            fn, args = head.fn, head.args
            head.fn, head.args = None, ()
            self._current_flow = head.flow
            try:
                fn(*args)
            finally:
                self._current_flow = None

    def deliver_packet(self, packet) -> None:
        """Called by the VMM when a network interrupt is injected."""
        self.packets_received += 1
        handler = self._protocols.get(packet.protocol)
        if handler is not None:
            handler(packet)

    # ------------------------------------------------------------------
    # flow context (observability only; see repro.obs.flows)
    # ------------------------------------------------------------------
    def current_flow(self) -> Optional[int]:
        """The inbound-packet flow the guest is currently servicing."""
        return self._current_flow

    def set_flow(self, flow: Optional[int]) -> None:
        """Set the active flow context (the VMM brackets injections)."""
        self._current_flow = flow

    def deliver_tick(self, index: int) -> None:
        for handler in self._tick_handlers:
            handler(index)

    def __repr__(self) -> str:
        return f"<GuestOS {self.address} instr={self.vmm.instr}>"
