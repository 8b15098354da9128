"""Wray's clock taxonomy, as seen from inside a StopWatch guest.

Wray [32] classifies the clocks an attacker can measure with:

- **RT** -- real-time clocks (here: the guest's virtual clock, since
  StopWatch replaces every real-time source with virtual time);
- **IO** -- the I/O subsystem (network/disk interrupt arrivals);
- **TL** -- a CPU timing loop (here: the branch counter);
- **Mem** -- the memory subsystem (functionally equivalent to TL in a
  uniprocessor guest; represented by the branch counter as well).

:class:`ClockObserver` is an attacker workload that stamps every
observable event with all of these clocks at once.  Under StopWatch,
RT/TL/PIT are all deterministic functions of guest progress, so the
only externally influenced clock is IO -- and IO timings are medians.
The determinism tests assert exactly this collapse.
"""

from typing import List, NamedTuple

from repro.net.udp import UdpStack
from repro.workloads.base import GuestWorkload

ATTACKER_PORT = 7


class ClockSample(NamedTuple):
    """One observable event stamped with every guest-buildable clock."""

    event_index: int
    virt: float          # RT clock (virtualised)
    instr: int           # TL / Mem clock (branch counter)
    pit_ticks: int       # timer-interrupt count


class ClockObserver(GuestWorkload):
    """Attacker guest: echoes pings and stamps each arrival."""

    def __init__(self, guest, compute_branches: int = 15000):
        super().__init__(guest)
        self.compute_branches = compute_branches
        self.udp = UdpStack(guest)
        self.samples: List[ClockSample] = []
        self._pit_ticks = 0

    def start(self) -> None:
        self.guest.on_timer_tick(self._on_tick)
        self.udp.bind(ATTACKER_PORT, self._on_datagram)

    def _on_tick(self, index: int) -> None:
        self._pit_ticks = index

    def _on_datagram(self, datagram, src: str) -> None:
        self.samples.append(ClockSample(
            event_index=len(self.samples),
            virt=self.guest.now(),
            instr=self.guest.instr,
            pit_ticks=self._pit_ticks,
        ))
        self.guest.compute(self.compute_branches, self._reply, src,
                           datagram)

    def _reply(self, src: str, datagram) -> None:
        self.udp.send(src, ATTACKER_PORT, datagram.src_port,
                      datagram.data_len, tag=datagram.tag)

    # -- derived clock readings ----------------------------------------
    def inter_arrival_virts(self) -> List[float]:
        """IO-event spacing measured with the RT (virtual) clock."""
        return [b.virt - a.virt
                for a, b in zip(self.samples, self.samples[1:])]

    def inter_arrival_instrs(self) -> List[int]:
        """IO-event spacing measured with the TL clock (branches)."""
        return [b.instr - a.instr
                for a, b in zip(self.samples, self.samples[1:])]
