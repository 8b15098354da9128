"""Discrete-event simulation kernel.

This subpackage is the substrate on which the whole StopWatch reproduction
runs: a callback-driven discrete-event simulator (calendar queue, periodic
timers, timer wheels), one-shot events, named deterministic random streams
and a tracing facility.  Every simulation component schedules plain
callbacks; the guest engine (:mod:`repro.vmm.hypervisor`) resumes its own
generator straight from the kernel.

The public surface mirrors what the rest of the library needs:

- :class:`Simulator` -- the event loop and clock.
- :class:`Event` -- a one-shot event; waiters ``add_callback``.
- :class:`RngRegistry` -- named, seeded random streams.
- :class:`Trace` -- an in-memory event recorder used by the experiment
  harnesses.

A generator-process library (:class:`Process`, :class:`Timeout`,
:class:`Channel`, :class:`Store`, :class:`Resource`) remains for
callers that want coroutine-style activities; no simulation component
uses it.
"""

from repro.sim.errors import (
    SimulationError,
    ProcessFailed,
    Interrupt,
    ChannelClosed,
)
from repro.sim.events import Event, Timeout
from repro.sim.kernel import Simulator, ScheduledCall
from repro.sim.process import Process
from repro.sim.channel import Channel, Store
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry, derive_root_seed
from repro.sim.monitor import (Trace, TraceRecord, MetricSet, Histogram,
                               JsonlSink, CategoryFilter, category_matches)

__all__ = [
    "Simulator",
    "ScheduledCall",
    "Process",
    "Event",
    "Timeout",
    "Channel",
    "Store",
    "Resource",
    "RngRegistry",
    "derive_root_seed",
    "Trace",
    "TraceRecord",
    "MetricSet",
    "Histogram",
    "JsonlSink",
    "CategoryFilter",
    "category_matches",
    "SimulationError",
    "ProcessFailed",
    "Interrupt",
    "ChannelClosed",
]
