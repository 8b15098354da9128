"""The event loop: a binary-heap discrete-event simulator.

Time is a float in **seconds of simulated real (wall-clock) time**.  All
higher layers (virtual time inside guests, virtual device clocks) are
derived quantities computed by the VMM; the kernel itself only ever deals
in real time.

Scheduling is deterministic: events at the same timestamp fire in the order
they were scheduled (FIFO tie-break via a monotonically increasing sequence
number), so a simulation with fixed RNG seeds is exactly reproducible.

Every scheduled call is one entry on a single :mod:`heapq` list (see
DESIGN.md).  Entries are ``list`` subclasses laid out as ``[time, seq,
fn, args, state, owner]``, so every sift compares on the C fast path
(``list.__lt__`` compares ``time`` then ``seq``; ``seq`` is unique, so
later elements are never reached) and the heap pops in exactly
``(time, seq)`` order.  A cancelled entry stays in the heap until it
reaches the head, where it is discarded without firing.
"""

import sys
import time as _time
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from repro.sim.errors import SimulationError
from repro.sim.events import Event

#: entry state machine: scheduled -> fired | cancelled
_PENDING, _FIRED, _CANCELLED = 0, 1, 2

_INF = float("inf")


class ScheduledCall(list):
    """A handle to a scheduled callback; supports cancellation.

    Instances are created by :meth:`Simulator.call_at` /
    :meth:`Simulator.call_after`.  The handle *is* the queue entry: a
    list ``[time, seq, fn, args, state, owner]`` that compares by
    ``(time, seq)`` through C-level ``list`` comparison, so it can live
    directly in the heap with zero boxing.
    """

    __slots__ = ()

    # -- structured accessors (hot code indexes the list directly) -------
    @property
    def time(self) -> float:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def cancelled(self) -> bool:
        return self[4] == _CANCELLED

    @property
    def fired(self) -> bool:
        return self[4] == _FIRED

    def cancel(self) -> None:
        """Prevent the callback from running (no-op if already fired)."""
        if self[4] != _PENDING:
            return
        self[4] = _CANCELLED
        self[2] = None
        self[3] = ()
        owner = self[5]
        if owner is not None:
            owner._cancelled_pending += 1

    def __repr__(self) -> str:
        state = ("cancelled" if self[4] == _CANCELLED
                 else "fired" if self[4] == _FIRED else "pending")
        return f"<ScheduledCall t={self[0]:.6f} seq={self[1]} {state}>"


class TimerWheel:
    """Batches many same-period recurring callbacks onto one kernel timer.

    A fleet schedules heartbeat/liveness timers by the hundreds, all with
    the same period.  Registering them here multiplexes every callback
    sharing a phase slot onto a single kernel entry, so the kernel pays
    one queue entry per (period, phase) group per cycle instead of one
    per timer.  Within a slot, callbacks fire in registration order
    (deterministic); a callback returning ``False`` unregisters itself.

    Each tick reschedules the slot's next entry *before* its callbacks
    run, so the next tick draws its sequence number at fire time -- the
    FIFO position a hand-rolled ``call_after`` chain that reschedules
    before doing its work would get -- and a callback sees it pending.
    A slot left with no callbacks cancels its entry and is dropped.

    ``phase`` is the offset of the first fire from registration time
    (default: one full period, matching ``call_after(period, fn)``).
    """

    __slots__ = ("sim", "period", "_slots", "count")

    def __init__(self, sim: "Simulator", period: float):
        if period <= 0:
            raise SimulationError(
                f"wheel period must be positive, got {period}")
        self.sim = sim
        self.period = period
        #: first-fire time -> slot ``[first, next entry, [(fn, args)]]``
        self._slots: Dict[float, list] = {}
        self.count = 0

    def add(self, fn: Callable, *args, phase: Optional[float] = None):
        """Register ``fn(*args)`` to run every ``period`` seconds."""
        if phase is None:
            phase = self.period
        if phase < 0:
            raise SimulationError(f"negative wheel phase: {phase}")
        first = self.sim.now + phase
        slot = self._slots.get(first)
        if slot is None:
            slot = [first, None, []]
            slot[1] = self.sim.call_at(first, self._tick, slot)
            self._slots[first] = slot
        slot[2].append((fn, args))
        self.count += 1
        return (slot, (fn, args))

    def remove(self, token) -> None:
        """Unregister a callback by the token :meth:`add` returned."""
        slot, entry = token
        try:
            slot[2].remove(entry)
        except ValueError:
            return
        self.count -= 1
        if not slot[2]:
            self._drop(slot)

    def _drop(self, slot: list) -> None:
        slot[1].cancel()
        # a tick whose callback removed the last entry drops it twice
        if self._slots.get(slot[0]) is slot:
            del self._slots[slot[0]]

    def _tick(self, slot: list) -> None:
        slot[1] = self.sim.call_at(self.sim.now + self.period, self._tick,
                                   slot)
        callbacks = slot[2]
        # iterate over a snapshot: callbacks may unregister themselves
        for entry in tuple(callbacks):
            fn, args = entry
            if fn(*args) is False:
                try:
                    callbacks.remove(entry)
                except ValueError:
                    pass
                else:
                    self.count -= 1
        if not callbacks:
            self._drop(slot)

    def __repr__(self) -> str:
        return (f"<TimerWheel period={self.period:.6f} "
                f"timers={self.count} slots={len(self._slots)}>")


class Simulator:
    """The discrete-event loop.

    Usage::

        sim = Simulator(seed=7)
        sim.call_at(1.0, my_callback, arg)
        sim.run(until=10.0)

    The ``seed`` feeds the simulator's :class:`~repro.sim.rng.RngRegistry`,
    exposed as :attr:`rng`; components ask for named streams so that adding
    a new component never perturbs the draws of existing ones.
    """

    def __init__(self, seed: int = 0, trace=None):
        from repro.sim.rng import RngRegistry
        from repro.sim.monitor import MetricSet, Trace
        from repro.obs.flows import FlowTracker

        self.now: float = 0.0
        self._seq: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._cancelled_pending: int = 0
        #: the heap of queued entries, cancelled ones included
        self._queue: List[ScheduledCall] = []
        self._wheels: Dict[float, TimerWheel] = {}

        self.rng = RngRegistry(seed)
        self.trace = trace if trace is not None else Trace()
        #: simulation-wide counters/observations (fault and recovery
        #: bookkeeping records here even when tracing is disabled)
        self.metrics = MetricSet()
        #: causal flow/span tracking (repro.obs); off by default -- every
        #: pipeline hook is a single predicate test until enabled
        self.flows = FlowTracker(enabled=False)
        self.event_count: int = 0
        self.cancelled_count: int = 0
        self.heap_high_water: int = 0
        self.wall_seconds: float = 0.0

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def call_at(self, time: float, fn: Callable, *args) -> ScheduledCall:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        if not time >= self.now:     # also catches NaN
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = ScheduledCall((time, seq, fn, args, 0, self))
        queue = self._queue
        heappush(queue, entry)
        if len(queue) > self.heap_high_water:
            self.heap_high_water = len(queue)
        return entry

    def call_after(self, delay: float, fn: Callable, *args) -> ScheduledCall:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self.now + delay, fn, *args)

    def call_soon(self, fn: Callable, *args) -> ScheduledCall:
        """Schedule ``fn(*args)`` at the current time (after pending events
        already scheduled for this instant)."""
        return self.call_at(self.now, fn, *args)

    def shared_wheel(self, period: float) -> TimerWheel:
        """The simulation-wide :class:`TimerWheel` for ``period``.

        Components with the same recurring period (heartbeats, liveness
        sweeps) register here so in-phase timers across the whole fleet
        share one kernel entry per cycle instead of one each.
        """
        wheel = self._wheels.get(period)
        if wheel is None:
            self._wheels[period] = wheel = TimerWheel(self, period)
        return wheel

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def event(self):
        """Return a fresh, untriggered :class:`~repro.sim.events.Event`."""
        return Event(self)

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def _head(self) -> Optional[ScheduledCall]:
        """The next live entry, left on the heap; None when none remain.

        Cancelled entries that reach the head are discarded (and
        counted) on the way.
        """
        queue = self._queue
        while queue:
            entry = queue[0]
            if entry[4] == _PENDING:
                return entry
            heappop(queue)
            self._cancelled_pending -= 1
            self.cancelled_count += 1
        return None

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` *live* events have fired (whichever comes first);
        returns the number of events fired by this call.

        Cancelled entries are discarded for free: they consume no event
        budget and never push the clock past ``until``.  When ``until``
        is given and **no live event at or before it remains**, the
        clock is advanced to exactly ``until`` on return, which makes
        measurement windows line up across runs.  Live events still due
        at or before ``until`` (left by ``max_events`` or ``stop()``)
        pin the clock instead -- advancing past them would rewind time
        on the next ``run()`` and make their schedules "in the past".

        An event counts as fired once its callback is called, so a
        callback that raises is counted in :attr:`event_count` too.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        self._stopped = False
        fired = 0
        bound = _INF if until is None else until
        budget = sys.maxsize if max_events is None else max_events
        queue = self._queue
        started = _time.perf_counter()
        try:
            while queue and not self._stopped and fired < budget:
                entry = queue[0]
                if entry[4] != _PENDING:
                    # cancelled entry: discard for free
                    heappop(queue)
                    self._cancelled_pending -= 1
                    self.cancelled_count += 1
                    continue
                time = entry[0]
                if time > bound:
                    break
                heappop(queue)
                self.now = time
                entry[4] = _FIRED
                fn = entry[2]
                args = entry[3]
                entry[2] = None
                entry[3] = ()
                entry[5] = None   # break the entry->simulator cycle for the GC
                fired += 1
                fn(*args)
            if until is not None and until > self.now and not self._stopped:
                head = self._head()
                if head is None or head[0] > until:
                    self.now = until
        finally:
            self.event_count += fired
            self._running = False
            self.wall_seconds += _time.perf_counter() - started
        return fired

    def stop(self) -> None:
        """Request the current :meth:`run` to return after this event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired live (non-cancelled) scheduled calls."""
        return len(self._queue) - self._cancelled_pending

    def peek(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        head = self._head()
        return None if head is None else head[0]

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Event-loop health counters as plain data;
        ``events_per_second`` is fired events per host wall-clock
        second across all runs."""
        wall = self.wall_seconds
        return {
            "now": self.now,
            "events_fired": self.event_count,
            "events_cancelled": self.cancelled_count,
            "events_pending": self.pending_events,
            "heap_high_water": self.heap_high_water,
            "wall_seconds": wall,
            "events_per_second": self.event_count / wall if wall > 0.0
            else 0.0,
            "trace_records": len(self.trace),
            "trace_dropped": getattr(self.trace, "dropped", 0),
            "metric_counters": dict(self.metrics.counters),
        }

    def __repr__(self) -> str:
        return (f"<Simulator now={self.now:.6f} "
                f"pending={self.pending_events}>")
