"""The event loop: a calendar-queue discrete-event simulator.

Time is a float in **seconds of simulated real (wall-clock) time**.  All
higher layers (virtual time inside guests, virtual device clocks) are
derived quantities computed by the VMM; the kernel itself only ever deals
in real time.

Scheduling is deterministic: events at the same timestamp fire in the order
they were scheduled (FIFO tie-break via a monotonically increasing sequence
number), so a simulation with fixed RNG seeds is exactly reproducible.

The scheduler is a three-tier calendar queue (see DESIGN.md):

- a **current batch**: the sorted entries of the time slot being drained,
  consumed by advancing an index (no per-event heap sift);
- **near-future buckets**: unsorted per-slot lists covering a sliding
  window of ``span_slots`` slots of ``bucket_width`` seconds each, found
  via a small heap of occupied slot indices and sorted once on first
  access (one Timsort per bucket instead of two heap sifts per event);
- a **far heap** holding everything beyond the window (long sweeps,
  scenario-end timers), drained into buckets when the window advances.

Entries are ``list`` subclasses laid out as ``[time, seq, fn, args,
state, owner]`` so every comparison the queue makes -- bucket sorts,
bisects of same-slot inserts, far-heap sifts -- runs on the C fast path
(``list.__lt__`` compares ``time`` then ``seq``; ``seq`` is unique, so
later elements are never reached).  Fire order is by ``(time, seq)``
regardless of which tier an entry sat in, which is what keeps the
calendar bit-identical to a plain binary heap (property-tested).
"""

import heapq
import time as _time
from bisect import insort
from typing import Callable, Dict, List, Optional

from repro.sim.errors import SimulationError
from repro.sim.events import Event, Timeout

#: entry state machine: scheduled -> fired | cancelled
_PENDING, _FIRED, _CANCELLED = 0, 1, 2

#: default calendar geometry: 64 us slots, an 8192-slot (~0.5 s) window.
#: Dense fleets put tens of entries per slot; sparse runs jump occupied
#: slots via the slot heap, so empty slots are never visited.
DEFAULT_BUCKET_WIDTH = 64e-6
DEFAULT_SPAN_SLOTS = 8192

_INF = float("inf")


class ScheduledCall(list):
    """A handle to a scheduled callback; supports cancellation.

    Instances are created by :meth:`Simulator.call_at` /
    :meth:`Simulator.call_after`.  The handle *is* the queue entry: a
    list ``[time, seq, fn, args, state, owner]`` that compares by
    ``(time, seq)`` through C-level ``list`` comparison, so it can live
    directly in bucket lists and heaps with zero boxing.
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


class PeriodicCall:
    """A self-rescheduling timer created by :meth:`Simulator.call_every`.

    Each recurrence draws a fresh sequence number at fire time -- the
    same FIFO position a hand-rolled ``call_after`` chain that
    reschedules *before* doing its work would get -- but the kernel
    reuses this one handle instead of allocating a new
    :class:`ScheduledCall` per cycle.
    """

    __slots__ = ("sim", "interval", "fn", "args", "_entry", "cancelled",
                 "fires")

    def __init__(self, sim: "Simulator", interval: float, fn: Callable,
                 args: tuple, start_at: float):
        if interval <= 0:
            raise SimulationError(
                f"periodic interval must be positive, got {interval}")
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fires = 0
        self._entry = sim.call_at(start_at, self._tick)

    def _tick(self) -> None:
        if self.cancelled:
            return
        # reschedule first: the callback sees the next occurrence pending,
        # exactly like the reschedule-then-work call_after idiom
        self._entry = self.sim.call_at(self.sim.now + self.interval,
                                       self._tick)
        self.fires += 1
        self.fn(*self.args)

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        self._entry.cancel()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "active"
        return (f"<PeriodicCall every={self.interval:.6f} "
                f"fires={self.fires} {state}>")


class TimerWheel:
    """Batches many same-period recurring callbacks onto one kernel timer.

    A fleet schedules heartbeat/liveness timers by the hundreds, all with
    the same period.  Registering them here multiplexes every callback
    sharing a phase slot onto a single :class:`PeriodicCall`, so the
    kernel pays one queue entry per (period, phase) group per cycle
    instead of one per timer.  Within a slot, callbacks fire in
    registration order (deterministic); a callback returning ``False``
    unregisters itself.

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
        #: first-fire time -> (PeriodicCall, [callbacks])
        self._slots: Dict[float, tuple] = {}
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
            callbacks: list = []
            timer = PeriodicCall(self.sim, self.period, self._fire,
                                 (callbacks,), first)
            self._slots[first] = slot = (timer, callbacks)
        slot[1].append((fn, args))
        self.count += 1
        return (slot, (fn, args))

    def remove(self, token) -> None:
        """Unregister a callback by the token :meth:`add` returned."""
        slot, entry = token
        try:
            slot[1].remove(entry)
        except ValueError:
            return
        self.count -= 1
        if not slot[1]:
            slot[0].cancel()
            for first, existing in list(self._slots.items()):
                if existing is slot:
                    del self._slots[first]
                    break

    def _fire(self, callbacks: list) -> None:
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

    With ``profile=True`` every callback's host wall time is accumulated
    by a :class:`~repro.prof.profiler.SubsystemProfiler` (exposed as
    :attr:`profiler`; pass an instance instead of ``True`` to tune the
    timeline geometry), whose ``summary()`` attributes the loop's time
    to subsystems and callbacks; the default keeps the hot loop
    uninstrumented.  Profiling is measurement-only: event order, RNG
    draws and every trace are byte-identical with it on or off.

    ``bucket_width``/``span_slots`` tune the calendar geometry (seconds
    per slot, slots per window); the defaults suit the fleet benchmarks
    and fire order never depends on them.
    """

    def __init__(self, seed: int = 0, trace=None, profile: bool = False,
                 bucket_width: float = DEFAULT_BUCKET_WIDTH,
                 span_slots: int = DEFAULT_SPAN_SLOTS):
        from repro.sim.rng import RngRegistry
        from repro.sim.monitor import MetricSet, Trace
        from repro.obs.flows import FlowTracker

        if bucket_width <= 0:
            raise SimulationError(
                f"bucket_width must be positive, got {bucket_width}")
        if span_slots < 2:
            raise SimulationError(
                f"span_slots must be >= 2, got {span_slots}")

        self.now: float = 0.0
        self._seq: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self._cancelled_pending: int = 0

        # calendar state (see module docstring)
        self._width = bucket_width
        self._inv_width = 1.0 / bucket_width
        self._span = span_slots
        self._cur: list = []          # sorted entries of the current slot
        self._cur_pos: int = 0
        self._cur_slot: int = 0
        self._cur_end: float = bucket_width      # (cur_slot + 1) * width
        self._buckets: Dict[int, list] = {}
        self._slot_heap: List[int] = []
        self._horizon_slot: int = span_slots
        self._horizon: float = span_slots * bucket_width
        self._far: list = []
        self._size: int = 0           # queued entries, incl. cancelled
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
        self.bucket_high_water: int = 0
        self.far_high_water: int = 0
        self.wall_seconds: float = 0.0
        self.profile = bool(profile)
        #: subsystem-attributed profiler (repro.prof), present only when
        #: profiling -- measurement only, never perturbs event order
        self.profiler = None
        if self.profile:
            from repro.prof.profiler import SubsystemProfiler
            self.profiler = (profile if isinstance(profile,
                                                   SubsystemProfiler)
                             else SubsystemProfiler())

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
        if time < self._cur_end:
            # lands in the slot being drained: ordered insert after the
            # consumption point (C bisect; entries compare by (time, seq))
            insort(self._cur, entry, self._cur_pos)
        elif time < self._horizon:
            slot = int(time * self._inv_width)
            bucket = self._buckets.get(slot)
            if bucket is None:
                self._buckets[slot] = [entry]
                heapq.heappush(self._slot_heap, slot)
            else:
                bucket.append(entry)
        else:
            heapq.heappush(self._far, entry)
            far_size = len(self._far)
            if far_size > self.far_high_water:
                self.far_high_water = far_size
        size = self._size + 1
        self._size = size
        if size > self.heap_high_water:
            self.heap_high_water = size
        return entry

    def call_after(self, delay: float, fn: Callable, *args) -> ScheduledCall:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.call_at(self.now + delay, fn, *args)

    def call_soon(self, fn: Callable, *args) -> ScheduledCall:
        """Schedule ``fn(*args)`` at the current time (after pending events
        already scheduled for this instant)."""
        # specialised call_at(now, ...): the past-check cannot fail, and
        # now always lands in the current batch (mid-run now < _cur_end;
        # after a drained run the batch degenerates to an append)
        seq = self._seq
        self._seq = seq + 1
        entry = ScheduledCall((self.now, seq, fn, args, 0, self))
        insort(self._cur, entry, self._cur_pos)
        size = self._size + 1
        self._size = size
        if size > self.heap_high_water:
            self.heap_high_water = size
        return entry

    def call_every(self, interval: float, fn: Callable, *args,
                   start_after: Optional[float] = None) -> PeriodicCall:
        """Run ``fn(*args)`` every ``interval`` seconds (first fire after
        ``start_after``, default one interval).  Returns a cancellable
        :class:`PeriodicCall` that reuses its kernel entry per cycle."""
        first = self.now + (interval if start_after is None else start_after)
        if first < self.now:
            raise SimulationError(f"negative start_after: {start_after}")
        return PeriodicCall(self, interval, fn, args, first)

    def timer_wheel(self, period: float) -> TimerWheel:
        """A :class:`TimerWheel` batching same-``period`` recurring
        callbacks onto shared kernel timers."""
        return TimerWheel(self, period)

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
    # processes and waitables
    # ------------------------------------------------------------------
    def process(self, generator, name: Optional[str] = None):
        """Start a generator as a :class:`~repro.sim.process.Process`."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def timeout(self, delay: float, value=None):
        """Return an :class:`~repro.sim.events.Timeout` waitable."""
        return Timeout(self, delay, value)

    def event(self):
        """Return a fresh, untriggered :class:`~repro.sim.events.Event`."""
        return Event(self)

    # ------------------------------------------------------------------
    # the calendar
    # ------------------------------------------------------------------
    def _advance(self) -> bool:
        """Make ``self._cur[self._cur_pos]`` the next live entry.

        Returns False when the queue holds no live entries.  Cancelled
        entries are discarded (and counted) on the way; drained buckets
        are dropped, and the window is advanced over the far heap when
        the near-future tiers run dry.
        """
        while True:
            cur = self._cur
            pos = self._cur_pos
            n = len(cur)
            while pos < n:
                if cur[pos][4] == _PENDING:
                    self._cur_pos = pos
                    return True
                # cancelled entry: discard for free
                pos += 1
                self._size -= 1
                self._cancelled_pending -= 1
                self.cancelled_count += 1
            self._cur_pos = pos
            slot_heap = self._slot_heap
            if slot_heap:
                slot = heapq.heappop(slot_heap)
                bucket = self._buckets.pop(slot)
                bucket.sort()
                if len(bucket) > self.bucket_high_water:
                    self.bucket_high_water = len(bucket)
                self._cur = bucket
                self._cur_pos = 0
                self._cur_slot = slot
                self._cur_end = (slot + 1) * self._width
                continue
            far = self._far
            if far:
                head_time = far[0][0]
                if head_time == _INF:
                    # everything left is at t=inf: heap order is already
                    # (time, seq) order; drain it as one final batch
                    batch = [heapq.heappop(far) for _ in range(len(far))]
                    self._cur = batch
                    self._cur_pos = 0
                    self._cur_end = _INF
                    continue
                head_slot = int(head_time * self._inv_width)
                self._horizon_slot = head_slot + self._span
                self._horizon = self._horizon_slot * self._width
                horizon = self._horizon
                buckets = self._buckets
                inv_width = self._inv_width
                while far and far[0][0] < horizon:
                    entry = heapq.heappop(far)
                    slot = int(entry[0] * inv_width)
                    bucket = buckets.get(slot)
                    if bucket is None:
                        buckets[slot] = [entry]
                        heapq.heappush(slot_heap, slot)
                    else:
                        bucket.append(entry)
                continue
            return False

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run a single live event; return False when none remain."""
        if not self._advance():
            return False
        entry = self._cur[self._cur_pos]
        self._cur_pos += 1
        self._size -= 1
        self.now = entry[0]
        self.event_count += 1
        entry[4] = _FIRED
        fn = entry[2]
        args = entry[3]
        entry[2] = None
        entry[3] = ()
        entry[5] = None   # break reference cycles (incl. entry->simulator)
        if self.profiler is not None:
            started = _time.perf_counter()
            fn(*args)
            self.profiler.record(fn, _time.perf_counter() - started,
                                 self.now, self._size)
        else:
            fn(*args)
        return True

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
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        self._stopped = False
        fired = 0
        started = _time.perf_counter()
        profile = self.profile
        try:
            if max_events is None and not profile:
                fired = self._run_fast(until)
            else:
                while not self._stopped:
                    if max_events is not None and fired >= max_events:
                        break
                    if not self._advance():
                        break
                    if until is not None \
                            and self._cur[self._cur_pos][0] > until:
                        break
                    self.step()
                    fired += 1
            if until is not None and until > self.now and not self._stopped:
                if not self._advance() or self._cur[self._cur_pos][0] > until:
                    self.now = until
        finally:
            self._running = False
            self.wall_seconds += _time.perf_counter() - started
        return fired

    def _run_fast(self, until: Optional[float]) -> int:
        """The unbudgeted, unprofiled hot loop: inlined :meth:`step` with
        the live-head common case of :meth:`_advance` folded in."""
        fired = 0
        bound = _INF if until is None else until
        advance = self._advance
        while not self._stopped:
            cur = self._cur
            pos = self._cur_pos
            if pos >= len(cur) or cur[pos][4] != _PENDING:
                if not advance():
                    break
                cur = self._cur
                pos = self._cur_pos
            entry = cur[pos]
            time = entry[0]
            if time > bound:
                break
            self._cur_pos = pos + 1
            self._size -= 1
            self.now = time
            entry[4] = _FIRED
            fn = entry[2]
            args = entry[3]
            entry[2] = None
            entry[3] = ()
            entry[5] = None   # break the entry->simulator cycle for the GC
            fn(*args)
            fired += 1
        self.event_count += fired
        return fired

    def stop(self) -> None:
        """Request the current :meth:`run` to return after this event."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of not-yet-fired live (non-cancelled) scheduled calls."""
        return self._size - self._cancelled_pending

    def peek(self) -> Optional[float]:
        """Time of the next live event, or None if the queue is empty."""
        if not self._advance():
            return None
        return self._cur[self._cur_pos][0]

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
            "bucket_high_water": self.bucket_high_water,
            "far_high_water": self.far_high_water,
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
