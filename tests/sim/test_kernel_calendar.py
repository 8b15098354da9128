"""Event-queue edge cases, fire order against reference models, the
clock-rewind regression, and the recurring-timer primitive
(``TimerWheel``, via ``shared_wheel``).

The clock-rewind test is the regression fixture for the ``run(until=T,
max_events=N)`` bug: the old kernel snapped ``now = T`` whenever ``until``
was given, even with live events at or before ``T`` still queued.  The
next ``run()`` then fired those events and moved the clock *backwards*,
and any ``call_after`` they issued raised "cannot schedule in the past".
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, SimulationError


class TestClockRewindRegression:
    def test_max_events_with_until_does_not_snap_clock(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.call_at(t, fired.append, t)
        assert sim.run(until=10.0, max_events=2) == 2
        # live event at t=3.0 <= until remains: the clock must stay
        # pinned at the last fired event, not jump to until=10.0
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0

    def test_resumed_run_never_rewinds_the_clock(self):
        sim = Simulator()
        seen = []

        def tick(t):
            seen.append((t, sim.now))
            # the old bug made this raise "cannot schedule in the past"
            # after the first budgeted run snapped now to until
            sim.call_after(0.0, lambda: None)

        for t in (1.0, 2.0, 3.0, 4.0):
            sim.call_at(t, tick, t)
        sim.run(until=10.0, max_events=2)
        clock_before_resume = sim.now
        sim.run(until=10.0)
        assert [t for t, _ in seen] == [1.0, 2.0, 3.0, 4.0]
        assert all(now == t for t, now in seen)
        assert sim.now == 10.0
        assert clock_before_resume <= seen[2][1]

    def test_until_still_advances_clock_when_no_live_event_remains(self):
        sim = Simulator()
        sim.call_at(1.0, lambda: None)
        late = sim.call_at(5.0, lambda: None)
        late.cancel()
        sim.run(until=8.0, max_events=10)
        # the only remaining entry was cancelled: snapping to until is
        # correct (and keeps measurement windows aligned)
        assert sim.now == 8.0

    def test_stop_during_run_until_pins_clock_at_stop_event(self):
        sim = Simulator()
        sim.call_at(1.0, sim.stop)
        sim.call_at(2.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 1.0
        sim.run()
        assert sim.now == 2.0


class TestMassCancellation:
    def test_peek_and_pending_agree_after_mass_cancellation(self):
        sim = Simulator()
        handles = [sim.call_at(float(i), lambda: None) for i in range(100)]
        for handle in handles[:90]:
            handle.cancel()
        assert sim.pending_events == 10
        assert sim.peek() == 90.0
        assert sim.pending_events == 10   # peek discards, never fires
        assert sim.run() == 10
        assert sim.pending_events == 0
        assert sim.peek() is None

    def test_cancel_all_leaves_empty_queue(self):
        sim = Simulator()
        handles = [sim.call_after(0.5 * i, lambda: None) for i in range(20)]
        for handle in handles:
            handle.cancel()
        assert sim.pending_events == 0
        assert sim.peek() is None
        assert sim.run() == 0
        assert sim.now == 0.0

    def test_cancel_during_firing_callback_is_noop(self):
        sim = Simulator()
        fired = []
        handle = sim.call_at(1.0, lambda: fired.append("ran"))

        def cancel_racer():
            handle.cancel()   # handle is mid-fire or already fired

        sim.call_at(1.0, cancel_racer)
        handles = [handle]

        def self_cancel():
            handles[0].cancel()   # a callback cancelling itself
            fired.append("self")

        handles[0] = sim.call_at(2.0, self_cancel)
        sim.run()
        assert fired == ["ran", "self"]
        assert handle.fired and not handle.cancelled
        assert handles[0].fired and not handles[0].cancelled
        assert sim.cancelled_count == 0


class _RefCall:
    """A reference-model handle: pending until fired or cancelled."""

    def __init__(self, ref, time, seq, fn, args):
        self.ref, self.time, self.seq = ref, time, seq
        self.fn, self.args = fn, args

    def cancel(self):
        if self in self.ref.entries:
            self.ref.entries.remove(self)


class _Reference:
    """The kernel's contract on a plain list: fire the minimum
    ``(time, seq)`` entry, with ``run``'s budget and clock rules."""

    def __init__(self):
        self.now = 0.0
        self.entries = []
        self._seq = 0

    def call_at(self, time, fn, *args):
        entry = _RefCall(self, time, self._seq, fn, args)
        self._seq += 1
        self.entries.append(entry)
        return entry

    def call_after(self, delay, fn, *args):
        return self.call_at(self.now + delay, fn, *args)

    def call_soon(self, fn, *args):
        return self.call_at(self.now, fn, *args)

    @property
    def pending_events(self):
        return len(self.entries)

    def _head(self):
        return min(self.entries, key=lambda e: (e.time, e.seq),
                   default=None)

    def run(self, until=None, max_events=None):
        fired = 0
        while max_events is None or fired < max_events:
            head = self._head()
            if head is None or until is not None and head.time > until:
                break
            self.entries.remove(head)
            self.now = head.time
            head.fn(*head.args)
            fired += 1
        if until is not None and until > self.now:
            head = self._head()
            if head is None or head.time > until:
                self.now = until
        return fired


class TestCalendarVsReferenceHeap:
    """The kernel must fire in exactly (time, seq) order -- the order a
    plain sorted list with FIFO tie-break produces -- for any schedule,
    including entries at infinity and entries that callbacks schedule
    or cancel while the loop runs."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=20.0,
                  allow_nan=False, allow_infinity=False),
        st.booleans()), min_size=1, max_size=120))
    def test_fire_order_matches_reference(self, schedule):
        sim = Simulator()
        fired = []
        expected = []
        for seq, (t, cancel) in enumerate(schedule):
            handle = sim.call_at(t, fired.append, (t, seq))
            if cancel:
                handle.cancel()
            else:
                expected.append((t, seq))
        sim.run()
        assert fired == sorted(expected)
        assert sim.pending_events == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=5.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=40),
           st.integers(min_value=0, max_value=9))
    def test_dynamic_rescheduling_keeps_order(self, delays, extra):
        sim = Simulator()
        fired = []

        def chain(delay, depth):
            fired.append(sim.now)
            if depth > 0:
                sim.call_after(delay, chain, delay, depth - 1)

        for delay in delays:
            sim.call_after(delay, chain, delay, extra % 3)
        sim.run()
        assert fired == sorted(fired)

    def test_far_future_and_infinity_entries(self):
        sim = Simulator()
        fired = []
        inf = float("inf")
        sim.call_at(inf, fired.append, "end-b")
        sim.call_at(100.0, fired.append, "far")
        sim.call_at(0.0005, fired.append, "near")
        sim.call_at(inf, fired.append, "end-c")
        sim.run()
        assert fired == ["near", "far", "end-b", "end-c"]
        assert sim.now == inf

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
                 min_size=1, max_size=12),
        st.lists(st.one_of(
            st.tuples(st.just("soon"), st.just(0.0)),
            st.tuples(st.just("after"), st.sampled_from([0.0, 0.25, 1.0])),
            st.tuples(st.just("cancel"), st.integers(-3, 12)),
            st.tuples(st.just("idle"), st.just(0))),
            min_size=1, max_size=10),
        st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.5]),
                           st.one_of(st.none(), st.integers(0, 4))),
                 max_size=6))
    def test_in_callback_scheduling_matches_reference(self, times, program,
                                                      slices):
        """Callbacks ``call_soon``, ``call_after`` and ``cancel`` other
        entries (at the current instant too) while ``run(until=...,
        max_events=...)`` slices the loop: the kernel fires what the
        reference model fires, and agrees on the clock and the pending
        count after every slice."""

        def drive(sched):
            log, handles, observed = [], [], []

            def callback(label):
                log.append((sched.now, label))
                op, arg = program[(len(log) - 1) % len(program)]
                if len(log) > 120:        # bound the soon/after chains
                    return
                if op == "soon":
                    handles.append(sched.call_soon(callback, len(handles)))
                elif op == "after":
                    handles.append(sched.call_after(arg, callback,
                                                    len(handles)))
                elif op == "cancel":
                    handles[arg % len(handles)].cancel()

            for t in times:
                handles.append(sched.call_at(t, callback, len(handles)))
            for delta, budget in slices:
                fired = sched.run(until=sched.now + delta,
                                  max_events=budget)
                observed.append((fired, sched.now, sched.pending_events))
            observed.append((sched.run(), sched.now, sched.pending_events))
            return log, observed

        assert drive(Simulator()) == drive(_Reference())


class TestTimerWheel:
    def test_same_phase_timers_share_one_kernel_entry(self):
        sim = Simulator()
        wheel = sim.shared_wheel(1.0)
        order = []
        wheel.add(order.append, "a")
        wheel.add(order.append, "b")
        assert wheel.count == 2
        # two registered timers, one pending kernel entry
        assert sim.pending_events == 1
        sim.run(until=2.5)
        assert order == ["a", "b", "a", "b"]

    def test_phase_offsets_fire_independently(self):
        sim = Simulator()
        wheel = sim.shared_wheel(1.0)
        ticks = []
        wheel.add(lambda: ticks.append(("whole", sim.now)))
        wheel.add(lambda: ticks.append(("half", sim.now)), phase=0.5)
        sim.run(until=2.0)
        assert ticks == [("half", 0.5), ("whole", 1.0),
                         ("half", 1.5), ("whole", 2.0)]

    def test_callback_returning_false_unregisters(self):
        sim = Simulator()
        wheel = sim.shared_wheel(1.0)
        ticks = []

        def once():
            ticks.append(sim.now)
            return False

        wheel.add(once)
        wheel.add(lambda: ticks.append(-sim.now))
        sim.run(until=3.5)
        assert ticks == [1.0, -1.0, -2.0, -3.0]
        assert wheel.count == 1

    def test_remove_last_timer_cancels_kernel_entry(self):
        sim = Simulator()
        wheel = sim.shared_wheel(1.0)
        token = wheel.add(lambda: None)
        wheel.remove(token)
        assert wheel.count == 0
        assert sim.pending_events == 0
        wheel.remove(token)   # idempotent
        assert wheel.count == 0

    def test_shared_wheel_is_cached_per_period(self):
        sim = Simulator()
        assert sim.shared_wheel(0.5) is sim.shared_wheel(0.5)
        assert sim.shared_wheel(0.5) is not sim.shared_wheel(0.25)

    def test_cancel_stops_recurrence(self):
        sim = Simulator()
        wheel = sim.shared_wheel(1.0)
        ticks = []
        token = wheel.add(lambda: ticks.append(sim.now))
        sim.call_at(2.5, wheel.remove, token)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert wheel.count == 0
        assert sim.pending_events == 0

    def test_nonpositive_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.shared_wheel(0.0)

    def test_callback_sees_next_occurrence_pending(self):
        sim = Simulator()
        wheel = sim.shared_wheel(1.0)
        observed = []

        def probe():
            # reschedule-before-work: while the slot's callbacks run,
            # its next tick is already queued
            observed.append(sim.pending_events)

        wheel.add(probe)
        sim.run(until=2.5)
        assert observed == [1, 1]

    def test_slot_emptied_by_its_own_tick_stops_ticking(self):
        # the slot's last callback unregisters itself: the slot must
        # cancel its next tick, not keep firing with nothing to run
        sim = Simulator()
        wheel = sim.shared_wheel(1.0)
        wheel.add(lambda: False)
        sim.run(until=10.5)
        assert sim.event_count == 1
        assert sim.pending_events == 0
        assert wheel.count == 0
