"""Calendar-queue edge cases, the clock-rewind regression, and the
recurring-timer primitive (``TimerWheel``, via ``shared_wheel``).

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


class TestCalendarVsReferenceHeap:
    """The calendar queue must fire in exactly (time, seq) order -- the
    order a plain binary heap with FIFO tie-break would produce -- for
    any schedule, including ones spanning the far-future tier."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=20.0,
                  allow_nan=False, allow_infinity=False),
        st.booleans()), min_size=1, max_size=120))
    def test_fire_order_matches_reference(self, schedule):
        # a tiny window (4 slots of 1 ms) forces constant far-heap
        # drains and window advances; fire order must not care
        sim = Simulator(bucket_width=1e-3, span_slots=4)
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
        sim = Simulator(bucket_width=1e-3, span_slots=4)
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
        sim = Simulator(bucket_width=1e-3, span_slots=4)
        fired = []
        inf = float("inf")
        sim.call_at(inf, fired.append, "end-b")
        sim.call_at(100.0, fired.append, "far")
        sim.call_at(0.0005, fired.append, "near")
        sim.call_at(inf, fired.append, "end-c")
        sim.run()
        assert fired == ["near", "far", "end-b", "end-c"]
        assert sim.now == inf
        assert sim.far_high_water >= 3


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
