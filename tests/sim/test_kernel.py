"""Tests for the discrete-event loop itself."""

import os
import subprocess
import sys

import pytest

import repro.sim
from repro.sim import Simulator, SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.call_after(2.0, fired.append, "b")
    sim.call_after(1.0, fired.append, "a")
    sim.call_after(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_fifo():
    sim = Simulator()
    fired = []
    for tag in ("first", "second", "third"):
        sim.call_at(5.0, fired.append, tag)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_call_soon_runs_at_current_time():
    sim = Simulator()
    times = []

    def probe():
        times.append(sim.now)

    sim.call_after(1.5, lambda: sim.call_soon(probe))
    sim.run()
    assert times == [1.5]


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.call_after(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-0.1, lambda: None)


def test_cancelled_call_does_not_fire():
    sim = Simulator()
    fired = []
    call = sim.call_after(1.0, fired.append, "x")
    call.cancel()
    sim.run()
    assert fired == []


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.call_after(1.0, fired.append, 1)
    sim.call_after(10.0, fired.append, 10)
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    # the 10.0 event is still pending and fires on the next run
    sim.run()
    assert fired == [1, 10]


def test_run_until_advances_clock_when_queue_drains_early():
    sim = Simulator()
    sim.call_after(1.0, lambda: None)
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_max_events_budget():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.call_after(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_stop_aborts_run():
    sim = Simulator()
    fired = []
    sim.call_after(1.0, fired.append, "a")
    sim.call_after(2.0, sim.stop)
    sim.call_after(3.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 2.0


def test_pending_events_counts_live_only():
    """Regression: cancelled entries must not inflate pending_events."""
    sim = Simulator()
    calls = [sim.call_after(float(i + 1), lambda: None) for i in range(3)]
    calls[1].cancel()
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_cancelled_events_do_not_eat_budget():
    """Regression: ``max_events`` must count only live fired events."""
    sim = Simulator()
    fired = []
    for i in range(6):
        call = sim.call_after(float(i + 1), fired.append, i)
        if i % 2 == 0:
            call.cancel()
    assert sim.run(max_events=3) == 3
    assert fired == [1, 3, 5]


def test_run_returns_live_fired_count():
    sim = Simulator()
    call = sim.call_after(1.0, lambda: None)
    call.cancel()
    assert sim.run(max_events=5) == 0
    sim.call_after(2.0, lambda: None)
    assert sim.run() == 1


def test_cancelled_head_does_not_drag_run_past_until():
    """Regression: a cancelled entry before ``until`` must not let the
    next *live* event (beyond ``until``) fire."""
    sim = Simulator()
    fired = []
    cancelled = sim.call_after(1.0, fired.append, "dead")
    sim.call_after(5.0, fired.append, "late")
    cancelled.cancel()
    sim.run(until=3.0, max_events=10)
    assert fired == []
    assert sim.now == 3.0
    sim.run()
    assert fired == ["late"]


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    call = sim.call_after(1.0, lambda: None)
    sim.run()
    call.cancel()
    assert sim.pending_events == 0


def test_heap_high_water_and_stats():
    sim = Simulator()
    for i in range(5):
        sim.call_after(float(i + 1), lambda: None)
    sim.run()
    stats = sim.stats()
    assert stats["heap_high_water"] == 5
    assert stats["events_fired"] == 5
    assert stats["events_pending"] == 0
    assert stats["wall_seconds"] >= 0.0
    assert "profile" not in stats


@pytest.mark.parametrize("max_events", [None, 10])
def test_a_raising_callback_is_counted(max_events):
    """An event counts once its callback is called, budget or not."""
    sim = Simulator()

    def boom():
        raise RuntimeError("boom")

    sim.call_after(1.0, lambda: None)
    sim.call_after(2.0, lambda: None)
    sim.call_after(3.0, boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(max_events=max_events)
    assert sim.event_count == 3
    assert sim.now == 3.0
    assert sim.pending_events == 0
    assert sim.run() == 0          # not left running


def test_peek_skips_cancelled():
    sim = Simulator()
    call = sim.call_after(1.0, lambda: None)
    sim.call_after(2.0, lambda: None)
    call.cancel()
    assert sim.peek() == 2.0


def test_event_count_tracks_fired_events():
    sim = Simulator()
    for i in range(4):
        sim.call_after(float(i), lambda: None)
    sim.run()
    assert sim.event_count == 4


def test_nested_scheduling_during_run():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.call_after(1.0, chain, n + 1)

    sim.call_after(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_package_exports_exactly_the_kernel_surface():
    assert sorted(repro.sim.__all__) == sorted([
        "Simulator", "ScheduledCall", "Event", "RngRegistry",
        "derive_root_seed", "Trace", "TraceRecord", "MetricSet",
        "Histogram", "JsonlSink", "CategoryFilter", "category_matches",
        "SimulationError", "ProcessFailed"])


def test_importing_the_package_loads_only_its_own_modules():
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        repro.sim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.sim; print(' '.join(sorted(m for m in "
         "sys.modules if m.startswith('repro.sim'))))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["repro.sim"] + [
        f"repro.sim.{name}" for name in
        ("errors", "events", "kernel", "monitor", "rng")]
