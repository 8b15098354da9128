"""Tests for events and timeouts."""

import pytest

from repro.sim import Simulator, SimulationError


def test_event_trigger_delivers_value_to_multiple_waiters():
    sim = Simulator()
    got = []
    event = sim.event()
    for tag in ("x", "y"):
        event.add_callback(lambda ev, tag=tag: got.append((tag, ev.value)))
    sim.call_after(1.0, event.trigger, 7)
    sim.run()
    assert sorted(got) == [("x", 7), ("y", 7)]


def test_double_trigger_is_error():
    sim = Simulator()
    event = sim.event()
    event.trigger(1)
    with pytest.raises(SimulationError):
        event.trigger(2)


def test_wait_on_already_triggered_event_resolves_immediately():
    sim = Simulator()
    event = sim.event()
    event.trigger("early")
    got = []
    event.add_callback(lambda ev: got.append(ev.value))
    sim.run()
    assert got == ["early"]


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    event = sim.event()
    caught = []

    def waiter(ev):
        # a failed event carries the exception for the waiter to raise
        assert not ev.ok
        try:
            raise ev.value
        except RuntimeError as error:
            caught.append(str(error))

    event.add_callback(waiter)
    sim.call_after(1.0, event.fail, RuntimeError("bad"))
    sim.run()
    assert caught == ["bad"]


def test_timeout_cancel():
    sim = Simulator()
    timeout = sim.timeout(5.0)
    timeout.cancel()
    sim.run()
    assert not timeout.triggered


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)
