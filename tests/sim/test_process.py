"""Tests for generator-based processes."""

import pytest

from repro.sim import Simulator, ProcessFailed, SimulationError


def test_process_sleeps_with_numeric_yield():
    sim = Simulator()
    marks = []

    def body():
        marks.append(sim.now)
        yield 1.5
        marks.append(sim.now)
        yield 2
        marks.append(sim.now)

    sim.process(body())
    sim.run()
    assert marks == [0.0, 1.5, 3.5]


def test_process_return_value_visible_to_joiner():
    sim = Simulator()
    results = []

    def worker():
        yield 1.0
        return 42

    def parent():
        value = yield sim.process(worker())
        results.append(value)

    sim.process(parent())
    sim.run()
    assert results == [42]


def test_join_failed_process_raises_process_failed():
    sim = Simulator()
    caught = []

    def worker():
        yield 1.0
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(worker())
        except ProcessFailed as error:
            caught.append(error)

    sim.process(parent())
    sim.run()
    assert len(caught) == 1
    assert isinstance(caught[0].__cause__, ValueError)


def test_wait_on_event_receives_value():
    sim = Simulator()
    got = []
    event = sim.event()

    def waiter():
        value = yield event
        got.append(value)

    sim.process(waiter())
    sim.call_after(2.0, event.trigger, "payload")
    sim.run()
    assert got == ["payload"]
    assert sim.now == 2.0


def test_yielding_garbage_fails_process():
    sim = Simulator()

    def bad():
        yield "not a waitable"

    proc = sim.process(bad())
    sim.run()
    assert proc.triggered and not proc.ok


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)


def test_process_alive_flag():
    sim = Simulator()

    def body():
        yield 2.0

    proc = sim.process(body())
    assert proc.alive
    sim.run()
    assert not proc.alive


def test_two_processes_interleave():
    sim = Simulator()
    order = []

    def ticker(name, period):
        for _ in range(3):
            yield period
            order.append((name, sim.now))

    sim.process(ticker("a", 1.0))
    sim.process(ticker("b", 1.5))
    sim.run()
    # At the t=3.0 tie, b's sleep was scheduled at t=1.5 (before a's at
    # t=2.0), so FIFO tie-breaking wakes b first.
    assert order == [
        ("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0), ("a", 3.0), ("b", 4.5),
    ]
