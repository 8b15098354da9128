"""Tests for FIFO channels."""

import pytest

from repro.sim import Channel, ChannelClosed, Simulator, SimulationError


def test_put_then_get():
    sim = Simulator()
    chan = Channel(sim)
    got = []

    def consumer():
        got.append((yield chan.get()))

    chan.put("item")
    sim.process(consumer())
    sim.run()
    assert got == ["item"]


def test_get_blocks_until_put():
    sim = Simulator()
    chan = Channel(sim)
    got = []

    def consumer():
        got.append(((yield chan.get()), sim.now))

    sim.process(consumer())
    sim.call_after(2.0, chan.put, "late")
    sim.run()
    assert got == [("late", 2.0)]


def test_fifo_ordering_of_items_and_getters():
    sim = Simulator()
    chan = Channel(sim)
    got = []

    def consumer(tag):
        got.append((tag, (yield chan.get())))

    sim.process(consumer("c1"))
    sim.process(consumer("c2"))
    sim.call_after(1.0, chan.put, "first")
    sim.call_after(1.0, chan.put, "second")
    sim.run()
    assert got == [("c1", "first"), ("c2", "second")]


def test_try_get():
    sim = Simulator()
    chan = Channel(sim)
    assert chan.try_get() == (False, None)
    chan.put(3)
    assert chan.try_get() == (True, 3)


def test_bounded_channel_overflow_raises():
    sim = Simulator()
    chan = Channel(sim, capacity=1)
    chan.put(1)
    with pytest.raises(SimulationError):
        chan.put(2)


def test_zero_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Channel(sim, capacity=0)


def test_closed_channel_put_raises():
    sim = Simulator()
    chan = Channel(sim)
    chan.close()
    with pytest.raises(ChannelClosed):
        chan.put(1)


def test_close_fails_pending_getters():
    sim = Simulator()
    chan = Channel(sim)
    outcomes = []

    def consumer():
        try:
            yield chan.get()
        except ChannelClosed:
            outcomes.append("closed")

    sim.process(consumer())
    sim.call_after(1.0, chan.close)
    sim.run()
    assert outcomes == ["closed"]


def test_channel_counters():
    sim = Simulator()
    chan = Channel(sim)
    chan.put(1)
    chan.put(2)
    chan.try_get()
    assert chan.put_count == 2
    assert chan.got_count == 1
    assert len(chan) == 1
