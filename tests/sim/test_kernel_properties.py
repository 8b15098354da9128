"""Property-based tests of the event loop's ordering guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class TestSchedulingProperties:
    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_fire_order_is_stable_sort_of_schedule_order(self, delays):
        """Events fire ordered by time; ties break by scheduling order."""
        sim = Simulator()
        fired = []
        for index, delay in enumerate(delays):
            sim.call_after(delay, fired.append, (delay, index))
        sim.run()
        assert fired == sorted(
            ((delay, index) for index, delay in enumerate(delays)),
        )

    @given(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=20),
           st.integers(0, 19))
    @settings(max_examples=30, deadline=None)
    def test_cancellation_removes_exactly_one(self, delays, cancel_idx):
        sim = Simulator()
        fired = []
        handles = [sim.call_after(d, fired.append, i)
                   for i, d in enumerate(delays)]
        victim = cancel_idx % len(handles)
        handles[victim].cancel()
        sim.run()
        assert victim not in fired
        assert len(fired) == len(delays) - 1

    @given(st.lists(st.floats(0.001, 5.0), min_size=1, max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        observed = []

        def probe():
            observed.append(sim.now)

        for delay in delays:
            sim.call_after(delay, probe)
        sim.run()
        assert observed == sorted(observed)

    @given(st.integers(1, 30))
    @settings(max_examples=20, deadline=None)
    def test_process_chain_conserves_time(self, steps):
        """A chain of `steps` unit `call_after` delays ends at exactly
        t=steps."""
        sim = Simulator()
        done = []

        def step(left):
            if left:
                sim.call_after(1.0, step, left - 1)
            else:
                done.append(sim.now)

        step(steps)
        sim.run()
        assert done == [float(steps)]
