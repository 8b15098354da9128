"""Waitables: one-shot events.

A *waitable* is anything a callback may ``add_callback`` to.  The
contract is small:

- ``add_callback(fn)`` -- call ``fn(waitable)`` once triggered (immediately
  if already triggered);
- ``triggered`` -- whether it has fired;
- ``value`` -- the value delivered to the waiter;
- ``ok`` -- False when the waitable carries a failure, in which case
  ``value`` is the exception to raise in the waiter.
"""

from typing import Callable, List

from repro.sim.errors import SimulationError


class Event:
    """A one-shot event that callbacks can wait on.

    Trigger with :meth:`trigger` (success) or :meth:`fail` (propagates the
    exception into every waiter).  Triggering twice is an error; this
    catches protocol bugs early.
    """

    __slots__ = ("sim", "triggered", "ok", "value", "_callbacks")

    def __init__(self, sim):
        self.sim = sim
        self.triggered = False
        self.ok = True
        self.value = None
        self._callbacks: List[Callable] = []

    def add_callback(self, fn: Callable) -> None:
        if self.triggered:
            self.sim.call_soon(fn, self)
        else:
            self._callbacks.append(fn)

    def trigger(self, value=None) -> "Event":
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self.sim.call_soon(fn, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self.triggered = True
        self.ok = False
        self.value = exception
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self.sim.call_soon(fn, self)
        return self

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"
