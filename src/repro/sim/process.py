"""Generator-based simulated processes.

A process is a Python generator driven by the simulator.  It may yield:

- a ``float``/``int`` -- sleep for that many simulated seconds (one
  :meth:`~repro.sim.kernel.Simulator.call_after` entry; a negative or
  NaN delay raises :class:`~repro.sim.errors.SimulationError`);
- any waitable (:class:`~repro.sim.events.Event` and friends) -- block
  until it triggers; the waitable's value is returned from the ``yield``;
- another :class:`Process` -- join it; the joined process's return value
  is returned from the ``yield`` (its failure re-raises here as
  :class:`~repro.sim.errors.ProcessFailed`).

A process is itself a waitable, triggered at termination with the
generator's return value.  Nothing can interrupt a process's wait.
"""

from repro.sim.errors import ProcessFailed, SimulationError
from repro.sim.events import Event


class Process(Event):
    """A running simulated activity.  Create via ``sim.process(gen)``."""

    __slots__ = ("name", "_generator")

    _anonymous_counter = 0

    def __init__(self, sim, generator, name=None):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        if name is None:
            Process._anonymous_counter += 1
            name = f"process-{Process._anonymous_counter}"
        self.name = name
        self._generator = generator
        sim.call_soon(self._resume, None, None)

    # -- public API ----------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    # -- driver ----------------------------------------------------------
    def _wake(self, waitable) -> None:
        if waitable.ok:
            self._resume(waitable.value, None)
        else:
            self._resume(None, waitable.value)

    def _resume(self, value, exception) -> None:
        if self.triggered:
            return
        try:
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        except Exception as error:  # noqa: BLE001 - deliberate catch-all
            self.fail(ProcessFailed(self, error))
            return
        self._wait_for(target)

    def _wait_for(self, target) -> None:
        if isinstance(target, (int, float)):
            self.sim.call_after(target, self._resume, None, None)
            return
        try:
            add_callback = target.add_callback
        except AttributeError:
            self.sim.call_soon(
                self._resume,
                None,
                SimulationError(
                    f"process {self.name} yielded non-waitable {target!r}"
                ),
            )
            return
        add_callback(self._wake)

    def __repr__(self) -> str:
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
