"""Exception types raised by the simulation kernel."""


class SimulationError(Exception):
    """Base class for all kernel-level errors."""


class ProcessFailed(SimulationError):
    """A simulated activity (a joined process, or a replica's guest
    engine) terminated with an exception.

    The original exception is available as ``__cause__``.
    """

    def __init__(self, process, cause):
        super().__init__(f"process {process!r} failed: {cause!r}")
        self.process = process
        self.__cause__ = cause


class Interrupt(SimulationError):
    """Thrown into a process that another process interrupted.

    The interrupting party supplies an arbitrary ``cause`` object which the
    interrupted process can inspect to decide how to react.
    """

    def __init__(self, cause=None):
        super().__init__(f"interrupted: {cause!r}")
        self.cause = cause


class ChannelClosed(SimulationError):
    """Raised when getting from (or putting to) a closed channel."""
