"""Errors raised by the StopWatch core layer, and :class:`BadOverride`,
which every experiment runner raises for a parameter it refuses (through
:func:`check_duration` for a run's length)."""

import math
import numbers


class BadOverride(ValueError):
    """A run parameter refused before anything is simulated: a
    ``repro bench run --set`` key no runner takes, a non-integer seed
    count, or a value outside a runner's range."""


def check_duration(duration, floor: float = 0.0, why: str = "") -> None:
    """Raise :class:`BadOverride` naming ``duration`` unless it is a real
    number (not a bool) with ``floor < duration < inf``; ``why`` says
    where the floor comes from."""
    if isinstance(duration, bool) or not isinstance(duration, numbers.Real) \
            or not floor < duration < math.inf:
        raise BadOverride(f"duration must be a finite number > {floor:g}"
                          f"{why}, got {duration!r}")


class ConfigError(ValueError):
    """An invalid StopWatch configuration value."""


class ProtocolError(RuntimeError):
    """A violation of the replica-coordination protocol (e.g. a duplicate
    proposal for the same event from the same replica)."""
