"""Errors raised by the StopWatch core layer, and :class:`BadOverride`,
which every experiment runner raises for a parameter it refuses (through
:func:`check_number` for a real-valued one such as a run's length,
:func:`check_count` for a count and :func:`check_choices` for a list of
seeds or names)."""

import math
import numbers


class BadOverride(ValueError):
    """A run parameter refused before anything is simulated: a
    ``repro bench run --set`` key no runner takes, a value of the wrong
    type, or a value outside a runner's range."""


def check_number(name: str, value, floor: float = 0.0, why: str = "",
                 closed: bool = False) -> None:
    """Raise :class:`BadOverride` naming ``name`` unless ``value`` is a
    real number (not a bool) with ``floor < value < inf`` (``floor <=
    value`` when ``closed``); ``why`` says where the floor comes from."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not value < math.inf \
            or not (value >= floor if closed else value > floor):
        raise BadOverride(f"{name} must be a finite number "
                          f"{'>=' if closed else '>'} {floor:g}{why}, "
                          f"got {value!r}")


def check_count(name: str, value, floor: int = 1) -> None:
    """Raise :class:`BadOverride` naming ``name`` unless ``value`` is an
    integer (not a bool) ``>= floor``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < floor:
        raise BadOverride(f"{name} must be an integer >= {floor}, "
                          f"got {value!r}")


def check_choices(name: str, chosen, known=None) -> None:
    """Raise :class:`BadOverride` naming ``name`` unless ``chosen`` holds
    at least one item, each drawn from ``known`` when that is given."""
    if not chosen:
        raise BadOverride(f"{name} must name at least one item, "
                          f"got {chosen!r}")
    if known is not None:
        unknown = [item for item in chosen if item not in known]
        if unknown:
            raise BadOverride(f"{name} must be drawn from {known}, "
                              f"got {unknown}")


class ConfigError(ValueError):
    """An invalid StopWatch configuration value."""


class ProtocolError(RuntimeError):
    """A violation of the replica-coordination protocol (e.g. a duplicate
    proposal for the same event from the same replica)."""
