"""Errors raised by the StopWatch core layer, and :class:`BadOverride`,
which every experiment runner raises for a parameter it refuses."""


class BadOverride(ValueError):
    """A run parameter refused before anything is simulated: a
    ``repro bench run --set`` key no runner takes, a non-integer seed
    count, or a value outside a runner's range."""


class ConfigError(ValueError):
    """An invalid StopWatch configuration value."""


class ProtocolError(RuntimeError):
    """A violation of the replica-coordination protocol (e.g. a duplicate
    proposal for the same event from the same replica)."""
