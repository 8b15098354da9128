"""Errors raised by the StopWatch core layer."""


class ConfigError(ValueError):
    """An invalid StopWatch configuration value."""


class ProtocolError(RuntimeError):
    """A violation of the replica-coordination protocol (e.g. a duplicate
    proposal for the same event from the same replica)."""
