"""StopWatch core: virtual time, median timing aggregation, configuration.

These are the paper's primary contribution in distilled form:

- :class:`VirtualClock` -- Popek/Kline-style virtual time that is a
  deterministic function of the guest's executed instruction (branch)
  count: ``virt(instr) = slope * instr + start`` (Eqn. 1), with the
  optional epoch-based resynchronisation rule from Sec. IV-A.
- :func:`median_of_three` / :class:`MedianAgreement` -- the
  microaggregation primitive applied to I/O event timings (Sec. III, V)
  and to output-packet release (Sec. VI).
- :class:`StopWatchConfig` -- every tunable in one place (Δn, Δd, slope
  clamp range, epoch length, replica count, pacing bound).
"""

from repro.core.config import StopWatchConfig, PASSTHROUGH, DEFAULT, RESILIENT
from repro.core.errors import ConfigError, ProtocolError
from repro.core.median import (
    AGGREGATIONS,
    aggregate,
    median,
    median_of_three,
    kth_smallest,
    MedianAgreement,
    QuorumRelease,
)
from repro.core.virtual_time import VirtualClock, EpochSample, resync_slope

__all__ = [
    "StopWatchConfig",
    "PASSTHROUGH",
    "DEFAULT",
    "RESILIENT",
    "VirtualClock",
    "EpochSample",
    "resync_slope",
    "AGGREGATIONS",
    "aggregate",
    "median",
    "median_of_three",
    "kth_smallest",
    "MedianAgreement",
    "QuorumRelease",
    "ConfigError",
    "ProtocolError",
]
