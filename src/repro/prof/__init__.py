"""Performance observability: subsystem-attributed profiling.

:class:`SubsystemProfiler` accumulates per-callback wall time inside
the event loop and buckets it by owning subsystem; the exporters turn
its summary into speedscope JSON and Perfetto counter tracks.  See
DESIGN.md § Performance observability.
"""

from repro.prof.export import (counter_events, speedscope_document,
                               validate_speedscope,
                               validate_speedscope_file, write_speedscope)
from repro.prof.profiler import (PROFILE_SCHEMA, SUBSYSTEM_PREFIXES,
                                 SubsystemProfiler, describe_callable,
                                 merge_summaries, subsystem_of)

__all__ = [
    "PROFILE_SCHEMA",
    "SUBSYSTEM_PREFIXES",
    "SubsystemProfiler",
    "counter_events",
    "describe_callable",
    "merge_summaries",
    "speedscope_document",
    "subsystem_of",
    "validate_speedscope",
    "validate_speedscope_file",
    "write_speedscope",
]
