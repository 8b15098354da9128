"""Performance observability: sampled CPU attribution by layer.

:class:`Sampler` books a block's CPU to the benchmark's layers by
``SIGPROF`` sampling; the exporters turn its summary into speedscope
JSON and Perfetto counter tracks.  See DESIGN.md § Performance
observability.
"""

from repro.prof.export import (counter_events, speedscope_document,
                               validate_speedscope,
                               validate_speedscope_file, write_speedscope)
from repro.prof.profiler import (LAYERS, PROFILE_SCHEMA, Sampler,
                                 layer_of, merge_summaries)

__all__ = [
    "LAYERS",
    "PROFILE_SCHEMA",
    "Sampler",
    "counter_events",
    "layer_of",
    "merge_summaries",
    "speedscope_document",
    "validate_speedscope",
    "validate_speedscope_file",
    "write_speedscope",
]
