"""repro.obs -- causal span/flow tracing over the mediation pipeline.

Builds on :mod:`repro.sim.monitor`: where ``Trace`` records flat,
uncorrelated events, this package follows each admitted packet (a
*flow*) through replication, PGM agreement, the virtual-time offset
wait, guest service and the egress quorum, keeping one record per flow
with each replica's boundary timestamps.  From that record it
decomposes the flow's end-to-end mediation delay into named stages,
builds the flow's spans on demand and exports them as Chrome
trace-event JSON for Perfetto.  Off by default; see DESIGN.md
§ Observability.
"""

from repro.obs.flows import (STAGES, Flow, FlowTracker, Span, critical_path,
                             stage_metrics)
from repro.obs.perfetto import (perfetto_events, export_perfetto,
                                validate_perfetto, validate_file)

__all__ = [
    "STAGES", "Flow", "FlowTracker", "Span", "critical_path",
    "stage_metrics", "perfetto_events", "export_perfetto",
    "validate_perfetto", "validate_file",
]
