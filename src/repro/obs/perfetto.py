"""Chrome trace-event export for flow spans.

Emits the JSON array format that Perfetto and ``chrome://tracing``
consume directly: one complete ``"ph": "X"`` duration event per closed
span (timestamps and durations in microseconds), with **replicas mapped
to pids** (pid 0 is the replicated fabric: ingress, egress and the flow
root spans) and **VMs mapped to tids**, named via ``"M"`` metadata
events so the UI shows "replica 1" / "vm echo" instead of bare numbers.

The validator here is what the CI ``spans-smoke`` job runs: it checks
the file parses, is non-empty, that every duration event carries
pid/tid/ts/dur, and that for every flow the critical-path stage events
sum to the flow's end-to-end duration within float tolerance --
re-asserting the telescoping invariant *from the export alone*, so a
serialization bug cannot hide behind a passing in-memory test.
"""

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.flows import Span

#: fabric-side spans (no replica) are grouped under this pid
FABRIC_PID = 0

_US = 1e6  # sim seconds -> trace microseconds


def _pid(span: Span) -> int:
    return FABRIC_PID if span.replica is None else span.replica + 1


def perfetto_events(spans: Iterable[Span]) -> List[Dict[str, Any]]:
    """Build the trace-event list: ``M`` metadata naming every
    pid/tid pair seen, then one ``X`` event per closed span."""
    events: List[Dict[str, Any]] = []
    seen_pids: Dict[int, None] = {}
    seen_tids: Dict[Tuple[int, int], None] = {}
    vm_tids: Dict[Optional[str], int] = {}
    for span in spans:
        if not span.closed:
            continue
        pid = _pid(span)
        tid = vm_tids.setdefault(span.vm, len(vm_tids))
        if pid not in seen_pids:
            seen_pids[pid] = None
            name = ("fabric" if pid == FABRIC_PID
                    else f"replica {pid - 1}")
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": name}})
        if (pid, tid) not in seen_tids:
            seen_tids[(pid, tid)] = None
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": tid,
                           "args": {"name": f"vm {span.vm}"}})
        args: Dict[str, Any] = {"flow": span.flow_id}
        if span.parent_id is not None:
            args["parent"] = span.parent_id
        args.update(span.annotations)
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": "flow" if span.name == "flow" else "stage",
            "pid": pid,
            "tid": tid,
            "ts": span.start * _US,
            "dur": (span.end - span.start) * _US,
            "id": span.span_id,
            "args": args,
        })
    return events


def export_perfetto(spans: Iterable[Span], path: str,
                    extra_events: Optional[List[Dict[str, Any]]] = None
                    ) -> int:
    """Write the trace-event JSON atomically; returns the number of
    ``X`` events written.

    ``extra_events`` are appended verbatim -- the profiler's counter
    tracks (:func:`repro.prof.export.counter_events`) ride along here
    so flow spans and performance counters land in one trace.
    """
    from repro.ioutil import atomic_write_text

    events = perfetto_events(spans)
    if extra_events:
        events.extend(extra_events)
    atomic_write_text(path, json.dumps(events, indent=1, default=str))
    return sum(1 for event in events if event.get("ph") == "X")


# ---------------------------------------------------------------------------
# validation (the CI spans-smoke contract)
# ---------------------------------------------------------------------------
def validate_perfetto(events: List[Any],
                      tolerance: float = 1e-6) -> List[str]:
    """Check a parsed trace-event list; returns a list of problems
    (empty means valid).

    * non-empty, with at least one ``X`` duration event
    * every ``X`` event has numeric ``pid``/``tid``/``ts``/``dur``
    * every ``C`` counter event has a numeric ``ts`` and a numeric
      ``args.value`` (the profiler's counter tracks)
    * for every flow with a root ``flow`` event, the ``critical=True``
      stage events sum to the root's duration within ``tolerance``
      (microseconds) -- the critical-path telescoping invariant
    """
    problems: List[str] = []
    if not isinstance(events, list) or not events:
        return ["trace is not a non-empty JSON array"]
    x_events = [e for e in events if isinstance(e, dict)
                and e.get("ph") == "X"]
    if not x_events:
        return ["trace contains no duration (ph=X) events"]
    for i, event in enumerate(e for e in events if isinstance(e, dict)
                              and e.get("ph") == "C"):
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"C event #{i} ({event.get('name')!r}) "
                            f"missing or non-numeric 'ts'")
        value = (event.get("args") or {}).get("value")
        if not isinstance(value, (int, float)):
            problems.append(f"C event #{i} ({event.get('name')!r}) "
                            f"missing or non-numeric args.value")
    flow_roots: Dict[str, float] = {}
    critical_sums: Dict[str, float] = {}
    critical_counts: Dict[str, int] = {}
    for i, event in enumerate(x_events):
        for field in ("pid", "tid", "ts", "dur"):
            if not isinstance(event.get(field), (int, float)):
                problems.append(
                    f"X event #{i} ({event.get('name')!r}) missing or "
                    f"non-numeric {field!r}")
        flow = (event.get("args") or {}).get("flow")
        if flow is None or not isinstance(event.get("dur"), (int, float)):
            continue
        if event.get("name") == "flow":
            flow_roots[flow] = event["dur"]
        elif (event.get("args") or {}).get("critical"):
            critical_sums[flow] = critical_sums.get(flow, 0.0) + event["dur"]
            critical_counts[flow] = critical_counts.get(flow, 0) + 1
    checked = 0
    for flow, total in sorted(flow_roots.items()):
        if flow not in critical_sums:
            continue  # incomplete flow (no critical path marked)
        checked += 1
        if critical_counts[flow] != 5:
            problems.append(
                f"flow {flow}: expected 5 critical stage events, found "
                f"{critical_counts[flow]}")
        gap = abs(critical_sums[flow] - total)
        if gap > tolerance * max(1.0, abs(total)):
            problems.append(
                f"flow {flow}: critical stages sum to "
                f"{critical_sums[flow]:.3f}us but the flow spans "
                f"{total:.3f}us (gap {gap:.3g}us)")
    if flow_roots and not checked:
        problems.append("no flow had a complete critical path to check")
    return problems


def validate_file(path: str, tolerance: float = 1e-6) -> List[str]:
    """Parse and validate an exported trace file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            events = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot parse {path}: {exc}"]
    return validate_perfetto(events, tolerance=tolerance)
