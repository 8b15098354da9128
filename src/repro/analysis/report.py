"""Plain-text table rendering and small summaries for experiment
output."""

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.monitor import MetricSet, Trace


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Render rows as an aligned ASCII table."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def summarize(values: List[float],
              percentiles: Sequence[float] = (50, 95, 99)) -> dict:
    """Count/mean/min/max plus percentile summary of a sample list."""
    empty = {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0}
    empty.update({f"p{p:g}": 0.0 for p in percentiles})
    if not values:
        return empty
    metrics = MetricSet(max_samples_per_metric=len(values))
    for value in values:
        metrics.observe("samples", value)
    return metrics.snapshot(percentiles)["observations"]["samples"]


def percentile(values: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank percentile of ``values`` at ``p`` (0-100); ``None``
    on an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(p / 100 * (len(ordered) - 1))))
    return ordered[index]


def first_divergence(a: Sequence, b: Sequence,
                     ) -> Optional[Tuple[int, Any, Any]]:
    """``(index, a[index], b[index])`` at the first index where two
    record sequences differ, ``None`` standing in for the shorter
    side's missing record; ``None`` when they are equal."""
    for index, (record_a, record_b) in enumerate(zip(a, b)):
        if record_a != record_b:
            return index, record_a, record_b
    if len(a) == len(b):
        return None
    index = min(len(a), len(b))
    return (index, a[index] if index < len(a) else None,
            b[index] if index < len(b) else None)


def divergence_note(a: Sequence, b: Sequence) -> Optional[str]:
    """:func:`first_divergence` as one line for a cell's result."""
    divergence = first_divergence(a, b)
    if divergence is None:
        return None
    index, record_a, record_b = divergence
    if index == min(len(a), len(b)):
        return f"lengths differ: {len(a)} vs {len(b)}"
    return f"record {index}: {record_a!r} != {record_b!r}"


def trace_signature(trace: Trace, prefixes: Sequence[str]) -> List[Tuple]:
    """A run's deterministic signature: every record whose category
    starts with one of ``prefixes`` (``"fault."`` also matches a bare
    ``"fault"``), in global order, with full payloads."""
    return [(round(record.time, 9), record.category,
             tuple(sorted(record.payload.items())))
            for record in trace.iter_records("")
            if any(record.category == prefix.rstrip(".")
                   or record.category.startswith(prefix)
                   for prefix in prefixes)]


def replay_verdict(signature: Sequence,
                   replay: Optional[Sequence]) -> Dict[str, Any]:
    """A cell's determinism keys against its same-seed ``replay``
    signature: ``divergence`` (:func:`divergence_note`) and
    ``deterministic`` are ``None`` when the cell was not replayed."""
    divergence = None if replay is None \
        else divergence_note(signature, replay)
    return {"signature_records": len(signature),
            "deterministic": None if replay is None else divergence is None,
            "divergence": divergence}
