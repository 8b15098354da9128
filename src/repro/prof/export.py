"""Profile exports: speedscope JSON and counter tracks.

Both exporters work off the plain-data summary dict
(:meth:`~repro.prof.profiler.Sampler.summary` or
:func:`~repro.prof.profiler.merge_summaries`), so a profile persisted
through the campaign cache or a bench artifact exports identically to
a live one.

- **speedscope** emits the ``https://www.speedscope.app`` sampled
  profile: one sample per function row with its seconds as the
  weight.
- **counter events** render the sim-time timeline as Chrome
  trace-event ``"ph": "C"`` counter tracks (CPU ms per bucket,
  releases/sec) that merge with the span export into one Perfetto
  trace.

Every format has a structural validator mirroring
``obs/perfetto.py``'s: a list of problems, empty when valid, so CI can
gate on malformed output instead of shipping it.
"""

import json
from typing import Any, Dict, List

SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"

#: counter tracks get their own pid in the merged trace
PROFILE_PID = 9999

_US = 1e6


def _weight_rows(summary: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = summary.get("callbacks") or summary.get("hottest") or []
    return [row for row in rows if row.get("seconds", 0.0) > 0.0]


# ---------------------------------------------------------------------------
# speedscope
# ---------------------------------------------------------------------------
def speedscope_document(summary: Dict[str, Any],
                        name: str = "repro profile") -> Dict[str, Any]:
    """A speedscope ``sampled`` profile: one sample per function row,
    a layer frame over a ``module.function`` frame, weights in
    seconds."""
    frames: List[Dict[str, str]] = []
    samples: List[List[int]] = []
    weights: List[float] = []
    frame_index: Dict[str, int] = {}

    def frame(label: str) -> int:
        index = frame_index.get(label)
        if index is None:
            frame_index[label] = index = len(frames)
            frames.append({"name": label})
        return index

    for row in _weight_rows(summary):
        subsystem = row.get("subsystem") or "other"
        stack = [frame(subsystem),
                 frame(f"{row.get('module') or '?'}."
                       f"{row.get('callback')}")]
        samples.append(stack)
        weights.append(row["seconds"])
    total = sum(weights)
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "exporter": "repro.prof",
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "seconds",
            "startValue": 0,
            "endValue": total,
            "samples": samples,
            "weights": weights,
        }],
    }


def validate_speedscope(doc: Any,
                        tolerance: float = 1e-9) -> List[str]:
    """Structural check of a speedscope document; empty means valid."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("$schema") != SPEEDSCOPE_SCHEMA:
        problems.append(f"$schema is {doc.get('$schema')!r}, expected "
                        f"{SPEEDSCOPE_SCHEMA!r}")
    frames = (doc.get("shared") or {}).get("frames")
    if not isinstance(frames, list) or not frames:
        problems.append("shared.frames is missing or empty")
        frames = []
    for i, item in enumerate(frames):
        if not isinstance(item, dict) or not isinstance(
                item.get("name"), str) or not item["name"]:
            problems.append(f"frame #{i} has no non-empty string name")
    profiles = doc.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        problems.append("profiles is missing or empty")
        profiles = []
    for p, profile in enumerate(profiles):
        if not isinstance(profile, dict):
            problems.append(f"profile #{p} is not an object")
            continue
        if profile.get("type") != "sampled":
            problems.append(f"profile #{p} type is "
                            f"{profile.get('type')!r}, expected 'sampled'")
            continue
        samples = profile.get("samples")
        weights = profile.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            problems.append(f"profile #{p} lacks samples/weights lists")
            continue
        if len(samples) != len(weights):
            problems.append(
                f"profile #{p}: {len(samples)} samples vs "
                f"{len(weights)} weights")
        for s, stack in enumerate(samples):
            if not isinstance(stack, list) or not stack:
                problems.append(f"profile #{p} sample #{s} is not a "
                                f"non-empty frame-index list")
                continue
            for index in stack:
                if not isinstance(index, int) \
                        or not 0 <= index < len(frames):
                    problems.append(
                        f"profile #{p} sample #{s}: frame index "
                        f"{index!r} out of range")
                    break
        bad = [w for w in weights
               if not isinstance(w, (int, float)) or w < 0]
        if bad:
            problems.append(f"profile #{p}: {len(bad)} negative or "
                            f"non-numeric weights")
        elif weights and isinstance(profile.get("endValue"), (int, float)):
            span = profile["endValue"] - profile.get("startValue", 0)
            total = sum(weights)
            if abs(span - total) > tolerance * max(1.0, abs(total)):
                problems.append(
                    f"profile #{p}: weights sum to {total:.9g} but the "
                    f"profile spans {span:.9g}")
    return problems


def validate_speedscope_file(path: str) -> List[str]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"cannot parse {path}: {exc}"]
    return validate_speedscope(doc)


def write_speedscope(path: str, summary: Dict[str, Any],
                     name: str = "repro profile") -> str:
    """Atomically write (and re-validate) the speedscope export."""
    from repro.ioutil import atomic_write_text

    doc = speedscope_document(summary, name=name)
    problems = validate_speedscope(doc)
    if problems:
        raise ValueError(f"refusing to write malformed speedscope "
                         f"profile: {problems}")
    atomic_write_text(path, json.dumps(doc, indent=1))
    return path


# ---------------------------------------------------------------------------
# Perfetto counter tracks
# ---------------------------------------------------------------------------
def counter_events(summary: Dict[str, Any],
                   pid: int = PROFILE_PID) -> List[Dict[str, Any]]:
    """Chrome trace-event counter (``"ph": "C"``) events for the
    sim-time timeline, suitable as ``extra_events`` for
    :func:`repro.obs.perfetto.export_perfetto`."""
    timeline = summary.get("timeline") or {}
    width = timeline.get("bucket_width")
    buckets = timeline.get("buckets") or []
    if not width or not buckets:
        return []
    events: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
        "args": {"name": "profiler"},
    }]
    for bucket in buckets:
        ts = bucket["t"] * _US
        events.append({"ph": "C", "name": "cpu_ms_per_bucket", "pid": pid,
                       "ts": ts,
                       "args": {"value": bucket["seconds"] * 1e3}})
        events.append({"ph": "C", "name": "releases_per_sec", "pid": pid,
                       "ts": ts,
                       "args": {"value": bucket.get("releases", 0)
                                / width}})
    return events
