"""The unified benchmark artifact: versioned entries, append-only
trajectories, and the regression gate.

Every benchmark run appends one **entry** ::

    {"schema": "repro.bench/1", "benchmark": "kernel.scale32",
     "label": "head", "recorded": "<iso8601>",
     "config": {...},                  # what was run (gates match on it)
     "metrics": {...},                 # flat name -> number dict
     "primary_metric": "events_per_cpu_second",
     "higher_is_better": true,
     "egress_signature": "856f...",    # optional determinism fingerprint
     "profile": {...}}                 # optional repro.prof summary

to a **trajectory** file ::

    {"schema": "repro.bench.trajectory/1", "entries": [entry, ...]}

Entries are never rewritten; :func:`append_entry` loads, validates,
appends and writes back atomically.  A file that is not a trajectory
(e.g. a pre-schema single snapshot) is refused with
:class:`BenchSchemaError`.  :func:`compare_entry` is the gate: a
candidate fails against the **best** prior comparable entry (same benchmark id and
config) when its primary metric drops more than ``tolerance`` (default
20 %), and against the most recent comparable entry when the egress
signature changed.
"""

import datetime
import json
from typing import Any, Dict, List, Optional

#: schema version stamps; bump on incompatible layout changes
ENTRY_SCHEMA = "repro.bench/1"
TRAJECTORY_SCHEMA = "repro.bench.trajectory/1"

#: regression tolerance on the primary metric (fraction of baseline)
DEFAULT_TOLERANCE = 0.20


class BenchSchemaError(ValueError):
    """A malformed entry or trajectory document."""


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


def make_entry(benchmark: str,
               config: Optional[Dict[str, Any]],
               metrics: Dict[str, Any],
               primary_metric: Optional[str] = None,
               label: str = "head",
               egress_signature: Optional[str] = None,
               profile: Optional[Dict[str, Any]] = None,
               higher_is_better: bool = True,
               recorded: Optional[str] = None) -> Dict[str, Any]:
    """Build (and validate) one trajectory entry."""
    entry: Dict[str, Any] = {
        "schema": ENTRY_SCHEMA,
        "benchmark": benchmark,
        "label": label,
        "recorded": recorded if recorded is not None else _utcnow(),
        "config": config,
        "metrics": dict(metrics),
        "primary_metric": primary_metric,
        "higher_is_better": higher_is_better,
        "egress_signature": egress_signature,
    }
    if profile is not None:
        entry["profile"] = profile
    problems = validate_entry(entry)
    if problems:
        raise BenchSchemaError(f"refusing to build invalid entry: "
                               f"{problems}")
    return entry


def validate_entry(entry: Any) -> List[str]:
    """Structural problems with one entry (empty list means valid)."""
    if not isinstance(entry, dict):
        return ["entry is not an object"]
    problems: List[str] = []
    if entry.get("schema") != ENTRY_SCHEMA:
        problems.append(f"schema is {entry.get('schema')!r}, expected "
                        f"{ENTRY_SCHEMA!r}")
    if not entry.get("benchmark") or not isinstance(
            entry.get("benchmark"), str):
        problems.append("benchmark id missing")
    metrics = entry.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        problems.append("metrics dict missing or empty")
        metrics = {}
    bad = [name for name, value in metrics.items()
           if not isinstance(value, (int, float, bool))
           and value is not None]
    if bad:
        problems.append(f"non-numeric metrics: {sorted(bad)}")
    primary = entry.get("primary_metric")
    if primary is not None and primary not in metrics:
        problems.append(f"primary_metric {primary!r} not in metrics")
    config = entry.get("config")
    if config is not None and not isinstance(config, dict):
        problems.append("config must be an object or null")
    return problems


def empty_trajectory() -> Dict[str, Any]:
    return {"schema": TRAJECTORY_SCHEMA, "entries": []}


# ---------------------------------------------------------------------------
# trajectory IO
# ---------------------------------------------------------------------------
def load_trajectory(path: str) -> Optional[Dict[str, Any]]:
    """The trajectory at ``path``, or ``None`` when the file does not
    exist."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise BenchSchemaError(f"cannot parse {path}: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != TRAJECTORY_SCHEMA:
        raise BenchSchemaError(f"{path}: not a {TRAJECTORY_SCHEMA} "
                               f"document (schema {schema!r})")
    if not isinstance(doc.get("entries"), list):
        raise BenchSchemaError(f"{path}: trajectory has no entries list")
    return doc


def write_trajectory(path: str, trajectory: Dict[str, Any]) -> str:
    from repro.ioutil import atomic_write_json

    return atomic_write_json(path, trajectory, indent=2)


def append_entry(path: str, entry: Dict[str, Any]) -> Dict[str, Any]:
    """Append ``entry`` to the trajectory at ``path`` (creating the
    file as needed); returns the updated trajectory."""
    problems = validate_entry(entry)
    if problems:
        raise BenchSchemaError(f"refusing to append invalid entry: "
                               f"{problems}")
    trajectory = load_trajectory(path)
    if trajectory is None:
        trajectory = empty_trajectory()
    trajectory["entries"].append(entry)
    write_trajectory(path, trajectory)
    return trajectory


# ---------------------------------------------------------------------------
# the gate
# ---------------------------------------------------------------------------
def comparable_entries(trajectory: Dict[str, Any],
                       entry: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Prior entries gate-comparable to ``entry``: same benchmark id
    and equal config (entries with unknown/null config only compare to
    other null-config entries -- a mismatched workload must never read
    as a regression)."""
    return [prior for prior in trajectory.get("entries", ())
            if prior is not entry
            and prior.get("benchmark") == entry.get("benchmark")
            and prior.get("config") == entry.get("config")]


def best_entry(entries: List[Dict[str, Any]], metric: str,
               higher_is_better: bool = True) -> Optional[Dict[str, Any]]:
    """The best prior entry by ``metric`` (None when nothing has it)."""
    scored = [prior for prior in entries
              if isinstance(prior.get("metrics", {}).get(metric),
                            (int, float))]
    if not scored:
        return None
    return (max if higher_is_better else min)(
        scored, key=lambda prior: prior["metrics"][metric])


def compare_entry(entry: Dict[str, Any], trajectory: Dict[str, Any],
                  tolerance: float = DEFAULT_TOLERANCE) -> Dict[str, Any]:
    """Gate ``entry`` against the trajectory's history.

    Returns ``{"ok", "checked", "problems", "detail", ...}``; ``ok`` is
    False when the primary metric regressed beyond ``tolerance`` vs the
    best comparable prior entry, or the egress signature changed vs the
    most recent comparable one.  With no comparable history the gate
    passes vacuously (``checked=False``).  ``tolerance`` must lie in
    [0, 1).
    """
    if not 0.0 <= tolerance < 1.0:
        raise BenchSchemaError(
            f"tolerance must be in [0, 1), got {tolerance!r}")
    priors = comparable_entries(trajectory, entry)
    problems: List[str] = []
    detail: List[str] = []
    checked = False
    metric = entry.get("primary_metric")
    if metric is not None and priors:
        higher = bool(entry.get("higher_is_better", True))
        baseline = best_entry(priors, metric, higher_is_better=higher)
        current = entry.get("metrics", {}).get(metric)
        if baseline is not None and isinstance(current, (int, float)):
            checked = True
            base = baseline["metrics"][metric]
            floor = base * (1.0 - tolerance) if higher \
                else base * (1.0 + tolerance)
            regressed = current < floor if higher else current > floor
            if regressed:
                problems.append(
                    f"{metric} regressed: {current:g} vs best "
                    f"{base:g} ({baseline.get('label')!r}), "
                    f"{'floor' if higher else 'ceiling'} {floor:g} "
                    f"(tolerance {tolerance:.0%})")
            else:
                detail.append(f"{metric} {current:g} within "
                              f"{tolerance:.0%} of best {base:g} "
                              f"({baseline.get('label')!r})")
    signature = entry.get("egress_signature")
    if signature is not None:
        with_signature = [prior for prior in priors
                          if prior.get("egress_signature") is not None]
        if with_signature:
            checked = True
            previous = with_signature[-1]
            if previous["egress_signature"] != signature:
                problems.append(
                    f"egress signature changed: {signature[:16]}... vs "
                    f"{previous['egress_signature'][:16]}... "
                    f"({previous.get('label')!r}) -- observable "
                    f"behaviour diverged")
            else:
                detail.append(f"egress signature {signature[:16]}... "
                              f"matches {previous.get('label')!r}")
    if not checked:
        detail.append("no comparable prior entry (first run for this "
                      "benchmark/config); gate passes vacuously")
    return {
        "ok": not problems,
        "checked": checked,
        "benchmark": entry.get("benchmark"),
        "comparable": len(priors),
        "problems": problems,
        "detail": detail,
    }


def history_rows(trajectory: Dict[str, Any],
                 benchmark: Optional[str] = None) -> List[tuple]:
    """``(label, recorded, benchmark, primary metric, value,
    signature-prefix)`` per entry, for the history table."""
    rows = []
    for entry in trajectory.get("entries", ()):
        if benchmark is not None and entry.get("benchmark") != benchmark:
            continue
        metric = entry.get("primary_metric")
        value = (entry.get("metrics", {}).get(metric)
                 if metric is not None else None)
        signature = entry.get("egress_signature")
        rows.append((entry.get("label"), entry.get("recorded"),
                     entry.get("benchmark"),
                     metric or "-",
                     round(value, 1) if isinstance(value, float)
                     else (value if value is not None else "-"),
                     signature[:12] + "..." if signature else "-"))
    return rows
