"""Subsystem-attributed CPU profiling for the simulation kernel.

Beyond "which callback is hot?", this answers *where do the cycles
go* by bucketing every callback's measured wall time into the
subsystem that owns it.  Attribution needs no per-event string work: the kernel
hands :meth:`SubsystemProfiler.record` the scheduled callable, the
profiler keys its accumulator on the underlying function object (bound
methods share one function, so a fleet of 96 replicas collapses to one
row per method), and module -> subsystem resolution happens once per
distinct callback at :meth:`summary` time through an interned
dotted-prefix table -- the same hierarchical-prefix discipline the
trace categories use.

Attribution is *total*: the summary carries two synthetic rows so the
per-subsystem seconds sum exactly to the measured whole --

- ``kernel`` absorbs the dispatch gap (event-loop seconds not spent
  inside any callback: heap pushes and pops), and
- ``harness`` absorbs everything outside the event loop (scenario
  build, signature hashing) when the caller supplies the cell's total.

A second accumulator buckets the run along *simulated* time
(:attr:`timeline_width`-second buckets of events, CPU seconds and
queue high-water), which is what the Perfetto counter-track export
draws; release timestamps can be folded in after the fact so
releases/sec rides the same timeline.
"""

import sys
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional

#: dotted module prefix -> subsystem bucket; longest prefix wins.
#: The bucket names are the attribution vocabulary the bench artifacts
#: and flamegraph roots use -- keep them short and stable.
SUBSYSTEM_PREFIXES: Dict[str, str] = {
    "repro.sim": "kernel",
    "repro.net.pgm": "pgm",
    "repro.net": "net",
    "repro.vmm.coordination": "vmm-coordination",
    "repro.vmm": "hypervisor",
    "repro.machine": "hypervisor",
    "repro.core": "hypervisor",
    "repro.cloud.egress": "egress",
    "repro.cloud": "net",
    "repro.workloads": "workloads",
    "repro.obs": "obs",
    "repro.faults": "faults",
    "repro.attacks": "workloads",
    "repro.mitigation": "hypervisor",
}

#: everything unmatched (test lambdas, stdlib callbacks) lands here
OTHER = "other"

#: current summary schema; bumped on incompatible layout changes
PROFILE_SCHEMA = "repro.prof/1"

#: default simulated-time bucket for the counter timeline (seconds)
DEFAULT_TIMELINE_WIDTH = 0.05

_subsystem_cache: Dict[str, str] = {}


def subsystem_of(module: Optional[str]) -> str:
    """The subsystem bucket owning ``module`` (longest dotted prefix)."""
    if not module:
        return OTHER
    cached = _subsystem_cache.get(module)
    if cached is not None:
        return cached
    probe = module
    while True:
        bucket = SUBSYSTEM_PREFIXES.get(probe)
        if bucket is not None:
            break
        cut = probe.rfind(".")
        if cut < 0:
            bucket = OTHER
            break
        probe = probe[:cut]
    bucket = sys.intern(bucket)
    _subsystem_cache[sys.intern(module)] = bucket
    return bucket


def _unwrap(fn: Callable) -> Callable:
    """Peel bound-method/partial wrappers down to the shared function."""
    while True:
        inner = getattr(fn, "__func__", None)
        if inner is not None:
            fn = inner
            continue
        if isinstance(fn, partial):
            fn = fn.func
            continue
        return fn


def describe_callable(fn: Callable) -> Dict[str, str]:
    """``{"callback", "module", "subsystem"}`` for a profiled function."""
    fn = _unwrap(fn)
    module = getattr(fn, "__module__", None) or ""
    name = getattr(fn, "__qualname__", None) or repr(fn)
    return {"callback": name, "module": module,
            "subsystem": subsystem_of(module)}


class SubsystemProfiler:
    """Accumulates per-callback wall time and a sim-time timeline.

    :meth:`record` is the only hot-path method; everything else is
    report-time.  The kernel calls it once per fired event with the
    callback, its measured elapsed wall seconds, the simulated clock
    and the live queue size.
    """

    __slots__ = ("stats", "timeline", "timeline_width", "_inv_width",
                 "events", "attributed_seconds")

    def __init__(self, timeline_width: float = DEFAULT_TIMELINE_WIDTH):
        if timeline_width <= 0:
            raise ValueError(
                f"timeline_width must be positive, got {timeline_width}")
        #: underlying function -> [calls, seconds]
        self.stats: Dict[Callable, List[float]] = {}
        #: sim-time bucket index -> [events, seconds, queue_high_water]
        self.timeline: Dict[int, List[float]] = {}
        self.timeline_width = timeline_width
        self._inv_width = 1.0 / timeline_width
        self.events = 0
        self.attributed_seconds = 0.0

    # -- hot path ------------------------------------------------------
    def record(self, fn: Callable, elapsed: float, now: float,
               queue_size: int) -> None:
        func = getattr(fn, "__func__", fn)
        entry = self.stats.get(func)
        if entry is None:
            self.stats[func] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed
        index = int(now * self._inv_width)
        bucket = self.timeline.get(index)
        if bucket is None:
            self.timeline[index] = [1, elapsed, queue_size]
        else:
            bucket[0] += 1
            bucket[1] += elapsed
            if queue_size > bucket[2]:
                bucket[2] = queue_size
        self.events += 1
        self.attributed_seconds += elapsed

    # -- report time ---------------------------------------------------
    def callback_rows(self) -> List[Dict[str, Any]]:
        """One attributed row per distinct callback, hottest first."""
        rows: List[Dict[str, Any]] = []
        for func, (calls, seconds) in self.stats.items():
            row = describe_callable(func)
            row["calls"] = calls
            row["seconds"] = seconds
            rows.append(row)
        rows.sort(key=lambda row: row["seconds"], reverse=True)
        return rows

    def summary(self, loop_seconds: Optional[float] = None,
                total_seconds: Optional[float] = None,
                release_times: Optional[Iterable[float]] = None,
                top: int = 20) -> Dict[str, Any]:
        """The persistable attribution report (plain data).

        ``loop_seconds`` is the event loop's measured wall time
        (``Simulator.wall_seconds``); the dispatch gap between it and
        the callback-attributed seconds is charged to ``kernel``.
        ``total_seconds`` is the whole cell's wall time; the remainder
        beyond the loop is charged to ``harness``.  With both supplied,
        ``sum(subsystems.values()) == total_seconds`` to float
        precision -- the property the bench gate asserts.
        """
        callbacks = self.callback_rows()
        subsystems: Dict[str, float] = {}
        for row in callbacks:
            bucket = row["subsystem"]
            subsystems[bucket] = subsystems.get(bucket, 0.0) + row["seconds"]
        attributed = self.attributed_seconds
        dispatch_gap = None
        if loop_seconds is not None:
            dispatch_gap = max(0.0, loop_seconds - attributed)
            subsystems["kernel"] = subsystems.get("kernel", 0.0) \
                + dispatch_gap
        harness = None
        if total_seconds is not None:
            base = loop_seconds if loop_seconds is not None else attributed
            harness = max(0.0, total_seconds - base)
            subsystems["harness"] = subsystems.get("harness", 0.0) + harness
        buckets = self.timeline_buckets(release_times=release_times)
        return {
            "schema": PROFILE_SCHEMA,
            "events": self.events,
            "distinct_callbacks": len(callbacks),
            "attributed_seconds": attributed,
            "dispatch_gap_seconds": dispatch_gap,
            "loop_seconds": loop_seconds,
            "harness_seconds": harness,
            "total_seconds": total_seconds,
            "subsystems": dict(sorted(subsystems.items(),
                                      key=lambda item: item[1],
                                      reverse=True)),
            "hottest": callbacks[:top],
            "callbacks": callbacks,
            "timeline": {"bucket_width": self.timeline_width,
                         "buckets": buckets},
        }

    def timeline_buckets(self,
                         release_times: Optional[Iterable[float]] = None
                         ) -> List[Dict[str, float]]:
        """The sim-time timeline as sorted plain rows; ``release_times``
        (e.g. ``trace.times("egress.release")``) folds a releases
        column into the same buckets."""
        releases: Dict[int, int] = {}
        if release_times is not None:
            for when in release_times:
                index = int(when * self._inv_width)
                releases[index] = releases.get(index, 0) + 1
        rows = []
        for index in sorted(set(self.timeline) | set(releases)):
            events, seconds, queue_hw = self.timeline.get(
                index, (0, 0.0, 0))
            rows.append({
                "t": index * self.timeline_width,
                "events": int(events),
                "seconds": seconds,
                "queue_high_water": int(queue_hw),
                "releases": releases.get(index, 0),
            })
        return rows

    def __repr__(self) -> str:
        return (f"<SubsystemProfiler events={self.events} "
                f"callbacks={len(self.stats)} "
                f"seconds={self.attributed_seconds:.4f}>")


def merge_summaries(summaries: Iterable[Dict[str, Any]],
                    top: int = 20) -> Dict[str, Any]:
    """Fold several cells' :meth:`SubsystemProfiler.summary` dicts into
    one campaign-level attribution report (subsystem seconds and
    callback rows summed; timelines are dropped -- cells run disjoint
    scenarios, so their sim-time axes do not align)."""
    subsystems: Dict[str, float] = {}
    callbacks: Dict[tuple, Dict[str, Any]] = {}
    events = 0
    attributed = 0.0
    total = 0.0
    have_total = False
    cells = 0
    for summary in summaries:
        if not summary:
            continue
        cells += 1
        events += summary.get("events", 0)
        attributed += summary.get("attributed_seconds", 0.0)
        if summary.get("total_seconds") is not None:
            total += summary["total_seconds"]
            have_total = True
        for name, seconds in summary.get("subsystems", {}).items():
            subsystems[name] = subsystems.get(name, 0.0) + seconds
        for row in summary.get("callbacks",
                               summary.get("hottest", ())):
            key = (row.get("module"), row.get("callback"))
            merged = callbacks.get(key)
            if merged is None:
                callbacks[key] = dict(row)
            else:
                merged["calls"] += row.get("calls", 0)
                merged["seconds"] += row.get("seconds", 0.0)
    rows = sorted(callbacks.values(), key=lambda row: row["seconds"],
                  reverse=True)
    return {
        "schema": PROFILE_SCHEMA,
        "cells": cells,
        "events": events,
        "attributed_seconds": attributed,
        "total_seconds": total if have_total else None,
        "subsystems": dict(sorted(subsystems.items(),
                                  key=lambda item: item[1],
                                  reverse=True)),
        "hottest": rows[:top],
        "callbacks": rows,
        "timeline": {"bucket_width": None, "buckets": []},
    }
