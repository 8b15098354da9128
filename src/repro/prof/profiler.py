"""Sampled CPU attribution by layer.

:class:`Sampler` wraps a block of simulation work and arms
``ITIMER_PROF``; each ``SIGPROF`` books the innermost Python frame's
``(module, function)`` and the simulated clock's timeline bucket, and
does nothing else -- it schedules no event and draws no random number,
so a sampled run is byte-identical to a plain one.  A module's layer is
the longest prefix in :data:`LAYERS` that matches it (the vocabulary of
the benchmark's per-layer metrics), else ``other``.  See DESIGN.md §
Performance observability.
"""

import math
import signal
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: dotted module prefix -> layer; the longest matching prefix wins
LAYERS: Dict[str, str] = {
    "repro.sim": "sim",
    "repro.vmm": "vmm.hypervisor",
    "repro.vmm.coordination": "vmm.coordination",
    "repro.core": "core",
    "repro.mitigation": "mitigation",
    "repro.net": "net",
    "repro.net.tcp": "net.tcp",
    "repro.net.pgm": "net.pgm",
    "repro.cloud": "cloud",
    "repro.cloud.ingress": "cloud.ingress",
    "repro.cloud.egress": "cloud.egress",
    "repro.machine": "machine",
    "repro.machine.disk": "machine.disk",
    "repro.machine.fs": "machine.fs",
    "repro.workloads": "workloads",
    "repro.obs": "obs",
}

#: everything no prefix matches
OTHER = "other"

#: current summary schema; bumped on incompatible layout changes
PROFILE_SCHEMA = "repro.prof/2"

#: requested CPU seconds between samples
SAMPLE_INTERVAL = 0.001

#: simulated seconds per timeline bucket
TIMELINE_WIDTH = 0.05

#: function rows a summary lists as ``hottest``
HOTTEST = 20


def layer_of(module: Optional[str]) -> str:
    """The layer of a dotted module name (longest matching prefix)."""
    probe = module or ""
    while probe:
        layer = LAYERS.get(probe)
        if layer is not None:
            return layer
        probe = probe.rpartition(".")[0]
    return OTHER


class Sampler:
    """Books a ``with`` block's CPU to layers by ``SIGPROF`` sampling.

    Use it in the main thread, around work on ``sim``::

        with Sampler(sim) as sampler:
            built = spec.build(sim)
            built.run(until=duration)
        profile = sampler.summary()

    On exit it restores the ``SIGPROF`` handler and the ``ITIMER_PROF``
    setting it found, also when the block raises.
    """

    def __init__(self, sim):
        self.sim = sim
        #: (module, function) -> samples
        self._functions: Dict[Tuple[Optional[str], str], int] = {}
        #: timeline bucket index -> samples
        self._buckets: Dict[int, int] = {}
        self.samples = 0
        #: process CPU seconds spent inside the block
        self.cpu_seconds = 0.0
        #: events the simulator fired inside the block
        self.events = 0

    def _sample(self, _signum, frame) -> None:
        self.samples += 1
        where = _where(frame)
        self._functions[where] = self._functions.get(where, 0) + 1
        index = int(self.sim.now / TIMELINE_WIDTH)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def __enter__(self) -> "Sampler":
        self._handler = signal.signal(signal.SIGPROF, self._sample)
        self._events = self.sim.event_count
        self._cpu = time.process_time()
        self._timer = signal.setitimer(signal.ITIMER_PROF,
                                       SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, *self._timer)
        self.cpu_seconds += time.process_time() - self._cpu
        self.events += self.sim.event_count - self._events
        signal.signal(signal.SIGPROF, signal.SIG_DFL
                      if self._handler is None else self._handler)

    def summary(self, release_times: Optional[Iterable[float]] = None
                ) -> Dict[str, Any]:
        """The persistable attribution report (plain data).

        ``release_times`` (e.g. ``trace.times("egress.release")``)
        adds a releases column to the simulated-time timeline.
        """
        total = self.cpu_seconds
        per_sample = total / self.samples if self.samples else 0.0
        releases: Dict[int, int] = {}
        for when in release_times or ():
            index = int(when / TIMELINE_WIDTH)
            releases[index] = releases.get(index, 0) + 1
        buckets = [{"t": index * TIMELINE_WIDTH,
                    "samples": self._buckets.get(index, 0),
                    "seconds": self._buckets.get(index, 0) * per_sample,
                    "releases": releases.get(index, 0)}
                   for index in sorted(set(self._buckets) | set(releases))]
        rows = [{"subsystem": layer_of(module), "module": module or "?",
                 "callback": function, "samples": samples,
                 "seconds": samples * per_sample}
                for (module, function), samples in self._functions.items()]
        return _report(rows, self.samples,
                       unattributed=0.0 if self.samples else total,
                       events=self.events, total_seconds=total,
                       timeline={"bucket_width": TIMELINE_WIDTH,
                                 "buckets": buckets})


def _where(frame) -> Tuple[Optional[str], str]:
    """A frame's module and function: the function's qualified name,
    or its bare name before Python 3.11 (no ``co_qualname``)."""
    if frame is None:
        return None, "<no frame>"
    code = frame.f_code
    return (frame.f_globals.get("__name__"),
            getattr(code, "co_qualname", code.co_name))


def _report(rows: List[Dict[str, Any]], samples: int, unattributed: float,
            **fields) -> Dict[str, Any]:
    """The summary layout: each layer's seconds (``other`` also takes
    the ``unattributed`` seconds of blocks that got no sample), the
    binomial standard error of each layer's sample share,
    ``sqrt(p (1 - p) / samples)``, and the function rows, most sampled
    first."""
    rows.sort(key=lambda row: row["samples"], reverse=True)
    seconds = {OTHER: unattributed} if unattributed or not rows else {}
    counts: Dict[str, int] = {}
    for row in rows:
        layer = row["subsystem"]
        seconds[layer] = seconds.get(layer, 0.0) + row["seconds"]
        counts[layer] = counts.get(layer, 0) + row["samples"]
    return {
        "schema": PROFILE_SCHEMA,
        **fields,
        "samples": samples,
        "subsystems": dict(sorted(seconds.items(), key=lambda item: item[1],
                                  reverse=True)),
        "share_errors": {layer: math.sqrt(count * (samples - count))
                         / samples ** 1.5 for layer, count in counts.items()},
        "hottest": rows[:HOTTEST],
        "callbacks": rows,
    }


def merge_summaries(summaries: Iterable[Optional[Dict[str, Any]]]
                    ) -> Dict[str, Any]:
    """Fold several cells' :meth:`Sampler.summary` dicts into one
    campaign-level report: events, samples, seconds and function rows
    are summed, and the layers and standard errors re-derived from the
    sums.  Timelines are dropped -- cells run disjoint scenarios, so
    their simulated-time axes do not align."""
    rows: Dict[tuple, Dict[str, Any]] = {}
    cells = events = samples = 0
    total = unattributed = 0.0
    for summary in summaries:
        if not summary:
            continue
        cells += 1
        events += summary["events"]
        samples += summary["samples"]
        total += summary["total_seconds"]
        if not summary["samples"]:
            unattributed += summary["total_seconds"]
        for row in summary["callbacks"]:
            merged = rows.setdefault((row["module"], row["callback"]),
                                     dict(row, samples=0, seconds=0.0))
            merged["samples"] += row["samples"]
            merged["seconds"] += row["seconds"]
    return _report(list(rows.values()), samples, unattributed,
                   cells=cells, events=events, total_seconds=total,
                   timeline={"bucket_width": None, "buckets": []})
