"""Tracing and metric collection for experiment harnesses.

The observability layer has three pieces:

- :class:`Trace` -- a category-indexed event recorder.  Records are
  bucketed per category at :meth:`Trace.record` time, so
  :meth:`Trace.select` / :meth:`Trace.times` / :meth:`Trace.count` cost
  O(matching categories + matching records) instead of a scan over the
  whole run.  Category whitelists and queries use hierarchical
  dotted-prefix semantics (``"vmm.inject"`` matches ``"vmm.inject"``
  and ``"vmm.inject.net"`` but not ``"vmm.injector"``).  Each bucket is
  a ring buffer with an optional cap, so tracing can stay enabled on
  million-event runs with bounded memory; evicted records are tallied
  in :attr:`Trace.dropped`.
- :class:`JsonlSink` -- a streaming subscriber that writes every
  admitted record as one JSON line; :meth:`Trace.export` dumps the
  retained records the same way after the fact.
- :class:`MetricSet` -- counters, gauges-as-sums and observation
  streams.  Observations feed a log-bucketed :class:`Histogram`, so
  :meth:`MetricSet.snapshot` reports min/max/mean and p50/p95/p99 for
  every metric with bounded memory.
"""

import heapq
import json
import math
import sys
from collections import defaultdict, deque
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)


class TraceRecord(NamedTuple):
    """One trace entry: (simulated time, category string, payload dict).

    ``seq`` is a trace-global sequence number assigned at record time; it
    gives a total order across category buckets (records within a bucket
    are already in order).
    """

    time: float
    category: str
    payload: dict
    seq: int = 0


def category_matches(prefix: str, category: str) -> bool:
    """Hierarchical dotted-prefix match.

    ``"vmm.inject"`` matches ``"vmm.inject"`` and ``"vmm.inject.net"``
    but not ``"vmm.injector"``.  The empty prefix matches everything.
    """
    if not prefix:
        return True
    return category == prefix or category.startswith(prefix + ".")


class CategoryFilter:
    """A whitelist of dotted category prefixes."""

    __slots__ = ("prefixes",)

    def __init__(self, prefixes: Iterable[str]):
        self.prefixes: Tuple[str, ...] = tuple(sorted(set(prefixes)))

    def admits(self, category: str) -> bool:
        return any(category_matches(p, category) for p in self.prefixes)

    def __repr__(self) -> str:
        return f"CategoryFilter({list(self.prefixes)!r})"


#: cache sentinel: "category not seen yet" (``None`` means "filtered out")
_UNSET = object()


class Trace:
    """An in-memory, category-indexed, optionally bounded event recorder.

    Components call :meth:`record`; experiment code pulls entries back out
    with :meth:`select`.  Categories are free-form dotted strings, e.g.
    ``"vmm.inject.net"`` or ``"egress.release"``.

    ``categories`` limits recording to a whitelist of dotted prefixes
    (hierarchical: whitelisting ``"vmm"`` records every ``vmm.*``
    category).  ``max_per_category`` turns each category bucket into a
    ring buffer: once full, the oldest record in that category is evicted
    and counted in :attr:`dropped` / :attr:`dropped_by_category`, so a
    long run holds at most ``cap * live-categories`` records.
    """

    def __init__(self, enabled: bool = True,
                 categories: Optional[Iterable[str]] = None,
                 max_per_category: Optional[int] = None):
        if max_per_category is not None and max_per_category <= 0:
            raise ValueError(
                f"max_per_category must be positive, got {max_per_category}")
        self.enabled = enabled
        self.categories = (None if categories is None
                           else CategoryFilter(categories))
        self.max_per_category = max_per_category
        self.dropped: int = 0
        self.dropped_by_category: Dict[str, int] = defaultdict(int)
        self._buckets: Dict[str, deque] = {}
        self._admitted: Dict[str, Optional[deque]] = {}
        self._query_cache: Dict[str, List[deque]] = {}
        self._seq: int = 0
        self._subscribers: List[Callable] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _admit(self, category: str) -> Optional[deque]:
        """Create (and cache) the bucket for ``category``, or cache a
        ``None`` verdict when the whitelist filters it out."""
        # intern the category so every later memo lookup for the same
        # literal hits the identity fast path in the dict probe
        category = sys.intern(category)
        if self.categories is not None \
                and not self.categories.admits(category):
            self._admitted[category] = None
            return None
        bucket = deque(maxlen=self.max_per_category)
        self._buckets[category] = bucket
        self._admitted[category] = bucket
        self._query_cache.clear()    # new category may match old queries
        return bucket

    def wants(self, category: str) -> bool:
        """True when a record in ``category`` would be retained.

        The cheap guard for callers whose payloads are expensive to
        build: ``if trace.wants("x.y"): trace.record(now, "x.y", ...)``.
        Disabled tracing or a filtered category costs one dict probe.
        """
        if not self.enabled:
            return False
        bucket = self._admitted.get(category, _UNSET)
        if bucket is _UNSET:
            bucket = self._admit(category)
        return bucket is not None

    def record(self, time: float, category: str, **payload: Any) -> None:
        if not self.enabled:
            return
        bucket = self._admitted.get(category, _UNSET)
        if bucket is _UNSET:
            bucket = self._admit(category)
        if bucket is None:
            return
        entry = TraceRecord(time, category, payload, self._seq)
        self._seq += 1
        if bucket.maxlen is not None and len(bucket) == bucket.maxlen:
            self.dropped += 1
            self.dropped_by_category[category] += 1
        bucket.append(entry)
        for fn in self._subscribers:
            fn(entry)

    def subscribe(self, fn: Callable) -> Callable:
        """Stream records to ``fn(record)`` as they are made; returns
        ``fn`` so callers can :meth:`unsubscribe` it later."""
        self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Callable) -> None:
        self._subscribers.remove(fn)

    # ------------------------------------------------------------------
    # queries -- all prefix-aware and O(categories + matches)
    # ------------------------------------------------------------------
    def _matching_buckets(self, prefix: str) -> List[deque]:
        buckets = self._query_cache.get(prefix)
        if buckets is None:
            buckets = [bucket
                       for category, bucket in self._buckets.items()
                       if category_matches(prefix, category)]
            self._query_cache[prefix] = buckets
        return buckets

    def iter_records(self, category: str = "",
                     **filters: Any) -> Iterator[TraceRecord]:
        """Records under the ``category`` prefix whose payload matches
        every filter, in record order (by global sequence number)."""
        buckets = self._matching_buckets(category)
        if len(buckets) == 1:
            merged: Iterable[TraceRecord] = buckets[0]
        else:
            merged = heapq.merge(*buckets, key=lambda r: r.seq)
        if filters:
            for rec in merged:
                if all(rec.payload.get(k) == v
                       for k, v in filters.items()):
                    yield rec
        else:
            yield from merged

    def select(self, category: str, **filters: Any) -> List[TraceRecord]:
        """Records under the ``category`` prefix whose payload matches
        every filter."""
        return list(self.iter_records(category, **filters))

    def times(self, category: str, **filters: Any) -> List[float]:
        return [r.time for r in self.iter_records(category, **filters)]

    def count(self, category: str, **filters: Any) -> int:
        if not filters:
            return sum(len(b) for b in self._matching_buckets(category))
        return sum(1 for _ in self.iter_records(category, **filters))

    def counts(self) -> Dict[str, int]:
        """Retained record count per exact category."""
        return {category: len(bucket)
                for category, bucket in sorted(self._buckets.items())
                if bucket}

    @property
    def records(self) -> List[TraceRecord]:
        """All retained records in record order (merged across buckets)."""
        return list(self.iter_records())

    def clear(self) -> None:
        for bucket in self._buckets.values():
            bucket.clear()
        self.dropped = 0
        self.dropped_by_category.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (f"<Trace {state} records={len(self)} "
                f"categories={len(self._buckets)} dropped={self.dropped}>")

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export(self, path: str, category: str = "",
               **filters: Any) -> int:
        """Write retained records under the ``category`` prefix to
        ``path`` as JSON lines; returns the number written.

        Schema (one object per line)::

            {"time": 1.25, "seq": 7, "category": "vmm.emit",
             "payload": {"vm": "echo", "replica": 0}}
        """
        from repro.ioutil import atomic_writer

        written = 0
        with atomic_writer(path) as handle:
            for rec in self.iter_records(category, **filters):
                handle.write(_record_to_json(rec))
                handle.write("\n")
                written += 1
        return written


def _sanitize(value, _depth: int = 0):
    """Force a payload value into JSON-encodable shape: containers are
    rebuilt with string keys, anything non-primitive becomes ``str``.
    The depth cap breaks cycles (json.dumps would raise ValueError)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if _depth < 8:
        if isinstance(value, dict):
            return {str(k): _sanitize(v, _depth + 1)
                    for k, v in value.items()}
        if isinstance(value, (list, tuple, set, frozenset)):
            return [_sanitize(v, _depth + 1) for v in value]
    return str(value)


def _record_to_json(record: TraceRecord) -> str:
    doc = {"time": record.time, "seq": record.seq,
           "category": record.category, "payload": record.payload}
    try:
        return json.dumps(doc, default=str, separators=(",", ":"))
    except (TypeError, ValueError):
        # non-string dict keys or a reference cycle: ``default`` never
        # fires for those, so rebuild the payload instead of crashing
        # mid-export
        doc["payload"] = _sanitize(record.payload)
        return json.dumps(doc, default=str, separators=(",", ":"))


class JsonlSink:
    """A streaming subscriber writing one JSON line per trace record.

    Unlike :meth:`Trace.export` (a post-hoc dump of whatever the ring
    buffers retained), a sink sees every admitted record, including ones
    later evicted.  Usable as a context manager::

        with JsonlSink("run.jsonl", trace) as sink:
            sim.run(until=10.0)
        print(sink.written)

    Records stream into a temp file that only replaces ``path`` on
    :meth:`close`; :meth:`discard` (and a ``with`` block that raises)
    drops it -- a run that dies mid-stream never leaves a truncated
    file at the destination.
    """

    def __init__(self, path: str, trace: Optional[Trace] = None):
        from repro.ioutil import AtomicWriter

        self.path = path
        self.written = 0
        self._writer = AtomicWriter(path)
        self._trace = trace
        if trace is not None:
            trace.subscribe(self)

    def __call__(self, record: TraceRecord) -> None:
        self._writer.write(_record_to_json(record))
        self._writer.write("\n")
        self.written += 1

    def _unsubscribe(self) -> None:
        if self._trace is not None:
            self._trace.unsubscribe(self)
            self._trace = None

    def close(self) -> None:
        """Publish the stream at ``path``."""
        self._unsubscribe()
        self._writer.commit()

    def discard(self) -> None:
        """Drop the stream; ``path`` keeps its previous content."""
        self._unsubscribe()
        self._writer.discard()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.discard()


class Histogram:
    """A log-bucketed histogram with bounded memory.

    Positive values land in geometric buckets (``growth`` per step, ~2%
    relative error at the default); zero and negative values get their
    own (mirrored) buckets.  Count, sum, min and max are exact; only the
    percentile estimate is quantised to bucket resolution.
    """

    __slots__ = ("growth", "_log_growth", "count", "total", "min", "max",
                 "zeros", "_pos", "_neg")

    def __init__(self, growth: float = 1.04):
        if growth <= 1.0:
            raise ValueError(f"growth must exceed 1.0, got {growth}")
        self.growth = growth
        self._log_growth = math.log(growth)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.zeros = 0
        self._pos: Dict[int, int] = defaultdict(int)
        self._neg: Dict[int, int] = defaultdict(int)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0:
            self._pos[int(math.floor(math.log(value)
                                     / self._log_growth))] += 1
        elif value < 0:
            self._neg[int(math.floor(math.log(-value)
                                     / self._log_growth))] += 1
        else:
            self.zeros += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _bucket_mid(self, index: int) -> float:
        low = self.growth ** index
        return math.sqrt(low * (low * self.growth))   # geometric midpoint

    def percentile(self, p: float) -> float:
        """Estimated value at percentile ``p`` (0..100)."""
        if not self.count:
            raise ValueError("percentile of an empty histogram")
        rank = max(1, math.ceil(self.count * min(max(p, 0.0), 100.0)
                                / 100.0))
        seen = 0
        for index in sorted(self._neg, reverse=True):   # most negative first
            seen += self._neg[index]
            if seen >= rank:
                return self._clamp(-self._bucket_mid(index))
        seen += self.zeros
        if self.zeros and seen >= rank:
            return 0.0
        for index in sorted(self._pos):
            seen += self._pos[index]
            if seen >= rank:
                return self._clamp(self._bucket_mid(index))
        return self.max

    def _clamp(self, value: float) -> float:
        return min(max(value, self.min), self.max)

    def snapshot(self, percentiles: Sequence[float] = (50, 95, 99)) -> dict:
        if not self.count:
            return {"count": 0}
        stats = {"count": self.count, "min": self.min, "max": self.max,
                 "mean": self.mean}
        for p in percentiles:
            stats[f"p{p:g}"] = self.percentile(p)
        return stats

    def __repr__(self) -> str:
        return f"<Histogram count={self.count} mean={self.mean:.6g}>"


class MetricSet:
    """Counters, accumulators and observation streams keyed by name.

    Observed values feed both a bounded retained-sample list (exact
    percentiles for short runs) and a :class:`Histogram` (bounded-memory
    estimates for long ones).  Querying a metric that was never observed
    raises ``KeyError`` -- a typo'd name must not read as a plausible
    zero.
    """

    def __init__(self, max_samples_per_metric: int = 4096):
        self.counters = defaultdict(int)
        self.sums = defaultdict(float)
        self.samples = defaultdict(list)
        self.histograms: Dict[str, Histogram] = {}
        self.max_samples_per_metric = max_samples_per_metric

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def add(self, name: str, amount: float) -> None:
        self.sums[name] += amount

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)
        retained = self.samples[name]
        if len(retained) < self.max_samples_per_metric:
            retained.append(value)

    def _histogram(self, name: str) -> Histogram:
        try:
            return self.histograms[name]
        except KeyError:
            raise KeyError(f"metric {name!r} was never observed") from None

    def mean(self, name: str) -> float:
        return self._histogram(name).mean

    def percentile(self, name: str, p: float) -> float:
        """Value at percentile ``p``: exact while every sample is
        retained, histogram-estimated once the retention cap is hit."""
        hist = self._histogram(name)
        retained = self.samples[name]
        if len(retained) == hist.count:
            ordered = sorted(retained)
            rank = max(1, math.ceil(len(ordered)
                                    * min(max(p, 0.0), 100.0) / 100.0))
            return ordered[rank - 1]
        return hist.percentile(p)

    def percentiles(self, name: str,
                    ps: Sequence[float] = (50, 95, 99)) -> Dict[str, float]:
        return {f"p{p:g}": self.percentile(name, p) for p in ps}

    def snapshot(self, percentiles: Sequence[float] = (50, 95, 99)) -> dict:
        """Everything, as plain data: counters, sums, and per-metric
        count/min/max/mean plus percentile estimates."""
        observations = {}
        for name, hist in self.histograms.items():
            stats = {"count": hist.count, "min": hist.min,
                     "max": hist.max, "mean": hist.mean}
            for p in percentiles:
                stats[f"p{p:g}"] = self.percentile(name, p)
            observations[name] = stats
        return {
            "counters": dict(self.counters),
            "sums": dict(self.sums),
            "sample_counts": {name: hist.count
                              for name, hist in self.histograms.items()},
            "observations": observations,
        }
