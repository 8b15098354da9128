"""Parallel campaign execution: each cell runs once.

Every cell is a seeded, deterministic simulation, so running it again
would only repeat its outcome.  The executor runs each cell once and
records what happened:

- **exception in a runner** -- the worker catches it and returns a
  ``failed`` record with the traceback; the campaign continues.
- **timeout** -- enforced *inside* the worker via ``SIGALRM``, which
  interrupts a pure-Python runner at once and a long C call as soon as
  it returns; the record reads ``timeout``.
- **worker crash** (segfault, OOM-kill) -- a dead worker breaks the
  whole pool, which then cannot say whose cell killed it.  Nothing more
  is submitted: each cell that was in flight re-runs alone on a fresh
  one-worker pool, only a cell that kills its solo worker too is
  ``crashed``, and the queue continues on a fresh pool.  No cell runs
  more than twice, and no sibling is blamed for a crash it did not
  cause.

``jobs == 1`` runs the cells in this process, one after another;
``jobs > 1`` fans them out over a ``ProcessPoolExecutor`` with at most
``jobs`` in flight (lazy submission, so a submitted cell is an
executing one -- which is what "in flight at a crash" means).

Completed cells are written to the :class:`~repro.campaign.cache.ResultCache`
and appended to the campaign manifest as they finish, so an interrupted
campaign resumes from exactly the missing cells.  The orchestrator
records its own lifecycle into the observability layer: a
``campaign.*`` :class:`~repro.sim.monitor.Trace` (wall-clock times) and
a :class:`~repro.sim.monitor.MetricSet` of task counters/durations.
"""

import json
import os
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor,
                                ProcessPoolExecutor, wait)
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.campaign.cache import ResultCache
from repro.campaign.spec import CampaignSpec, TaskCell, resolve_runner
from repro.ioutil import append_jsonl
from repro.sim.monitor import MetricSet, Trace

#: the record of a cell whose solo worker died too
CRASHED = {"status": "crashed", "value": None, "duration": 0.0,
           "error": "the worker process died running this cell alone"}


class TaskTimeout(Exception):
    """Raised inside a worker when the per-task alarm fires."""


def _json_default(obj: Any) -> Any:
    """Coerce numpy scalars/arrays to plain data; ``repr`` the rest."""
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        try:
            return tolist()
        except Exception:
            pass
    return repr(obj)


def normalize_result(value: Any) -> Any:
    """A JSON round-trip: tuples become lists, numpy scalars become
    numbers, unserialisable objects become their ``repr``.  This is the
    form results take in the cache and the aggregation layer."""
    return json.loads(json.dumps(value, default=_json_default))


def execute_cell(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cell in the current process; never raises.

    ``payload`` is the picklable task description produced by
    :meth:`CampaignExecutor._payload`.  The returned record always has
    ``status`` (``ok`` / ``failed`` / ``timeout``) and ``duration``.
    """
    timeout = payload.get("timeout")
    use_alarm = (timeout is not None and hasattr(signal, "SIGALRM")
                 and threading.current_thread()
                 is threading.main_thread())
    start = time.perf_counter()
    previous_handler = None
    try:
        fn = resolve_runner(payload["runner"])
        kwargs = dict(payload["params"])
        if payload.get("seed") is not None:
            kwargs[payload.get("seed_param", "seed")] = payload["seed"]
        if use_alarm:
            def _alarm(_signum, _frame):
                raise TaskTimeout(
                    f"cell exceeded its {timeout:g}s timeout")
            previous_handler = signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        value = normalize_result(fn(**kwargs))
        metrics = (value.get("metrics")
                   if isinstance(value, dict)
                   and isinstance(value.get("metrics"), dict) else None)
        profile = (value.get("profile")
                   if isinstance(value, dict)
                   and isinstance(value.get("profile"), dict) else None)
        return {"status": "ok", "value": value, "metrics": metrics,
                "profile": profile, "error": None, "traceback": None,
                "duration": time.perf_counter() - start}
    except TaskTimeout as exc:
        return {"status": "timeout", "value": None, "error": str(exc),
                "traceback": None,
                "duration": time.perf_counter() - start}
    except Exception as exc:
        return {"status": "failed", "value": None, "error": repr(exc),
                "traceback": traceback.format_exc(),
                "duration": time.perf_counter() - start}
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            if previous_handler is not None:
                signal.signal(signal.SIGALRM, previous_handler)


@dataclass
class CellResult:
    """Final outcome of one cell (cached or freshly executed)."""

    cell: TaskCell
    status: str                 # ok | failed | timeout | crashed
    value: Any = None
    error: Optional[str] = None
    duration: float = 0.0
    cached: bool = False
    #: the runner's MetricSet.snapshot(), when it returned one (a dict
    #: value with a "metrics" key) -- persisted through cache and
    #: manifest for cross-seed rollups
    metrics: Optional[Dict[str, Any]] = None
    #: the runner's repro.prof layer summary, when it returned one
    #: (a dict value with a "profile" key) -- persisted alongside
    #: metrics so profiled campaigns survive cache hits and resume
    profile: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def record(self) -> Dict[str, Any]:
        """The cache/manifest representation."""
        return {"runner": self.cell.runner, "params": self.cell.params,
                "seed": self.cell.seed, "status": self.status,
                "value": self.value, "error": self.error,
                "duration": self.duration,
                "metrics": self.metrics, "profile": self.profile}


@dataclass
class CampaignReport:
    """Everything a campaign run produced, plus its telemetry."""

    name: str
    results: List[CellResult]
    wall_seconds: float
    trace: Trace = field(default_factory=Trace)
    metrics: MetricSet = field(default_factory=MetricSet)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def executed(self) -> int:
        return len(self.results) - self.cache_hits

    @property
    def failures(self) -> List[CellResult]:
        return [r for r in self.results if not r.ok]

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / len(self.results) if self.results else 0.0

    @property
    def tasks_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.executed / self.wall_seconds

    def summary_rows(self) -> List[tuple]:
        return [
            ("cells", len(self.results)),
            ("executed", self.executed),
            ("cache hits", self.cache_hits),
            ("cache hit rate", f"{100.0 * self.hit_rate:.1f}%"),
            ("failed", len(self.failures)),
            ("wall seconds", self.wall_seconds),
            ("tasks/sec", self.tasks_per_second),
        ]


class CampaignExecutor:
    """Schedule a :class:`CampaignSpec` across worker processes.

    ``jobs <= 0`` means one worker per CPU.  ``jobs == 1`` runs every
    cell in this process: exception and timeout handling are the same,
    but a cell that kills its process ends the campaign.
    """

    def __init__(self, spec: CampaignSpec, cache: Optional[ResultCache],
                 jobs: int = 1, timeout: Optional[float] = None,
                 manifest_path: Optional[str] = None,
                 progress: Optional[Callable[[str], None]] = None):
        self.spec = spec
        self.cache = cache
        self.jobs = jobs if jobs > 0 else (os.cpu_count() or 1)
        self.timeout = timeout if timeout is not None else spec.timeout
        self.manifest_path = manifest_path
        self.progress = progress
        self.trace = Trace()
        self.metrics = MetricSet()
        self._t0 = 0.0
        self._cells: List[TaskCell] = []
        self._results: Dict[int, CellResult] = {}

    # -- plumbing ------------------------------------------------------
    def _now(self) -> float:
        return time.monotonic() - self._t0

    def _emit(self, category: str, **payload: Any) -> None:
        self.trace.record(self._now(), category, **payload)

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _payload(self, index: int) -> Dict[str, Any]:
        cell = self._cells[index]
        return {"runner": cell.runner, "params": cell.params,
                "seed": cell.seed, "seed_param": cell.seed_param,
                "timeout": self.timeout}

    def _start(self, index: int) -> None:
        cell = self._cells[index]
        self._emit("campaign.task.start", runner=cell.runner,
                   seed=cell.seed)

    # -- bookkeeping for finished cells --------------------------------
    def _finish(self, index: int, outcome: Dict[str, Any]) -> None:
        cell = self._cells[index]
        result = CellResult(cell=cell, status=outcome["status"],
                            value=outcome.get("value"),
                            error=outcome.get("error"),
                            duration=outcome.get("duration", 0.0),
                            metrics=outcome.get("metrics"),
                            profile=outcome.get("profile"))
        self._results[index] = result
        key = None
        if self.cache is not None:
            key = self.cache.key(cell)
            record = result.record()
            record["traceback"] = outcome.get("traceback")
            self.cache.put(key, record)
        if self.manifest_path is not None:
            append_jsonl(self.manifest_path, {
                "key": key, "runner": cell.runner, "seed": cell.seed,
                "params": cell.params, "status": result.status,
                "cached": False, "duration": result.duration,
                "metrics": result.metrics, "profile": result.profile})
        self.metrics.incr("executed")
        self.metrics.incr(result.status)
        self.metrics.observe("task.duration", result.duration)
        category = ("campaign.task.done" if result.ok
                    else "campaign.task.failed")
        self._emit(category, runner=cell.runner, seed=cell.seed,
                   status=result.status, duration=result.duration)
        self._say(f"[{len(self._results)}/{len(self._cells)}] "
                  f"{cell.label()} -- {result.status} "
                  f"in {result.duration:.2f}s")

    # -- the run -------------------------------------------------------
    def run(self) -> CampaignReport:
        self._t0 = time.monotonic()
        self._cells = cells = self.spec.expand()
        self._results = {}
        self.metrics.incr("cells", len(cells))
        pending: Deque[int] = deque()

        for index, cell in enumerate(cells):
            record = (self.cache.get(self.cache.key(cell))
                      if self.cache is not None else None)
            if record is not None and record.get("status") == "ok":
                self._results[index] = CellResult(
                    cell=cell, status="ok", value=record.get("value"),
                    duration=record.get("duration", 0.0), cached=True,
                    metrics=record.get("metrics"),
                    profile=record.get("profile"))
                self.metrics.incr("cache.hits")
                self._emit("campaign.cache.hit", runner=cell.runner,
                           seed=cell.seed)
                self._say(f"[{len(self._results)}/{len(cells)}] "
                          f"{cell.label()} -- cached")
                if self.manifest_path is not None:
                    append_jsonl(self.manifest_path, {
                        "key": self.cache.key(cell),
                        "runner": cell.runner, "seed": cell.seed,
                        "params": cell.params, "status": "ok",
                        "cached": True,
                        "duration": record.get("duration", 0.0)})
            else:
                self.metrics.incr("cache.misses")
                pending.append(index)

        if self.jobs == 1:
            for index in pending:
                self._start(index)
                self._finish(index, execute_cell(self._payload(index)))
        else:
            self._run_pool(pending)

        wall = time.monotonic() - self._t0
        ordered = [self._results[i] for i in sorted(self._results)]
        return CampaignReport(name=self.spec.name, results=ordered,
                              wall_seconds=wall, trace=self.trace,
                              metrics=self.metrics)

    def _run_pool(self, queue: Deque[int]) -> None:
        while queue:
            suspects = self._drain(queue, self.jobs)
            if suspects:
                self._say(f"a worker died: re-running the {len(suspects)} "
                          f"cells in flight one at a time")
            for index in sorted(suspects):
                if self._drain(deque([index]), 1):
                    self._finish(index, CRASHED)

    def _drain(self, queue: Deque[int], workers: int) -> List[int]:
        """Run cells off ``queue`` on a fresh pool of ``workers``
        processes, at most ``workers`` in flight, until the queue is
        empty or a worker dies.  Returns the cells that were in flight
        when one died (none if none did); the rest stay queued."""
        in_flight: Dict[Any, int] = {}      # future -> cell index
        suspects: List[int] = []
        broken = False
        with ProcessPoolExecutor(max_workers=workers) as pool:
            while True:
                while queue and not broken and len(in_flight) < workers:
                    try:
                        future = pool.submit(execute_cell,
                                             self._payload(queue[0]))
                    except BrokenExecutor:  # a worker died, maybe idle
                        broken = True
                        break
                    index = queue.popleft()
                    self._start(index)
                    in_flight[future] = index
                if not in_flight:
                    return suspects
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    index = in_flight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenExecutor:
                        broken = True
                        suspects.append(index)
                    else:
                        self._finish(index, outcome)


def run_campaign(spec: CampaignSpec, cache: Optional[ResultCache] = None,
                 **kwargs: Any) -> CampaignReport:
    """One-call convenience wrapper around :class:`CampaignExecutor`."""
    return CampaignExecutor(spec, cache, **kwargs).run()
