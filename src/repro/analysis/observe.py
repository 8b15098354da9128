"""The Sec. VII-A cloud and what its trace says.

:func:`run_observed_workload` runs the representative cloud (an echo
server pinged from an external client next to a disk-bound PARSEC
kernel) with tracing on.  ``repro observe`` runs it once and reports
everything the observability layer captured: per-category record
counts, ring-buffer drops, the JSONL stream, event-loop health
counters, the mediation delays behind the Sec. VII-A table
(:func:`mediation_delays`, :func:`offset_rows`) and, with
``flows=True``, causal spans (:mod:`repro.analysis.flows`).
"""

import contextlib
from typing import Iterable, List, Optional, Tuple

from repro.analysis.report import sampled, summarize
from repro.core.config import DEFAULT
from repro.sim.kernel import Simulator
from repro.sim.monitor import JsonlSink, Trace, TraceRecord


def run_observed_workload(duration: float = 2.0, seed: int = 5,
                          categories: Optional[Iterable[str]] = None,
                          max_per_category: Optional[int] = None,
                          profile: bool = False,
                          jsonl_path: Optional[str] = None,
                          flows: bool = False,
                          ) -> Tuple[Simulator, Optional[JsonlSink],
                                     Optional[dict]]:
    """Run the echo+compute cloud with tracing enabled; returns the
    simulator (trace attached), the streaming sink, if one was
    requested, and with ``profile=True`` the run's
    :class:`~repro.prof.profiler.Sampler` summary (else ``None``).
    ``flows=True`` also turns on causal span/flow tracking
    (``sim.flows``)."""
    from repro.analysis.experiments import PERF_HOST_KWARGS
    from repro.cloud.fabric import Cloud
    from repro.workloads.echo import EchoServer, PingClient
    from repro.workloads.parsec import BlackScholes

    trace = Trace(categories=categories,
                  max_per_category=max_per_category)
    # a run that raises discards the stream, so ``jsonl_path`` keeps
    # its previous content
    with (JsonlSink(jsonl_path, trace) if jsonl_path
          else contextlib.nullcontext()) as sink:
        sim = Simulator(seed=seed, trace=trace)
        if flows:
            sim.flows.enable()
        with sampled(sim, profile) as sampler:
            cloud = Cloud(sim, machines=3, config=DEFAULT,
                          host_kwargs=PERF_HOST_KWARGS)
            cloud.create_vm("echo", EchoServer)
            cloud.create_vm("compute", lambda guest: BlackScholes(guest),
                            hosts=[0, 1, 2])
            client = cloud.add_client("client:1")
            pinger = PingClient(client, "vm:echo", mean_interval=0.015)
            sim.call_after(0.05, pinger.start)
            cloud.run(until=duration)
    profile = None if sampler is None else sampler.summary(
        release_times=trace.times("egress.release"))
    return sim, sink, profile


def trace_category_rows(trace: Trace) -> list:
    """(category, retained, dropped) rows for every recorded category."""
    return [(category, retained,
             trace.dropped_by_category.get(category, 0))
            for category, retained in trace.counts().items()]


def _delays(trace: Trace, starts: Iterable[TraceRecord], category: str,
            key: str) -> List[float]:
    """Replica-0 ``category`` record time minus the time of the start
    record with the same VM and ``key``, for every matched pair."""
    started = {(r.payload.get("vm"), r.payload.get(key)): r.time
               for r in starts}
    delays = []
    for record in trace.iter_records(category, replica=0):
        start = started.get((record.payload.get("vm"),
                             record.payload.get(key)))
        if start is not None:
            delays.append(record.time - start)
    return delays


def mediation_delays(trace: Trace) -> Tuple[List[float], List[float]]:
    """The Sec. VII-A mediation delays in a trace, in seconds: (net,
    disk).

    A net delay is ingress arrival -> replica-0 delivery (Δn in real
    time); a disk delay is replica-0 disk request -> delivery (Δd).
    """
    net = _delays(trace, trace.iter_records("ingress.replicate"),
                  "vmm.deliver.net", "seq")
    disk = _delays(trace, trace.iter_records("vmm.disk.request", replica=0),
                   "vmm.deliver.disk", "req")
    return net, disk


def offset_rows(trace: Trace) -> list:
    """The Sec. VII-A table: (offset, events, mean, min, max, p50, p95,
    p99) rows in milliseconds for ``delta_n`` and ``delta_d``."""
    rows = []
    for name, delays in zip(("delta_n", "delta_d"),
                            mediation_delays(trace)):
        s = summarize([delay * 1000 for delay in delays])
        rows.append((name, s["count"], s["mean"], s["min"], s["max"],
                     s["p50"], s["p95"], s["p99"]))
    return rows
