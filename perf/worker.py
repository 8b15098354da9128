"""One benchmark repeat, run in a fresh single-threaded process.

    python3 perf/worker.py <workload> <seed> <mode>

``mode`` is ``timed`` (StopWatch, no tracing), ``baseline`` (the
``PASSTHROUGH`` config: one replica, no mediation; run untimed) or
``traced`` (StopWatch under ``cProfile`` with flow tracking on).  The
worker prints one JSON object on stdout.

Every workload is built through the simulator's public API only:
``ScenarioSpec.from_dict(...).build(sim)`` and ``BuiltScenario.run``
for the fleet, web and NFS workloads; ``Cloud`` + ``RunCollector`` +
``PARSEC_KERNELS`` for the PARSEC batch.  Nothing inside ``src/`` is
instrumented: the worker reads ``time.process_time`` around those calls
(after every ``SLICE`` of simulated time) and public counters after
them.  ``process_time`` counts from interpreter start, so the reading
taken just before the first simulated event is the set-up cost
(interpreter, imports, spec parse, build).
"""

import cProfile
import hashlib
import json
import math
import os
import resource
import sys
import time
from dataclasses import asdict

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from layers import group_by_layer  # noqa: E402

#: a tail percentile must leave at least this many samples beyond it
TAIL_MIN_BEYOND = 10

MODES = ("timed", "baseline", "traced")

#: The four workloads.  ``tail`` is the fixed tail percentile of the
#: latency samples; ``None`` means too few samples for any percentile
#: with ``TAIL_MIN_BEYOND`` beyond it, so the tail is the maximum.
#: ``paper`` is the StopWatch/baseline ratio EXPERIMENTS.md quotes from
#: the paper; parsec-batch derives its own from ``PARSEC_PAPER_VALUES``
#: and fleet-echo has no reference (the model is unvalidated there).
#: ``band`` is the EXPERIMENTS.md shape band ``overhead_x`` must sit in,
#: ``job_max_x`` the Fig. 7 ceiling on every batch job's own overhead.
WORKLOADS = {
    "fleet-echo": {
        "seed": 1, "tail": 99, "paper": None,
        "load": "open loop, Poisson pings at 30/s per tenant; the "
                "generator is simulated, so it is never late"},
    "web-download": {
        "seed": 11, "tail": 95, "paper": 2.8, "band": (2.0, 4.0),
        "load": "closed loop, 2 HTTP clients per VM"},
    "nfs-fs": {
        "seed": 11, "tail": 99, "paper": 2.7, "band": (2.0, 4.0),
        "load": "open loop, nhfsstone at 100 ops/s per VM on a fixed "
                "schedule; the generator is simulated, so it is never "
                "late"},
    "parsec-batch": {
        "seed": 3, "tail": None, "paper": None, "job_max_x": 2.3,
        "load": "batch, 5 jobs, one VM each"},
}

#: fleet-echo: 32 echo tenants, one open-loop Poisson pinger each
FLEET = {"tenants": 32, "rate": 30.0, "until": 3.0}
#: web-download: 4 fileserver VMs x 2 closed-loop HTTP clients (Fig. 5)
WEB = {"vms": 4, "clients": 2, "file_bytes": 100_000, "until": 7.0}
#: nfs-fs: 4 journalled-filesystem NFS VMs, one nhfsstone client each at
#: a fixed rate (Fig. 6 config: delta_net = 8 ms)
NFS = {"vms": 4, "rate": 100.0, "until": 10.0, "delta_net": 0.008}
#: parsec-batch: each kernel on its own 3-machine fabric (Fig. 7 config:
#: delta_disk = 8 ms), run in slices until the collector has its result
PARSEC = {"cap": 60.0, "delta_disk": 0.008}
#: every run advances in slices of this many simulated seconds, and the
#: CPU of each slice is recorded: the slices of two repeats do the same
#: work, so a burst of host contention shows up in one slice of one
#: repeat and the per-slice median across repeats filters it out
SLICE = 0.25
#: quiesce time at the end of every scenario run: clients stop issuing
#: so in-flight operations finish and replica output counts agree
DRAIN = 0.5

PING_PORT = 9100
#: per-category trace cap, far above any workload's release count, so
#: the egress signature always covers the whole run
TRACE_CAP = 1 << 20


def tail_percentile(samples, q):
    """Nearest-rank ``q``-th percentile of ``samples``.

    Refuses a percentile that leaves fewer than ``TAIL_MIN_BEYOND``
    samples beyond it: such a tail would rest on a handful of points.
    """
    n = len(samples)
    rank = math.ceil(n * q / 100.0)
    if n - rank < TAIL_MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples leaves {n - rank} beyond "
                         f"it; need >= {TAIL_MIN_BEYOND}")
    return sorted(samples)[max(rank, 1) - 1]


def latency_summary(samples, tail):
    """n, p50, tail and mean of simulated latencies (s in, ms out)."""
    if not samples:
        raise ValueError("no completed operations to time")
    ordered = sorted(samples)
    n = len(ordered)
    tail_s = ordered[-1] if tail is None else tail_percentile(ordered, tail)
    return {"n": n, "p50_ms": ordered[math.ceil(n / 2) - 1] * 1e3,
            "tail_ms": tail_s * 1e3, "mean_ms": sum(ordered) / n * 1e3,
            "tail": "max" if tail is None else f"p{tail:g}"}


class RttPinger:
    """Open-loop Poisson echo client that times each ping from when it
    was due.  The generator is simulated, so it is never late: due time
    and send time coincide."""

    def __init__(self, port, target, rate):
        from repro.net.udp import UdpStack
        from repro.workloads.echo import ECHO_PORT

        self.echo_port = ECHO_PORT
        self.node = port
        self.target = target
        self.rate = rate
        self.udp = UdpStack(port)
        self.udp.bind(PING_PORT, self._on_reply)
        self.sent = []
        self.rtts = []
        self.running = False

    def start(self):
        self.running = True
        self._send()

    def stop(self):
        self.running = False

    def _send(self):
        if not self.running:
            return
        self.udp.send(self.target, PING_PORT, self.echo_port, 64,
                      tag=len(self.sent))
        self.sent.append(self.node.now())
        self.node.schedule(self.node.rng.expovariate(self.rate), self._send)

    def _on_reply(self, datagram, _src):
        self.rtts.append(self.node.now() - self.sent[datagram.tag])


class CallCounter:
    """Counts calls to one bound method of an object, from outside."""

    def __init__(self, obj, name):
        self.calls = 0
        inner = getattr(obj, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        setattr(obj, name, counted)


# ---------------------------------------------------------------------------
# workloads: each builder returns a Job over one or more built fabrics
# ---------------------------------------------------------------------------
class Job:
    """A built workload: ``run(tick)`` advances it in ``SLICE``-second
    simulated slices, calling ``tick()`` after each, and returns the
    simulated seconds advanced; ``ops()`` returns (attempted, completed,
    latencies s)."""

    def __init__(self, sims, clouds, run, ops, placement_ok, jobs=None,
                 paper=None):
        self.sims = sims
        self.clouds = clouds
        self.run = run
        self.ops = ops
        self.placement_ok = placement_ok
        #: batch jobs only: name -> completion time (s), and the paper's
        #: (baseline ms, StopWatch ms, disk interrupts) per job
        self.jobs = jobs
        self.paper = paper


def _trace():
    from repro.sim.monitor import Trace
    return Trace(categories={"egress.release"}, max_per_category=TRACE_CAP)


def _config(mode, **sw_overrides):
    """StopWatch config overrides for ``mode``: the ``PASSTHROUGH``
    fields for the baseline, the workload's figure config otherwise."""
    from repro.core.config import DEFAULT, PASSTHROUGH

    if mode == "baseline":
        return {key: value for key, value in asdict(PASSTHROUGH).items()
                if getattr(DEFAULT, key) != value}
    return dict(sw_overrides)


def _scenario_job(sim, spec_dict, until, ops_of, attach=None):
    from repro.cloud.scenario import ScenarioSpec

    built = ScenarioSpec.from_dict(spec_dict).build(sim)
    if attach is not None:
        attach(built)

    def run(tick):
        # the drain as BuiltScenario.run(until, DRAIN) schedules it, so
        # the sliced run is the same run (same egress signature)
        for driver in built.drivers.values():
            sim.call_after(until - DRAIN, driver.stop)
        for k in range(1, math.ceil(until / SLICE) + 1):
            built.run(until=min(until, k * SLICE), drain=0)
            tick()
        return until

    return Job([sim], [built.cloud], run, lambda: ops_of(built),
               built.verify_placement)


def build_fleet_echo(mode, seed, scale):
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=seed, trace=_trace())
    until = FLEET["until"] * scale
    pingers = []

    def attach(built):
        # the scenario's PingClient keeps no send times, so the tenants
        # get no scenario clients and an RTT-timing pinger each instead
        for vm_name in built.tenant_vms["echo"]:
            port = built.cloud.add_client(f"client:{vm_name}.0")
            pinger = RttPinger(port, f"vm:{vm_name}", FLEET["rate"])
            sim.call_after(built.spec.start_delay, pinger.start)
            sim.call_after(until - DRAIN, pinger.stop)
            pingers.append(pinger)

    def ops(_built):
        return (sum(len(p.sent) for p in pingers),
                sum(len(p.rtts) for p in pingers),
                [rtt for p in pingers for rtt in p.rtts])

    spec = {"name": "fleet-echo", "config": _config(mode),
            "tenant": [{"name": "echo",
                        "count": max(1, round(FLEET["tenants"] * scale)),
                        "workload": "echo", "clients": 0}]}
    return _scenario_job(sim, spec, until, ops, attach)


def build_web_download(mode, seed, scale):
    from repro.analysis.experiments import PERF_HOST_KWARGS
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=seed, trace=_trace())
    counters = []

    def attach(built):
        for loop in built.drivers.values():
            counters.append(CallCounter(loop.downloader, "download"))

    def ops(built):
        loops = list(built.drivers.values())
        return (sum(c.calls for c in counters),
                sum(loop.completed for loop in loops),
                [x for loop in loops for x in loop.latencies])

    spec = {"name": "web-download", "config": _config(mode),
            "host": PERF_HOST_KWARGS,
            "tenant": [{"name": "web", "count": WEB["vms"],
                        "workload": "fileserver",
                        "clients": WEB["clients"],
                        "file_bytes": WEB["file_bytes"]}]}
    return _scenario_job(sim, spec, WEB["until"] * scale, ops, attach)


def build_nfs_fs(mode, seed, scale):
    from repro.analysis.experiments import PERF_HOST_KWARGS
    from repro.sim.kernel import Simulator

    sim = Simulator(seed=seed, trace=_trace())

    def ops(built):
        clients = list(built.drivers.values())
        return (sum(c.ops_issued for c in clients),
                sum(c.ops_completed for c in clients),
                [x for c in clients for x in c.latencies])

    spec = {"name": "nfs-fs",
            "config": _config(mode, delta_net=NFS["delta_net"]),
            "host": PERF_HOST_KWARGS,
            "tenant": [{"name": "nfs", "count": NFS["vms"],
                        "workload": "nfs", "clients": 1,
                        "request_rate": NFS["rate"],
                        "workload_params": {"filesystem": True}}]}
    return _scenario_job(sim, spec, NFS["until"] * scale, ops)


def build_parsec_batch(mode, seed, scale):
    from repro.analysis.experiments import (PARSEC_PAPER_VALUES,
                                            PERF_HOST_KWARGS)
    from repro.cloud.fabric import Cloud
    from repro.core.config import DEFAULT, PASSTHROUGH
    from repro.sim.kernel import Simulator
    from repro.workloads.parsec import PARSEC_KERNELS, RunCollector

    config = PASSTHROUGH if mode == "baseline" \
        else DEFAULT.with_overrides(delta_disk=PARSEC["delta_disk"])
    cells = []
    for name, cls in PARSEC_KERNELS.items():
        sim = Simulator(seed=seed, trace=_trace())
        cloud = Cloud(sim, machines=3, config=config,
                      host_kwargs=PERF_HOST_KWARGS)
        collector = RunCollector(cloud.add_client("collector:1"))
        cloud.create_vm(name, lambda guest, cls=cls: cls(
            guest, scale=scale, collector_addr="collector:1"))
        cells.append((name, sim, cloud, collector))
    done = {}

    def run(tick):
        # slicing stops each fabric once its result is in, instead of
        # ticking idle replicas to the Fig. 7 run's fixed 60 s
        advanced = 0.0
        for name, _sim, cloud, collector in cells:
            for k in range(1, math.ceil(PARSEC["cap"] / SLICE) + 1):
                until = k * SLICE
                cloud.run(until=until)
                tick()
                finished = collector.completion_time(name)
                if finished is not None:
                    done[name] = finished
                    break
            advanced += until
        return advanced

    def ops():
        return len(cells), len(done), list(done.values())

    def placement_ok():
        return all(cloud.placer is None or cloud.placer.verify()
                   for _, _, cloud, _ in cells)

    return Job([c[1] for c in cells], [c[2] for c in cells], run, ops,
               placement_ok, jobs=done, paper=PARSEC_PAPER_VALUES)


BUILDERS = {
    "fleet-echo": build_fleet_echo,
    "web-download": build_web_download,
    "nfs-fs": build_nfs_fs,
    "parsec-batch": build_parsec_batch,
}


# ---------------------------------------------------------------------------
# observations
# ---------------------------------------------------------------------------
def _signature(sims):
    from repro.analysis.scale import egress_signature

    signatures = [egress_signature(sim) for sim in sims]
    if len(signatures) == 1:
        return signatures[0]
    return hashlib.sha256("".join(signatures).encode()).hexdigest()


def _vmms(job):
    return [vmm for cloud in job.clouds for vm in cloud.vms.values()
            for vmm in vm.vmms]


def _checks(job):
    outputs_agree = all(
        len({vmm.stats["outputs"] for vmm in vm.vmms}) == 1
        for cloud in job.clouds for vm in cloud.vms.values())
    checks = {"outputs_agree": outputs_agree,
              "divergences": sum(v.stats["divergences"] for v in _vmms(job)),
              "placement_ok": job.placement_ok()}
    if job.jobs is not None:
        checks["disk_interrupts"] = {
            name: vm.vmms[0].stats["disk_interrupts"]
            for cloud in job.clouds for name, vm in cloud.vms.items()}
    return checks


def _counters(job):
    vmms = _vmms(job)
    stat = lambda key: sum(vmm.stats[key] for vmm in vmms)  # noqa: E731
    fs_stats = [w.fs.stats for cloud in job.clouds
                for vm in cloud.vms.values() for w in vm.workloads
                if getattr(w, "fs", None) is not None]
    hits = sum(s["cache_hits"] for s in fs_stats)
    lookups = hits + sum(s["cache_misses"] for s in fs_stats)
    fired = sum(sim.event_count for sim in job.sims)
    cancelled = sum(sim.cancelled_count for sim in job.sims)
    return {
        "sim.events": fired,
        "sim.cancelled_frac": cancelled / (fired + cancelled),
        "sim.queue_high_water": max(s.heap_high_water for s in job.sims),
        "vmm.vm_exits": stat("vm_exits"),
        "vmm.timer_interrupts": stat("timer_interrupts"),
        "vmm.net_interrupts": stat("net_interrupts"),
        "vmm.disk_interrupts": stat("disk_interrupts"),
        "vmm.pacing_stall_s": stat("pacing_stall_time"),
        "cloud.packets_replicated": sum(c.packets_replicated
                                        for c in job.clouds),
        "cloud.packets_released": sum(c.packets_released
                                      for c in job.clouds),
        "machine.fs.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "machine.fs.journal_commits": sum(s["journal_commits"]
                                          for s in fs_stats),
    }


def _stages(job):
    """Per-stage simulated waits of every completed flow (ms)."""
    from repro.obs.flows import STAGES, stage_metrics

    metrics = None
    for sim in job.sims:
        metrics = stage_metrics(sim.flows, metrics)
    stages = {}
    for stage in STAGES:
        name = f"flow.stage.{stage}"
        n = metrics.histograms[name].count if name in metrics.histograms \
            else 0
        stages[stage] = {
            "n": n,
            "p50_ms": metrics.percentile(name, 50) * 1e3 if n else 0.0,
            "p99_ms": metrics.percentile(name, 99) * 1e3 if n else 0.0}
    return stages


def measure(workload, seed, mode, scale=1.0):
    """Build and run one repeat in this process; returns plain data.
    ``scale`` below 1 shrinks the run (for the smoke tests)."""
    if workload not in BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"have {sorted(BUILDERS)}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; have {MODES}")
    import repro.analysis.experiments  # noqa: F401  (scipy, numpy)
    import repro.analysis.scale  # noqa: F401
    import repro.cloud.scenario  # noqa: F401
    import repro.obs.flows  # noqa: F401
    imported = time.process_time()

    job = BUILDERS[workload](mode, seed, scale)
    if mode == "traced":
        for sim in job.sims:
            sim.flows.enable()
    built = time.process_time()

    profiler = cProfile.Profile(time.process_time) \
        if mode == "traced" else None
    if profiler is not None:
        profiler.enable()
    marks = [time.process_time()]
    sim_s = job.run(lambda: marks.append(time.process_time()))
    if profiler is not None:
        profiler.disable()

    attempted, completed, latencies = job.ops()
    result = {
        "workload": workload, "seed": seed, "mode": mode, "scale": scale,
        "import_s": imported, "build_s": built - imported,
        "setup_s": built, "cpu_s": marks[-1] - marks[0], "sim_s": sim_s,
        "slice_cpu_s": [b - a for a, b in zip(marks, marks[1:])],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted, "completed": completed,
        "latency": latency_summary(latencies,
                                   WORKLOADS[workload]["tail"]),
        "jobs": job.jobs,
        "paper_jobs": job.paper,
        "signature": _signature(job.sims),
        "checks": _checks(job),
        "counters": _counters(job),
    }
    if profiler is not None:
        profiler.create_stats()
        result["layers"] = group_by_layer(profiler.stats, SRC)
        result["stages"] = _stages(job)
    return result


def main(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(BUILDERS))
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=MODES)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        parser.exit(2, f"no simulator sources at {SRC}\n")
    sys.path.insert(0, SRC)
    print(json.dumps(measure(args.workload, args.seed, args.mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
