"""Chaos-run driver behind the ``repro chaos`` CLI subcommand.

Runs the representative mediated cloud (echo server, external pinging
client) with failure detection enabled, injects a fault campaign --
by default: crash one replica's host mid-run, restart and
replay-recover it later -- and reports what the pipeline did about it:
suspicion and degraded-agreement events, egress quorum changes, the
replay rejoin, and whether the client kept being served throughout.

Because every layer is seeded and the fault schedule is data, two runs
with the same seed must produce *identical* ``fault.*``/``recovery.*``/
``heal.*``/``egress.release`` trace sequences; :func:`determinism_check`
runs the experiment twice and compares the signatures record for
record.

On top of the single scripted run sits the randomized **chaos
campaign** (the ``chaos.storm`` benchmark cell): :func:`run_chaos_cell`
builds a fabric with spare capacity and an armed
:class:`~repro.faults.heal.EvacuationController`, throws a seeded
random fault storm at it (:meth:`FaultSchedule.seeded` -- orphaned
crashes, permanent host condemnations, edge partitions), and gates the
outcome on the machine-checked invariants in
:mod:`repro.faults.invariants` plus a same-seed determinism replay.
:func:`run_chaos_campaign` sweeps cells across seeds x scenarios
through the campaign executor.
"""

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import (first_divergence, percentile,
                                   replay_verdict, sampled,
                                   trace_signature)
from repro.core.config import RESILIENT
from repro.core.errors import check_choices, check_number
from repro.faults import FaultInjector, FaultSchedule
from repro.faults.schedule import FaultEvent
from repro.sim.kernel import Simulator
from repro.sim.monitor import Trace

#: trace prefixes that make up a chaos run's deterministic signature
SIGNATURE_PREFIXES = ("fault.", "recovery.", "heal.", "egress.release")

#: categories recorded during a chaos run (everything the signature
#: needs, plus the drop/ingress context shown in the timeline)
CHAOS_CATEGORIES = ("fault", "recovery", "heal", "egress", "net.drop")


def default_schedule(crash_at: float = 0.9,
                     restart_at: float = 2.0,
                     replica: int = 2) -> FaultSchedule:
    """Crash one echo replica, then replay-recover it."""
    return FaultSchedule.from_entries([
        (crash_at, "crash_replica", f"echo:{replica}"),
        (restart_at, "restart_replica", f"echo:{replica}"),
    ])


def run_chaos_experiment(seed: int = 7, duration: float = 3.0,
                         schedule: Optional[FaultSchedule] = None,
                         ping_interval: float = 0.040) -> dict:
    """One seeded chaos run; returns everything tests/CLI inspect."""
    from repro.cloud.fabric import Cloud
    from repro.workloads.echo import EchoServer, PingClient

    if schedule is None:
        schedule = default_schedule()
    config = RESILIENT
    trace = Trace(categories=CHAOS_CATEGORIES)
    sim = Simulator(seed=seed, trace=trace)
    cloud = Cloud(sim, machines=3, config=config)
    vm = cloud.create_vm("echo", EchoServer)
    client = cloud.add_client("client:1")
    # fixed spacing: the client's send times are independent of every
    # fault, so reply timestamps line up across compared runs
    pinger = PingClient(client, "vm:echo", local_port=9000,
                        spacing_fn=lambda rng: ping_interval)
    sim.call_after(0.05, pinger.start)

    injector = FaultInjector(cloud, schedule)
    injector.arm()
    cloud.run(until=duration)
    return {
        "sim": sim,
        "cloud": cloud,
        "vm": vm,
        "pinger": pinger,
        "injector": injector,
        "schedule": schedule,
    }


def chaos_signature(trace: Trace) -> List[Tuple]:
    """The run's deterministic signature: every fault/recovery/heal/
    release record (:func:`~repro.analysis.report.trace_signature`)."""
    return trace_signature(trace, SIGNATURE_PREFIXES)


def determinism_check(seed: int = 7, duration: float = 3.0,
                      schedule: Optional[FaultSchedule] = None) -> dict:
    """Run the experiment twice with the same seed; compare signatures."""
    first = run_chaos_experiment(seed=seed, duration=duration,
                                 schedule=schedule)
    second = run_chaos_experiment(seed=seed, duration=duration,
                                 schedule=schedule)
    sig_a = chaos_signature(first["sim"].trace)
    sig_b = chaos_signature(second["sim"].trace)
    divergence = first_divergence(sig_a, sig_b)
    return {
        "identical": divergence is None,
        "records": len(sig_a),
        "divergence": divergence,
        "first": first,
        "second": second,
    }


def chaos_timeline_rows(result: dict) -> List[Tuple]:
    """(time, category, detail) rows for the CLI timeline."""
    rows = []
    for record in result["sim"].trace.iter_records(""):
        if record.category.startswith(("fault.", "recovery.")) \
                or record.category.startswith("egress.") \
                and record.category != "egress.release":
            detail = " ".join(f"{k}={v}"
                              for k, v in sorted(record.payload.items()))
            rows.append((f"{record.time:.4f}", record.category, detail))
    return rows


# ---------------------------------------------------------------------------
# randomized chaos campaign: seeded storms x scenarios, invariant-gated
# ---------------------------------------------------------------------------
#: scenarios a campaign cell can build (all have spare host capacity,
#: so the EvacuationController always has somewhere to evacuate to)
CELL_SCENARIOS = ("single", "multi", "sharded")

#: quiet ramp before the storm opens
CELL_STORM_START = 0.3
#: fraction of the run the storm occupies
CELL_STORM_FRACTION = 0.3
#: trailing load-free drain so agreements/releases can settle
CELL_DRAIN = 1.5
#: per-request client timeout in cells (exercises the retry path)
CELL_CLIENT_TIMEOUT = 0.25

#: tightened failure detection for cells: suspicion must fire well
#: inside the storm window for the healer to have anything to do
CELL_CONFIG = {"egress_stale_timeout": 0.8,
               "stale_agreement_timeout": 0.5}


def _cell_spec(scenario: str):
    """The multi-tenant scenario specs cells deploy (echo tenants with
    client retry enabled; 9 machines for 4 triangles leaves ~5 slots
    of spare capacity to evacuate onto)."""
    from repro.cloud.scenario import ScenarioSpec, TenantSpec

    tenants = [TenantSpec(name=f"ten{i}", workload="echo", clients=1,
                          request_rate=25.0,
                          request_timeout=CELL_CLIENT_TIMEOUT)
               for i in range(4)]
    return ScenarioSpec(
        name=f"chaos-{scenario}", tenants=tenants, machines=9,
        shards=2 if scenario == "sharded" else 1,
        config=dict(CELL_CONFIG, failure_detection=True))


def _build_cell(sim, scenario: str, duration: float):
    """Wire one cell's fabric; returns (cloud, placer, pingers, run)."""
    cutoff = duration - CELL_DRAIN
    if scenario == "single":
        from repro.cloud.fabric import Cloud
        from repro.placement.scheduler import PlacementScheduler
        from repro.workloads.echo import EchoServer, PingClient

        config = RESILIENT.with_overrides(**CELL_CONFIG)
        placer = PlacementScheduler(5, 2)
        cloud = Cloud(sim, machines=5, config=config, placer=placer)
        cloud.create_vm("echo", EchoServer)
        client = cloud.add_client("client:echo.0")
        pinger = PingClient(client, "vm:echo", local_port=9000,
                            spacing_fn=lambda rng: 0.040,
                            timeout=CELL_CLIENT_TIMEOUT)
        sim.call_after(0.05, pinger.start)
        sim.call_after(cutoff, pinger.stop)
        return (cloud, placer, {"echo.0": pinger},
                lambda: cloud.run(until=duration))
    if scenario not in CELL_SCENARIOS:
        raise ValueError(f"unknown chaos scenario {scenario!r}; "
                         f"choose one of {CELL_SCENARIOS}")
    built = _cell_spec(scenario).build(sim)
    pingers = {f"{vm}.{slot}": driver
               for (vm, slot), driver in sorted(built.drivers.items())}
    return (built.cloud, built.placer, pingers,
            lambda: built.run(until=duration, drain=CELL_DRAIN))


def cell_storm(cloud, seed: int, duration: float,
               rate: float, scenario: str) -> FaultSchedule:
    """The cell's seeded random storm, shifted past the client ramp.

    Targets are derived from the *wired* fabric -- every replica, every
    replica-carrying host (as permanent-crash candidates) and every
    VM's edge shards -- so the storm composition tracks the scenario.
    """
    vm_names = sorted(cloud.vms)
    replica_targets = [f"{name}:{rid}" for name in vm_names
                       for rid in range(cloud.config.replicas)]
    occupied = sorted({vmm.host.host_id
                       for vm in cloud.vms.values() for vmm in vm.vmms})
    storm = FaultSchedule.seeded(
        seed=seed,
        duration=duration * CELL_STORM_FRACTION,
        replica_targets=replica_targets,
        host_targets=[f"host:{h.host_id}" for h in cloud.hosts],
        rate=rate,
        recovery_delay=0.5,
        crash_hosts=[f"host:{h}" for h in occupied],
        edge_targets=[f"{side}:{name}" for name in vm_names
                      for side in ("ingress", "egress")],
        max_host_crashes=1 if scenario == "single" else 2,
        edge_heal_delay=0.4,
        orphan_probability=0.25)
    return FaultSchedule([
        FaultEvent(e.time + CELL_STORM_START, e.fault, e.target,
                   dict(e.params))
        for e in storm])


def _cell_once(seed: int, scenario: str, duration: float,
               rate: float, profile: bool = False) -> Tuple[dict, List[Tuple]]:
    """One storm run; returns (plain-data result, trace signature)."""
    from repro.faults.heal import EvacuationController
    from repro.faults.invariants import check_all

    trace = Trace(categories=CHAOS_CATEGORIES + ("ingress",))
    sim = Simulator(seed=seed, trace=trace)
    with sampled(sim, profile) as sampler:
        cloud, placer, pingers, run = _build_cell(sim, scenario, duration)
        healer = EvacuationController(cloud)
        storm = cell_storm(cloud, seed, duration, rate, scenario)
        injector = FaultInjector(cloud, storm)
        injector.arm()
        run()
        violations = check_all(cloud, placer, pingers,
                               client_stop=duration - CELL_DRAIN)
    completes = list(trace.iter_records("heal.complete"))
    result = {
        "seed": seed,
        "scenario": scenario,
        "duration": duration,
        "rate": rate,
        "violations": [str(v) for v in violations],
        "storm_events": len(storm),
        "faults_injected": len(injector.applied),
        "noops": sim.metrics.counters.get("fault.noops", 0),
        "evacuations": len(healer.evacuations),
        "rejoins": sum(1 for r in completes
                       if r.payload.get("mode") == "rejoin"),
        "readmits": sum(1 for r in completes
                        if r.payload.get("mode") == "readmit"),
        "heal_failures": len(healer.failures),
        "recovery_times": sorted(r.payload["elapsed"] for r in completes),
        "sent": sum(p.sent for p in pingers.values()),
        "replies": sum(len(p.reply_times) for p in pingers.values()),
        "client_retries": sum(getattr(p, "retries", 0)
                              for p in pingers.values()),
    }
    if sampler is not None:
        result["profile"] = sampler.summary(
            release_times=trace.times("egress.release"))
    return result, chaos_signature(trace)


def _check_cell(duration: float, rate: float) -> None:
    """A cell must outlast its quiet ramp and its drain, and end; its
    clients must send."""
    check_number("duration", duration, CELL_DRAIN + CELL_STORM_START,
                 " s (storm ramp + drain)")
    check_number("rate", rate)


def run_chaos_cell(seed: int = 7, scenario: str = "single",
                   duration: float = 6.0, rate: float = 1.2,
                   check_determinism: bool = True,
                   profile: bool = False) -> dict:
    """One invariant-gated chaos cell (a campaign-dispatchable runner).

    Builds the scenario's fabric with an armed healer, runs the seeded
    storm, checks placement/liveness/hygiene invariants, and (by
    default) re-runs the identical cell to verify the
    fault/recovery/heal/release signature is byte-identical.  Returns
    plain data; ``ok`` is the single pass/fail gate.

    With ``profile=True`` the primary run is sampled (the determinism
    replay never is) and the cell carries a ``"profile"`` layer
    summary; the signature comparison then doubles as the
    sampler-neutrality check -- a sampled run and its unsampled
    replay must produce identical fault/heal/release records.
    """
    _check_cell(duration, rate)
    result, signature = _cell_once(seed, scenario, duration, rate,
                                   profile=profile)
    replay = (_cell_once(seed, scenario, duration, rate)[1]
              if check_determinism else None)
    result.update(replay_verdict(signature, replay))
    result["ok"] = (not result["violations"]
                    and result["deterministic"] is not False)
    return result


def run_chaos_campaign(seeds: Optional[Sequence[int]] = None,
                       scenarios: Sequence[str] = CELL_SCENARIOS,
                       duration: float = 6.0, rate: float = 1.2,
                       jobs: int = 1, check_determinism: bool = True,
                       timeout: Optional[float] = 300.0,
                       profile: bool = False,
                       progress=None) -> dict:
    """Sweep chaos cells across seeds x scenarios; aggregate the gates.

    Defaults give 7 seeds x 3 scenarios = 21 invariant-gated cells.
    ``jobs > 1`` (or ``0``, one per CPU) fans cells out across worker
    processes via the campaign executor; results are identical either
    way.  With ``profile=True`` each cell's primary run carries a
    layer profile (persisted per cell by the executor), and the
    summary merges them into one campaign-wide attribution.  No seeds, no
    scenarios, an unknown scenario or a ``timeout`` that is not a
    finite number > 0 (the campaign spec's check) raise
    :class:`~repro.core.errors.BadOverride` before any cell runs.
    """
    from repro.campaign.executor import CampaignExecutor
    from repro.campaign.spec import CampaignSpec, SweepSpec
    from repro.sim.rng import derive_root_seed

    _check_cell(duration, rate)
    if seeds is None:
        seeds = [derive_root_seed(101, i) for i in range(7)]
    check_choices("seeds", seeds)
    check_choices("scenarios", scenarios, CELL_SCENARIOS)
    params = {"duration": duration, "rate": rate,
              "check_determinism": check_determinism}
    if profile:
        # only stamp the cell params when on, so profiled campaigns
        # never share cache entries with unprofiled ones
        params["profile"] = True
    spec = CampaignSpec(
        name="chaos-storm",
        sweeps=[SweepSpec(
            runner="chaos_cell",
            params=params,
            grid={"scenario": list(scenarios)})],
        seeds=list(seeds),
        timeout=timeout)
    executor = CampaignExecutor(spec, cache=None, jobs=jobs,
                                progress=progress)
    return summarize_chaos_campaign(executor.run())


def summarize_chaos_campaign(report) -> dict:
    """Roll a campaign report up into the BENCH/CI gate summary."""
    cells: List[dict] = []
    violations: List[str] = []
    recovery: List[float] = []
    totals = {"evacuations": 0, "rejoins": 0, "readmits": 0,
              "heal_failures": 0, "faults_injected": 0, "noops": 0,
              "sent": 0, "replies": 0, "client_retries": 0}
    nondeterministic = 0
    profiles: List[dict] = []
    for cell_result in report.results:
        if not cell_result.ok:
            violations.append(f"{cell_result.cell.label()}: "
                              f"{cell_result.status}: {cell_result.error}")
            cells.append({"cell": cell_result.cell.label(),
                          "status": cell_result.status,
                          "error": cell_result.error})
            continue
        value = cell_result.value
        cells.append(value)
        prefix = f"seed={value['seed']} {value['scenario']}"
        violations.extend(f"{prefix}: {item}"
                          for item in value["violations"])
        if value["deterministic"] is False:
            nondeterministic += 1
            violations.append(
                f"{prefix}: signature diverged: {value['divergence']}")
        recovery.extend(value["recovery_times"])
        if value.get("profile"):
            profiles.append(value["profile"])
        for key in totals:
            totals[key] += value[key]
    profile_summary = None
    if profiles:
        from repro.prof.profiler import merge_summaries

        profile_summary = merge_summaries(profiles)
    return {
        "profile": profile_summary,
        "cells": len(report.results),
        "ok": not violations,
        "violations": violations,
        "nondeterministic_cells": nondeterministic,
        "recovery_p50": percentile(recovery, 50),
        "recovery_p95": percentile(recovery, 95),
        "recoveries": len(recovery),
        "wall_seconds": round(report.wall_seconds, 3),
        "results": cells,
        **totals,
    }


#: summary keys that become trajectory-entry metrics
_ENTRY_METRICS = ("cells", "nondeterministic_cells", "recovery_p50",
                  "recovery_p95", "recoveries", "evacuations", "rejoins",
                  "readmits", "heal_failures", "faults_injected", "noops",
                  "sent", "replies", "client_retries", "wall_seconds")


def chaos_metrics(summary: dict) -> dict:
    """The ``chaos.storm`` trajectory-entry metrics of a campaign
    summary.

    The primary metric is ``replies`` -- end-to-end client service
    under the storm -- which is fully deterministic for a fixed config,
    so the 20 % gate only trips on real behaviour changes.
    """
    metrics = {key: summary.get(key) for key in _ENTRY_METRICS}
    metrics["violations"] = len(summary.get("violations", ()))
    return metrics


def chaos_report(summary: dict) -> List[str]:
    """The printed summary of a ``chaos.storm`` campaign: healing,
    service, and the invariant verdict with every violation."""
    recovery = ("no recoveries needed" if summary["recovery_p50"] is None
                else f"recovery p50 {summary['recovery_p50']:.3f}s "
                     f"p95 {summary['recovery_p95']:.3f}s")
    lines = [
        f"Chaos campaign: {summary['cells']} cells, "
        f"{summary['faults_injected']} faults injected "
        f"({summary['noops']} no-ops) in "
        f"{summary['wall_seconds']:.1f}s wall",
        f"Healing: {summary['evacuations']} evacuations, "
        f"{summary['rejoins']} in-place rejoins, "
        f"{summary['readmits']} readmits, "
        f"{summary['heal_failures']} gave up; {recovery}",
        f"Service: {summary['replies']}/{summary['sent']} pings "
        f"answered, {summary['client_retries']} client retries"]
    if summary["ok"]:
        replayed = all(cell["deterministic"] for cell in summary["results"])
        return lines + [
            f"Invariants: PASS -- placement, liveness and hygiene held in "
            f"all {summary['cells']} cells"
            + ("; all signatures replayed byte-identical" if replayed
               else "")]
    return lines + [f"Invariants: FAIL -- {len(summary['violations'])} "
                    f"violations:"] + [
        f"  {violation}" for violation in summary["violations"]]


def service_summary(result: dict) -> dict:
    """Client-visible availability around the fault window."""
    pinger = result["pinger"]
    schedule = result["schedule"]
    crash_times = [e.time for e in schedule if e.fault == "crash_replica"]
    restart_times = [e.time for e in schedule
                     if e.fault == "restart_replica"]
    window = (min(crash_times) if crash_times else 0.0,
              max(restart_times) if restart_times else 0.0)
    during = [t for t in pinger.reply_times if window[0] <= t <= window[1]]
    after = [t for t in pinger.reply_times if t > window[1]]
    return {
        "sent": pinger.sent,
        "replies": len(pinger.reply_times),
        "replies_during_outage": len(during),
        "replies_after_recovery": len(after),
        "released": result["cloud"].egress.packets_released,
        "window": window,
    }
