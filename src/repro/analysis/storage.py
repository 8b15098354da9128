"""Storage-repair cell: erasure-coded tenant under a host crash.

The ``storage_repair`` campaign runner (and the ``storage.repair``
benchmark cell of ``repro bench run``) deploys one
k-of-n erasure-coded storage tenant through the workload registry,
runs the closed PUT/GET/verify loop, condemns one share-holding host
mid-run, and checks that the whole self-healing stack converges:

- the fabric suspicion pipeline degrades the VM and wakes both the
  :class:`~repro.faults.heal.EvacuationController` (replica-level
  replay/evacuation) and the tenant's
  :class:`~repro.workloads.storage.RepairDaemon` (share-level
  reconstruction across the mediated fabric);
- at end of run every object has ``n`` live shares again -- each
  tenant VM's live replicas hold a digest-verified share
  (:func:`live_share_report`);
- the chaos invariant gates (:mod:`repro.faults.invariants`) hold, and
  a same-seed replay reproduces the identical
  fault/heal/storage/release trace.

The primary benchmark metric is **repaired bytes per simulated
second** -- repair traffic crosses ingress replication, median
agreement, and the egress quorum like any client write, so it prices
StopWatch's mediation for the most disk-interrupt-heavy workload in
the suite.
"""

from typing import Dict, List, Optional, Tuple

from repro.analysis.report import replay_verdict, trace_signature
from repro.core.errors import BadOverride, check_count, check_number
from repro.faults import FaultInjector, FaultSchedule
from repro.sim.kernel import Simulator
from repro.sim.monitor import Trace

#: trace categories a storage cell records
STORAGE_CATEGORIES = ("fault", "recovery", "heal", "egress", "storage")

#: trace prefixes folded into the cell's determinism signature
SIGNATURE_PREFIXES = ("fault.", "recovery.", "heal.", "storage.",
                      "egress.release")

#: tightened failure detection (as the chaos cells use), so suspicion
#: fires well before the drain window
CELL_CONFIG = {"failure_detection": True, "egress_stale_timeout": 0.8,
               "stale_agreement_timeout": 0.5}

#: trailing load-free drain so repairs and agreements settle
CELL_DRAIN = 1.5


def build_storage_spec(k: int = 2, n: int = 3,
                       object_size: int = 8192, objects: int = 3,
                       clients: int = 1, machines: Optional[int] = None,
                       shards: int = 1, name: str = "storage-cell"):
    """A one-tenant erasure-coded storage scenario with spare hosts."""
    from repro.cloud.scenario import ScenarioSpec, TenantSpec

    return ScenarioSpec(
        name=name,
        machines=machines if machines is not None else max(9, 2 * n + 3),
        shards=shards,
        config=dict(CELL_CONFIG),
        tenants=[TenantSpec(
            name="store", count=n, workload="storage", clients=clients,
            workload_params={"k": k, "n": n, "object_size": object_size,
                             "objects": objects})])


def live_share_report(built, tenant: str = "store") -> Dict[str, int]:
    """object id -> number of tenant VMs whose *live* replicas all
    hold that object's share (the ``n`` live shares observable)."""
    report: Dict[str, int] = {}
    objects = set()
    vms = [built.cloud.vms[name] for name in built.tenant_vms[tenant]]
    for vm in vms:
        for workload in vm.workloads:
            objects.update(getattr(workload, "shares", {}))
    for obj in sorted(objects):
        live = 0
        for vm in vms:
            held = []
            for replica_id, workload in enumerate(vm.workloads):
                if vm.vmms[replica_id].failed:
                    continue
                held.append(obj in workload.shares)
            if held and all(held):
                live += 1
        report[obj] = live
    return report


def _cell_once(seed: int, duration: float, k: int, n: int,
               object_size: int, objects: int, crash_at: float,
               profile: bool = False) -> Tuple[dict, List[Tuple]]:
    """One storage-repair run; returns (plain result, signature)."""
    import time as _time

    from repro.faults.heal import EvacuationController
    from repro.faults.invariants import check_all
    from repro.workloads.storage import RepairDaemon, share_digest

    cell_started = _time.perf_counter()
    trace = Trace(categories=STORAGE_CATEGORIES)
    sim = Simulator(seed=seed, trace=trace, profile=profile)
    spec = build_storage_spec(k=k, n=n, object_size=object_size,
                              objects=objects)
    built = spec.build(sim)
    cloud = built.cloud
    healer = EvacuationController(cloud)
    driver = built.drivers[("store", 0)]
    targets = [f"vm:{name}" for name in built.tenant_vms["store"]]
    repair_node = cloud.add_client("client:repair.0")
    daemon = RepairDaemon(cloud, repair_node, targets, driver.client,
                          k=k, n=n).attach()

    # condemn the host carrying share 0's first replica: the storage
    # equivalent of losing one disk shelf
    victim_host = cloud.vms[built.tenant_vms["store"][0]].hosts[0]
    schedule = FaultSchedule.from_entries([
        (crash_at, "crash_host", f"host:{victim_host}")])
    injector = FaultInjector(cloud, schedule)
    injector.arm()

    built.run(until=duration, drain=CELL_DRAIN)

    shares_live = live_share_report(built)
    directory = driver.client.directory
    codec = driver.client.codec
    shares_verified = all(
        share_digest(workload.shares[obj][1])
        == directory[obj]["digests"][workload.shares[obj][0]]
        for vm_name in built.tenant_vms["store"]
        for replica_id, workload in enumerate(
            cloud.vms[vm_name].workloads)
        if not cloud.vms[vm_name].vmms[replica_id].failed
        for obj in workload.shares if obj in directory)
    violations = check_all(cloud, built.placer,
                           {"store.0": driver},
                           client_stop=duration - CELL_DRAIN,
                           clients=2)
    result = {
        "seed": seed,
        "duration": duration,
        "k": k,
        "n": n,
        "object_size": object_size,
        "objects": objects,
        "crash_at": crash_at,
        "victim_host": victim_host,
        "share_size": codec.share_size(object_size),
        "sent": driver.sent,
        "replies": len(driver.reply_times),
        "puts_completed": driver.client.puts_completed,
        "gets_completed": driver.client.gets_completed,
        "verify_failures": driver.verify_failures,
        "client_failures": driver.failed,
        "client_retries": driver.retries,
        "repairs_started": daemon.repairs_started,
        "repairs_completed": daemon.repairs_completed,
        "repair_failures": daemon.repair_failures,
        "repaired_bytes": daemon.repaired_bytes,
        "repaired_bytes_per_sim_s": daemon.repaired_bytes / duration,
        "heal_completions": daemon.heal_completions,
        "evacuations": len(healer.evacuations),
        "heal_failures": len(healer.failures),
        "objects_stored": len(directory),
        "min_live_shares": min(shares_live.values(), default=0),
        "shares_live": shares_live,
        "shares_verified": bool(shares_verified),
        "violations": [str(v) for v in violations],
    }
    if profile and sim.profiler is not None:
        result["profile"] = sim.profiler.summary(
            loop_seconds=sim.wall_seconds,
            total_seconds=_time.perf_counter() - cell_started,
            release_times=trace.times("egress.release"))
    return result, trace_signature(trace, SIGNATURE_PREFIXES)


def run_storage_repair_cell(seed: int = 7, duration: float = 6.0,
                            k: int = 2, n: int = 3,
                            object_size: int = 8192, objects: int = 3,
                            crash_at: float = 1.2,
                            check_determinism: bool = True,
                            profile: bool = False) -> dict:
    """One invariant-gated storage-repair cell (campaign-dispatchable).

    ``ok`` requires: no invariant violations, every stored object ends
    with ``n`` live digest-verified shares, at least one reconstruction
    actually ran, and (by default) a same-seed replay reproduces the
    identical fault/heal/storage/release signature.
    """
    if not 1 <= k <= n:
        raise BadOverride(f"need 1 <= k <= n, got k={k} n={n}")
    check_count("objects", objects)
    check_count("object_size", object_size)
    check_number("crash_at", crash_at, closed=True)
    check_number("duration", duration, crash_at + CELL_DRAIN,
                 f" s (crash_at + {CELL_DRAIN} s drain)")
    result, signature = _cell_once(seed, duration, k, n, object_size,
                                   objects, crash_at, profile=profile)
    replay = (_cell_once(seed, duration, k, n, object_size, objects,
                         crash_at)[1] if check_determinism else None)
    result.update(replay_verdict(signature, replay))
    result["ok"] = (not result["violations"]
                    and result["objects_stored"] > 0
                    and result["min_live_shares"] == n
                    and result["shares_verified"]
                    and result["repairs_completed"] > 0
                    and result["verify_failures"] == 0
                    and result["deterministic"] is not False)
    return result


#: result keys that become trajectory-entry metrics
_ENTRY_METRICS = ("sent", "replies", "puts_completed", "gets_completed",
                  "verify_failures", "client_failures", "client_retries",
                  "repairs_started", "repairs_completed",
                  "repair_failures", "repaired_bytes",
                  "repaired_bytes_per_sim_s", "evacuations",
                  "heal_failures", "objects_stored", "min_live_shares",
                  "signature_records")


def storage_metrics(result: dict) -> dict:
    """The ``storage.repair`` trajectory-entry metrics of one repair
    cell.

    Primary metric: ``repaired_bytes_per_sim_s`` -- reconstruction
    throughput across the mediated fabric, fully deterministic for a
    fixed config, so the regression gate only trips on real behaviour
    changes.
    """
    metrics = {key: result.get(key) for key in _ENTRY_METRICS}
    metrics["violations"] = len(result.get("violations", ()))
    return metrics


def storage_report(result: dict) -> List[str]:
    """The printed summary of a ``storage.repair`` cell: client, repair
    and share lines, the replay verdict and every violation."""
    lines = [
        f"Storage repair cell: {result['k']}-of-{result['n']} over "
        f"{result['objects_stored']} x {result['object_size']} B objects; "
        f"host {result['victim_host']} condemned at "
        f"t={result['crash_at']}s",
        f"  client: {result['puts_completed']} puts, "
        f"{result['gets_completed']} gets, "
        f"{result['verify_failures']} verify failures, "
        f"{result['client_retries']} retries",
        f"  repair: {result['repairs_completed']}/"
        f"{result['repairs_started']} completed, "
        f"{result['repaired_bytes']} B reconstructed "
        f"({result['repaired_bytes_per_sim_s']:.0f} B/sim-s); "
        f"healer: {result['evacuations']} evacuations",
        f"  shares: min {result['min_live_shares']}/{result['n']} live "
        f"per object, digests "
        f"{'verified' if result['shares_verified'] else 'MISMATCH'}"]
    if result["deterministic"] is not None:
        lines.append(f"  determinism: "
                     f"{'PASS' if result['deterministic'] else 'FAIL'} "
                     f"({result['signature_records']} signature records)")
    return lines + [f"  violation: {violation}"
                    for violation in result["violations"]]
