"""The mitigation frontier behind ``repro mitigate``.

One cell = one (policy, attack, seed) triple: run the attack's
absent/present pair under the policy (:mod:`repro.attacks.probes`,
:mod:`repro.attacks.scheduler`), estimate leakage in bits
(:mod:`repro.stats.mi`), and read the victim's client latencies as the
overhead axis.  :func:`mitigation_frontier` sweeps the grid through the
campaign executor and rolls cells up into leakage-vs-overhead rows per
(policy, attack); :func:`frontier_gate` is the CI check that the
passthrough baseline leaks strictly more than StopWatch on the probing
attack -- if it doesn't, either the attack or the mediation machinery
has quietly broken.

:func:`policy_signature` is the determinism probe: a tiny fixed-spacing
echo cell whose client-visible reply timeline is hashed, so same-seed
byte-identity per policy is one string comparison.
"""

import hashlib
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.report import percentile

#: the shipped policy family, cheapest protection first
POLICY_NAMES = ("none", "uniform-noise", "deterland", "stopwatch")
#: the attack suite swept by default (repro.attacks.ATTACK_SUITE keys)
ATTACK_NAMES = ("probe", "theft", "clocks")

#: the gate pair: the undefended baseline must out-leak StopWatch here
GATE_ATTACK = "probe"
GATE_BASELINE = "none"
GATE_MITIGATED = "stopwatch"


def run_mitigation_cell(policy: str = "stopwatch",
                        attack: str = "probe",
                        duration: float = 12.0,
                        seed: int = 7,
                        bins: int = 10,
                        workload: str = "fileserver",
                        victim_clients: int = 3,
                        victim_file_bytes: int = 300_000) -> dict:
    """One frontier cell (a campaign-dispatchable runner).

    Returns plain picklable data: the leakage estimates, the sample
    budget they rest on, and the victim-side latency distribution.
    """
    from repro.attacks import ATTACK_SUITE

    runner = ATTACK_SUITE.get(attack)
    if runner is None:
        raise ValueError(f"unknown attack {attack!r}; choose from "
                         f"{sorted(ATTACK_SUITE)}")
    result = runner(policy=policy, duration=duration, seed=seed,
                    workload=workload, victim_clients=victim_clients,
                    victim_file_bytes=victim_file_bytes)
    leakage = result.leakage(bins=bins)
    latencies = sorted(result.latencies)
    return {
        "policy": result.policy,
        "attack": result.attack,
        "seed": seed,
        "duration": duration,
        "bins": bins,
        "workload": workload,
        "mi_bits": leakage["mi_bits"],
        "mi_bits_raw": leakage["mi_bits_raw"],
        "capacity_bits": leakage["capacity_bits"],
        "samples_absent": len(result.samples_absent),
        "samples_present": len(result.samples_present),
        "victim_requests": len(latencies),
        "victim_latency_mean": _mean(latencies),
        "victim_latency_p95": percentile(latencies, 95),
        "meta": dict(result.meta),
    }


def mitigation_frontier(policies: Sequence[str] = POLICY_NAMES,
                        attacks: Sequence[str] = ATTACK_NAMES,
                        duration: float = 12.0,
                        seeds: Optional[Sequence[int]] = None,
                        bins: int = 10,
                        workload: str = "fileserver",
                        jobs: int = 1,
                        timeout: Optional[float] = 600.0,
                        progress=None) -> dict:
    """Sweep policies x attacks x seeds through the campaign executor
    and aggregate the leakage-vs-overhead frontier."""
    from repro.campaign.executor import CampaignExecutor
    from repro.campaign.spec import CampaignSpec, SweepSpec

    if seeds is None:
        seeds = [7]
    spec = CampaignSpec(
        name="mitigation-frontier",
        sweeps=[SweepSpec(
            runner="mitigation_cell",
            params={"duration": duration, "bins": bins,
                    "workload": workload},
            grid={"policy": list(policies), "attack": list(attacks)})],
        seeds=list(seeds),
        timeout=timeout)
    executor = CampaignExecutor(spec, cache=None, jobs=jobs,
                                inline=jobs <= 1, progress=progress)
    return summarize_frontier(executor.run())


def summarize_frontier(report) -> dict:
    """Roll cell results up to per-(policy, attack) frontier rows.

    ``overhead_x`` normalizes each row's mean victim latency against
    the ``none`` policy's on the same attack (1.0 = free, absent if the
    sweep didn't include the baseline)."""
    failures: List[str] = []
    cells: List[dict] = []
    for cell_result in report.results:
        if not cell_result.ok:
            failures.append(f"{cell_result.cell.label()}: "
                            f"{cell_result.status}: {cell_result.error}")
            continue
        cells.append(cell_result.value)

    grouped: Dict[tuple, List[dict]] = {}
    for cell in cells:
        grouped.setdefault((cell["policy"], cell["attack"]),
                           []).append(cell)
    rows: List[dict] = []
    for (policy, attack), members in sorted(grouped.items()):
        latency_means = [m["victim_latency_mean"] for m in members
                         if m["victim_latency_mean"] is not None]
        rows.append({
            "policy": policy,
            "attack": attack,
            "cells": len(members),
            "mi_bits": _mean([m["mi_bits"] for m in members]),
            "capacity_bits": _mean([m["capacity_bits"]
                                    for m in members]),
            "victim_latency_mean": _mean(latency_means),
            "victim_requests": sum(m["victim_requests"]
                                   for m in members),
            "overhead_x": None,
        })
    baseline_latency = {
        row["attack"]: row["victim_latency_mean"] for row in rows
        if row["policy"] == GATE_BASELINE
        and row["victim_latency_mean"]}
    for row in rows:
        base = baseline_latency.get(row["attack"])
        if base and row["victim_latency_mean"] is not None:
            row["overhead_x"] = row["victim_latency_mean"] / base

    summary = {
        "cells": len(report.results),
        "failures": failures,
        "rows": rows,
        "wall_seconds": round(report.wall_seconds, 3),
        "results": cells,
    }
    summary["gate"] = frontier_gate(summary)
    summary["ok"] = not failures and summary["gate"]["ok"]
    return summary


def frontier_gate(summary: dict,
                  attack: str = GATE_ATTACK,
                  baseline: str = GATE_BASELINE,
                  mitigated: str = GATE_MITIGATED) -> dict:
    """The sanity gate: on ``attack``, ``baseline`` must leak strictly
    more than ``mitigated``.  Vacuously passes (``checked=False``) when
    the sweep didn't cover both policies on that attack."""
    leakage = {row["policy"]: row["mi_bits"] for row in summary["rows"]
               if row["attack"] == attack
               and row["mi_bits"] is not None}
    if baseline not in leakage or mitigated not in leakage:
        return {"checked": False, "ok": True, "attack": attack,
                "detail": f"sweep lacks {baseline!r}/{mitigated!r} "
                          f"on {attack!r}"}
    ok = leakage[baseline] > leakage[mitigated]
    return {
        "checked": True,
        "ok": ok,
        "attack": attack,
        "baseline": baseline,
        "baseline_bits": leakage[baseline],
        "mitigated": mitigated,
        "mitigated_bits": leakage[mitigated],
        "detail": (f"{baseline}={leakage[baseline]:.4f} bits "
                   f"{'>' if ok else '<='} "
                   f"{mitigated}={leakage[mitigated]:.4f} bits"),
    }


def mitigation_metrics(summary: dict) -> dict:
    """The ``mitigation.frontier`` trajectory-entry metrics of a
    frontier summary.

    When the sanity gate ran, ``margin_bits`` -- how much more the
    undefended baseline leaks than StopWatch on the probing attack --
    is the primary metric.  Leakage estimates are deterministic for a
    fixed config, so a >20 % margin collapse means the mediation
    machinery (or the attack) actually changed.
    """
    gate = summary.get("gate", {})
    metrics: Dict[str, Any] = {
        "cells": summary.get("cells"),
        "failures": len(summary.get("failures", ())),
        "gate_checked": bool(gate.get("checked")),
        "gate_ok": bool(gate.get("ok")),
        "wall_seconds": summary.get("wall_seconds"),
    }
    if gate.get("checked"):
        metrics["baseline_bits"] = gate.get("baseline_bits")
        metrics["mitigated_bits"] = gate.get("mitigated_bits")
        if isinstance(gate.get("baseline_bits"), (int, float)) \
                and isinstance(gate.get("mitigated_bits"), (int, float)):
            metrics["margin_bits"] = round(
                gate["baseline_bits"] - gate["mitigated_bits"], 6)
    return metrics


def policy_signature(policy, seed: int = 5, duration: float = 3.0,
                     ping_interval: float = 0.020) -> str:
    """SHA-256 over the client-visible reply timeline of a tiny echo
    cell under ``policy`` -- the warm-repeat determinism probe."""
    from repro.attacks.probes import _policy_cell
    from repro.workloads.echo import EchoServer, PingClient

    sim, cloud, attacker_hosts, _ = _policy_cell(policy, seed)
    cloud.create_vm("echo", EchoServer, hosts=attacker_hosts)
    client = cloud.add_client("client:1")
    pinger = PingClient(client, "vm:echo",
                        spacing_fn=lambda rng: ping_interval)
    sim.call_after(0.05, pinger.start)
    cloud.run(until=duration)
    digest = hashlib.sha256()
    for reply_time in pinger.reply_times:
        digest.update(f"{reply_time:.12f}\n".encode("ascii"))
    return digest.hexdigest()


def _mean(values: Sequence[float]) -> Optional[float]:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else None
