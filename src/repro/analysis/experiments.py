"""One runner per evaluation figure/table.

Each function is self-contained: it builds its own simulator(s), runs the
experiment, and returns rows of plain data.  The pytest-benchmark
targets under ``benchmarks/`` call these with reduced durations; the
examples call them with fuller settings.  ``repro.campaign`` dispatches
them by name through :mod:`repro.bench.registry`, so each is a
module-level function whose kwargs are picklable plain data.

Only the runners that compute a statistic import :mod:`repro.stats`
(and with it numpy), inside their bodies: the simulator runs on the
standard library alone.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cloud.fabric import Cloud
from repro.core.config import StopWatchConfig, DEFAULT, PASSTHROUGH
from repro.sim.kernel import Simulator
from repro.sim.monitor import Trace
from repro.placement.scheduler import utilization_report
from repro.workloads.fileserver import (
    FileServer,
    HttpDownloader,
    UdpDownloader,
    UdpFileServer,
)
from repro.workloads.nfs import NfsServer, NhfsstoneClient
from repro.workloads.parsec import (PARSEC_KERNELS, RunCollector,
                                    scale_problem)

#: Fig. 7 reference values from the paper: (baseline ms, stopwatch ms,
#: disk interrupts)
PARSEC_PAPER_VALUES: Dict[str, Tuple[int, int, int]] = {
    "ferret": (171, 350, 31),
    "blackscholes": (177, 401, 38),
    "canneal": (1530, 3230, 183),
    "dedup": (3730, 5754, 293),
    "streamcluster": (290, 382, 27),
}

#: host model used by the performance experiments: period disks with
#: readahead-friendly access times, calibrated against Fig. 7
PERF_HOST_KWARGS = {
    "disk_kwargs": {"seek_min": 0.001, "seek_max": 0.003,
                    "per_block": 2e-5},
}

#: ring-buffer cap for the always-on driver traces: filtered recording is
#: cheap (category-indexed) and this bounds memory on long runs
TRACE_CAP = 65_536


# ---------------------------------------------------------------------------
# Fig. 1 -- analytic median justification
# ---------------------------------------------------------------------------
def fig1_median_cdfs(victim_rate: float = 0.5, baseline_rate: float = 1.0,
                     xs: Optional[Sequence[float]] = None) -> List[tuple]:
    """Fig. 1(a): CDF rows (x, baseline, victim, median3, median2+victim)."""
    from repro.stats.distributions import Exponential, MedianOfThree

    if xs is None:
        xs = [i * 0.25 for i in range(25)]
    base = Exponential(baseline_rate)
    victim = Exponential(victim_rate)
    med_baselines = MedianOfThree(base, base, base)
    med_victim = MedianOfThree(victim, base, base)
    return [(x, base.cdf(x), victim.cdf(x), med_baselines.cdf(x),
             med_victim.cdf(x)) for x in xs]


def fig1_observation_curves(victim_rate: float = 0.5,
                            baseline_rate: float = 1.0,
                            confidences: Optional[Sequence[float]] = None,
                            bins: int = 10) -> List[tuple]:
    """Fig. 1(b)/(c): (confidence, obs w/o StopWatch, obs w/ StopWatch);
    ``confidences`` defaults to the paper's ``detection.CONFIDENCES``."""
    from repro.stats.detection import (CONFIDENCES, bin_probabilities,
                                       equiprobable_bin_edges,
                                       observations_to_detect)
    from repro.stats.distributions import Exponential, MedianOfThree

    if confidences is None:
        confidences = CONFIDENCES
    base = Exponential(baseline_rate)
    victim = Exponential(victim_rate)
    direct_edges = equiprobable_bin_edges(base, bins)
    p_direct = bin_probabilities(base, direct_edges)
    q_direct = bin_probabilities(victim, direct_edges)
    null_med = MedianOfThree(base, base, base)
    alt_med = MedianOfThree(victim, base, base)
    med_edges = equiprobable_bin_edges(null_med, bins)
    p_med = bin_probabilities(null_med, med_edges)
    q_med = bin_probabilities(alt_med, med_edges)
    rows = []
    for confidence in confidences:
        rows.append((
            confidence,
            observations_to_detect(p_direct, q_direct, confidence),
            observations_to_detect(p_med, q_med, confidence),
        ))
    return rows


# ---------------------------------------------------------------------------
# Fig. 4 -- empirical detection on the simulator
# ---------------------------------------------------------------------------
def fig4_empirical_detection(duration: float = 30.0, seed: int = 7,
                             confidences: Optional[Sequence[float]] = None,
                             ) -> dict:
    """Fig. 4: empirical inter-packet samples and detection curves for
    both the StopWatch and unmodified-Xen conditions -- the IO-clock
    probe under the ``stopwatch`` and ``none`` policies.
    ``confidences`` defaults to the paper's ``detection.CONFIDENCES``."""
    from repro.attacks.probes import run_clock_probe
    from repro.stats.detection import CONFIDENCES

    if confidences is None:
        confidences = CONFIDENCES

    with_sw = run_clock_probe("stopwatch", duration=duration, seed=seed)
    without_sw = run_clock_probe("none", duration=duration, seed=seed)
    return {
        "stopwatch": with_sw,
        "baseline": without_sw,
        "curve_stopwatch": with_sw.detection_curve(confidences),
        "curve_baseline": without_sw.detection_curve(confidences),
    }


# ---------------------------------------------------------------------------
# Fig. 5 -- file downloads
# ---------------------------------------------------------------------------
def _download_once(config: StopWatchConfig, size: int, udp: bool,
                   seed: int, timeout: float = 120.0) -> Optional[float]:
    sim = Simulator(seed=seed, trace=Trace(
        categories={"ingress.replicate", "egress.release"},
        max_per_category=TRACE_CAP))
    cloud = Cloud(sim, machines=3, config=config,
                  host_kwargs=PERF_HOST_KWARGS)
    cloud.create_vm("web", UdpFileServer if udp else FileServer)
    client = cloud.add_client("client:1")
    downloader = (UdpDownloader if udp else HttpDownloader)(client,
                                                            "vm:web")
    done: List[float] = []
    sim.call_after(0.05, downloader.download, size, done.append)
    cloud.run(until=timeout)
    return done[0] if done else None


def fig5_file_download(sizes: Sequence[int] = (1_000, 10_000, 100_000,
                                               1_000_000, 10_000_000),
                       trials: int = 1, seed: int = 1,
                       sim_until: float = 120.0) -> List[tuple]:
    """Fig. 5 rows: (size, http_base, http_sw, udp_base, udp_sw), seconds.

    ``sim_until`` caps the simulated seconds per condition; the default
    covers the 10 MB download, but sweep cells over small sizes can cut
    it down (the simulator bills for idle VMM ticks after the download
    completes, so a 5 kB cell at the default is ~60x costlier than at
    ``sim_until=2``).
    """
    rows = []
    for size in sizes:
        cells = []
        for udp in (False, True):
            for config in (PASSTHROUGH, DEFAULT):
                latencies = []
                for trial in range(trials):
                    latency = _download_once(config, size, udp,
                                             seed + trial,
                                             timeout=sim_until)
                    if latency is not None:
                        latencies.append(latency)
                cells.append(sum(latencies) / len(latencies)
                             if latencies else float("nan"))
        http_base, http_sw, udp_base, udp_sw = cells
        rows.append((size, http_base, http_sw, udp_base, udp_sw))
    return rows


# ---------------------------------------------------------------------------
# Fig. 6 -- NFS / nhfsstone
# ---------------------------------------------------------------------------
def fig6_nfs(rates: Sequence[int] = (25, 50, 100, 200, 400),
             duration: float = 8.0, seed: int = 2,
             config_sw: Optional[StopWatchConfig] = None) -> List[tuple]:
    """Fig. 6 rows: (rate, base latency, sw latency, sw c2s pkts/op,
    sw s2c pkts/op, base c2s pkts/op)."""
    if config_sw is None:
        config_sw = DEFAULT.with_overrides(delta_net=0.008)
    rows = []
    for rate in rates:
        cells = {}
        for label, config in (("base", PASSTHROUGH), ("sw", config_sw)):
            sim = Simulator(seed=seed, trace=Trace(
                categories={"vmm.divergence"},
                max_per_category=TRACE_CAP))
            cloud = Cloud(sim, machines=3, config=config,
                          host_kwargs=PERF_HOST_KWARGS)
            cloud.create_vm("nfs", NfsServer)
            client = cloud.add_client("client:1")
            generator = NhfsstoneClient(client, "vm:nfs", rate=rate)
            sim.call_after(0.05, generator.start)
            cloud.run(until=duration)
            cells[label] = (generator.mean_latency(),
                            generator.packets_per_op())
        rows.append((
            rate,
            cells["base"][0], cells["sw"][0],
            cells["sw"][1][0], cells["sw"][1][1],
            cells["base"][1][0],
        ))
    return rows


# ---------------------------------------------------------------------------
# Fig. 7 -- PARSEC kernels
# ---------------------------------------------------------------------------
def fig7_parsec(kernels: Optional[Sequence[str]] = None,
                scale: float = 1.0, seed: int = 3,
                config_sw: Optional[StopWatchConfig] = None) -> List[tuple]:
    """Fig. 7 rows: (kernel, base_s, sw_s, disk interrupts, paper refs)."""
    if kernels is None:
        kernels = list(PARSEC_KERNELS)
    unknown = [name for name in kernels if name not in PARSEC_KERNELS]
    if unknown:
        raise ValueError(f"kernels must name PARSEC kernels "
                         f"{sorted(PARSEC_KERNELS)}, got {unknown}")
    problem = scale_problem(scale)
    if problem:
        raise ValueError(problem)
    if config_sw is None:
        config_sw = DEFAULT.with_overrides(delta_disk=0.008)
    rows = []
    for name in kernels:
        cls = PARSEC_KERNELS[name]
        times = {}
        disk_ints = 0
        for label, config in (("base", PASSTHROUGH), ("sw", config_sw)):
            sim = Simulator(seed=seed, trace=Trace(
                categories={"vmm.disk.request"},
                max_per_category=TRACE_CAP))
            cloud = Cloud(sim, machines=3, config=config,
                          host_kwargs=PERF_HOST_KWARGS)
            client = cloud.add_client("collector:1")
            collector = RunCollector(client)
            vm = cloud.create_vm(
                name,
                lambda guest: cls(guest, scale=scale,
                                  collector_addr="collector:1"))
            cloud.run(until=60.0 * max(scale, 1.0))
            times[label] = collector.completion_time(name)
            if label == "sw":
                disk_ints = vm.vmms[0].stats["disk_interrupts"]
        paper_base, paper_sw, paper_ints = PARSEC_PAPER_VALUES[name]
        rows.append((name, times["base"], times["sw"], disk_ints,
                     paper_base / 1000.0, paper_sw / 1000.0, paper_ints))
    return rows


# ---------------------------------------------------------------------------
# Fig. 8 -- noise comparison
# ---------------------------------------------------------------------------
def fig8_noise_comparison(victim_rate: float = 0.5,
                          confidences: Sequence[float] = (0.7, 0.8, 0.9,
                                                          0.99),
                          attacker: str = "kl") -> dict:
    """Fig. 8: the comparison table plus the scaling curve."""
    from repro.stats.noise import (noise_comparison_table,
                                   protection_cost_curve)

    table = noise_comparison_table(1.0, victim_rate, confidences,
                                   attacker=attacker)
    curve = protection_cost_curve(1.0, victim_rate,
                                  targets=(100, 400, 1600, 6400),
                                  attacker=attacker)
    return {"table": table, "curve": curve}


# ---------------------------------------------------------------------------
# Sec. VIII -- placement utilisation
# ---------------------------------------------------------------------------
def placement_utilization(points: Sequence[Tuple[int, int]] = (
        (9, 4), (15, 7), (21, 10), (33, 16), (45, 22), (99, 49)),
        ) -> List[tuple]:
    """Rows: (n, c, stopwatch VMs, isolation VMs, Thm 1 bound, c*n/3)."""
    rows = []
    for machines, capacity in points:
        report = utilization_report(machines, capacity)
        rows.append((machines, capacity, report.stopwatch_vms,
                     report.isolation_vms, report.packing_upper_bound,
                     report.theoretical_theta_cn))
    return rows


# ---------------------------------------------------------------------------
# Sec. VII-A -- Δn / Δd real-time translation
# ---------------------------------------------------------------------------
def delta_offset_translation(duration: float = 10.0,
                             seed: int = 5) -> dict:
    """Measure what Δn and Δd translate to in real time (paper: ~7-12 ms
    and ~8-15 ms respectively) on the Sec. VII-A echo+compute cloud."""
    from repro.analysis.observe import mediation_delays, run_observed_workload

    sim, _ = run_observed_workload(
        duration=duration, seed=seed,
        categories=("ingress.replicate", "vmm.deliver", "vmm.disk.request"),
        max_per_category=TRACE_CAP)
    net_delays, disk_delays = mediation_delays(sim.trace)
    return {"net_delays": net_delays, "disk_delays": disk_delays}


# ---------------------------------------------------------------------------
# Ablation -- Δn sizing (latency vs. synchrony violations)
# ---------------------------------------------------------------------------
def delta_n_ablation(delta_ns: Sequence[float] = (0.0005, 0.002, 0.005,
                                                  0.010, 0.020),
                     duration: float = 4.0, seed: int = 9,
                     pings: int = 60,
                     jitter_sigma: float = 0.05) -> List[tuple]:
    """Rows: (Δn, mean echo RTT seconds, divergences).

    The Sec. VII-A trade-off made explicit: Δn lower-bounds interrupt
    latency, but too-small Δn violates the synchrony assumption (the
    median arrives already-passed at the fastest replica).
    """
    from repro.net.udp import UdpStack
    from repro.workloads.echo import EchoServer

    rows = []
    for delta_n in delta_ns:
        config = DEFAULT.with_overrides(delta_net=delta_n)
        sim = Simulator(seed=seed, trace=Trace(
            categories={"vmm.divergence"}, max_per_category=TRACE_CAP))
        cloud = Cloud(sim, machines=3, config=config,
                      host_kwargs={"jitter_sigma": jitter_sigma})
        vm = cloud.create_vm("echo", EchoServer)
        client = cloud.add_client("client:1")
        udp = UdpStack(client)
        sent: Dict[int, float] = {}
        rtts: List[float] = []
        udp.bind(9000, lambda d, s: rtts.append(sim.now - sent[d.tag]))

        def ping(index=0):
            if index >= pings:
                return
            sent[index] = sim.now
            udp.send("vm:echo", 9000, 7, 64, tag=index)
            sim.call_after(duration / (pings + 10), ping, index + 1)

        sim.call_after(0.05, ping)
        cloud.run(until=duration)
        mean_rtt = sum(rtts) / len(rtts) if rtts else float("nan")
        rows.append((delta_n, mean_rtt,
                     int(vm.stat_sum("divergences"))))
    return rows


# ---------------------------------------------------------------------------
# Ablation -- epoch resynchronisation (drift vs. epoch length)
# ---------------------------------------------------------------------------
def epoch_resync_ablation(epoch_lengths: Sequence[Optional[int]] = (
        None, 10_000_000, 2_000_000, 500_000),
        duration: float = 4.0, seed: int = 9,
        skewed_slope: float = 1.5e-8) -> List[tuple]:
    """Rows: (epoch instructions or None, |virt - real| drift seconds).

    Virtual time with a skewed boot slope drifts from real time unless
    epoch resynchronisation pulls it back (Sec. IV-A); shorter epochs
    track real time more closely -- at the cost of leaking more timing
    information, which is why the paper advises large I values.
    """
    from repro.workloads.echo import EchoServer

    rows = []
    for epoch in epoch_lengths:
        config = DEFAULT.with_overrides(
            initial_slope=skewed_slope, epoch_instructions=epoch,
            slope_range=(0.5e-8, 2e-8))
        sim = Simulator(seed=seed, trace=Trace(
            categories={"vmm.divergence"}, max_per_category=TRACE_CAP))
        cloud = Cloud(sim, machines=3, config=config)
        vm = cloud.create_vm("echo", EchoServer)
        cloud.run(until=duration)
        drift = abs(vm.vmms[0].current_virt() - sim.now)
        rows.append((epoch, drift))
    return rows


# ---------------------------------------------------------------------------
# Ablation -- timing aggregation function
# ---------------------------------------------------------------------------
def aggregation_ablation(aggregations: Sequence[str] = ("median", "leader",
                                                        "min", "mean"),
                         duration: float = 20.0, seed: int = 7,
                         confidence: float = 0.95) -> List[tuple]:
    """Rows: (aggregation, observations needed at the confidence).

    The Sec. II argument quantified: a leader-dictated timing simply
    copies a coresident replica's perturbation to all replicas, while
    the median suppresses it.
    """
    from repro.attacks.probes import run_clock_probe

    rows = []
    for how in aggregations:
        result = run_clock_probe(
            "stopwatch", duration=duration, seed=seed,
            base_config=DEFAULT.with_overrides(aggregation=how))
        curve = result.detection_curve([confidence])
        rows.append((how, curve[0][1]))
    return rows
