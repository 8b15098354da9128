"""Policy-parameterised coresidency attacks: Fig. 4 and the frontier.

Every attack runs the same pair of conditions through
:func:`coresidency_pair` -- victim *absent* and victim *present*
(coresident with one attacker replica) -- under an arbitrary
:class:`~repro.mitigation.MitigationPolicy`, and returns the attacker's
observable under each as an :class:`AttackResult`.  Leakage is the
mutual information between the condition bit and one observation
(:mod:`repro.stats.mi`); the chi-squared detection curve is Fig. 4(b);
the victim's client latencies in the present condition are the
overhead axis of ``repro mitigate``.

Each attack runner is its ``deploy`` closure (which wires the attacker
side of one condition's cloud) handed to the pair:

- :func:`run_coresidency_probe` -- a colluding external client pings
  the attacker VM and measures round trips in real time.  This is the
  probing attack of Zhou et al.'s co-residency detection, pointed at
  whatever release discipline the egress policy enforces.
- :func:`run_clock_probe` -- the attacker guest itself timestamps its
  network interrupts with its RT clock (Wray's IO-vs-RT comparison),
  testing the *inbound* injection discipline.  Under ``stopwatch`` and
  ``none`` this is the paper's Fig. 4 experiment.

:mod:`repro.attacks.scheduler` adds the third, the scheduler-theft
beacon probe.
"""

from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from repro.attacks.clocks import ClockObserver
from repro.cloud.fabric import Cloud
from repro.core.config import DEFAULT, StopWatchConfig
from repro.mitigation import resolve_policy
from repro.sim.kernel import Simulator
from repro.sim.monitor import Trace
from repro.stats.detection import (CONFIDENCES,
                                   observations_needed_from_samples)
from repro.workloads.echo import EchoServer, PingClient
from repro.workloads.fileserver import FileServer, HttpDownloader

VICTIM_WORKLOADS = ("fileserver", "echo")


class RttPingClient(PingClient):
    """A :class:`PingClient` that also records per-ping round trips.

    Inter-reply *gaps* are dominated by the sender's own exponential
    pacing; the round-trip time strips that self-noise out and measures
    exactly what coresidency perturbs -- the attacker VM's service
    time.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._send_times: Dict[int, float] = {}
        self.rtts: List[float] = []

    def _transmit(self, tag: int, attempt: int) -> None:
        self._send_times.setdefault(tag, self.node.now())
        super()._transmit(tag, attempt)

    def _on_reply(self, datagram, src: str) -> None:
        sent = self._send_times.pop(datagram.tag, None)
        if sent is not None:
            self.rtts.append(self.node.now() - sent)
        super()._on_reply(datagram, src)


class AttackResult(NamedTuple):
    """One attack's observables under both coresidency conditions."""

    attack: str
    policy: str
    samples_absent: List[float]    # attacker observable, victim absent
    samples_present: List[float]   # attacker observable, victim present
    latencies: List[float]         # victim client latencies (present run)
    meta: Dict[str, float]

    def leakage_bits(self, bins: int = 10) -> float:
        """Miller-Madow-corrected MI between coresidency and one
        observation, in bits."""
        from repro.stats.mi import mi_bits
        return mi_bits([self.samples_absent, self.samples_present],
                       bins=bins)

    def leakage(self, bins: int = 10) -> dict:
        """The full MI/capacity summary (:func:`repro.stats.mi
        .leakage_summary`)."""
        from repro.stats.mi import leakage_summary
        return leakage_summary(
            [self.samples_absent, self.samples_present], bins=bins)

    def detection_curve(self, confidences: Sequence[float] = CONFIDENCES,
                        bins: int = 10) -> List[Tuple[float, int]]:
        """Fig. 4(b): (confidence, observations a chi-squared attacker
        needs to tell present from absent) pairs."""
        return observations_needed_from_samples(
            self.samples_absent, self.samples_present, confidences,
            bins=bins)


#: an attack's side of one condition: ``deploy(sim, cloud,
#: attacker_hosts)`` creates the attacker VM and its colluding clients
#: and returns two readers, called after the run -- the observable
#: samples and the meta dict
Deploy = Callable[[Simulator, Cloud, List[int]],
                  Tuple[Callable[[], List[float]],
                        Callable[[], Dict[str, float]]]]


def _policy_cell(policy, seed: int,
                 base_config: StopWatchConfig = DEFAULT,
                 host_kwargs: Optional[dict] = None):
    """One condition's cloud under ``policy``: simulator, fabric, and
    the attacker/victim host pinning.

    Multi-replica policies get the Fig. 4 layout (5 machines, attacker
    on 0-2, victim on 0,3,4 -- exactly one shared host, which carries
    attacker replica 0, the "leader" of the aggregation ablation, so
    leader-dictated timing demonstrably copies the victim's
    perturbation); single-replica policies co-locate both VMs on the
    lone machine, the classic cloud coresidency setup.
    """
    policy = resolve_policy(policy, base_config)
    config = policy.configure(base_config)
    replicas = policy.replica_count(config)
    sim = Simulator(seed=seed, trace=Trace(
        categories={"vmm.divergence"}, max_per_category=4096))
    machines = 5 if replicas > 1 else 1
    cloud = Cloud(sim, machines=machines, config=config,
                  host_kwargs=host_kwargs or {"contention_alpha": 0.5},
                  policy=policy)
    if replicas > 1:
        attacker_hosts = [0, 1, 2]
        victim_hosts = [0, 3, 4]    # shares exactly host 0 with attacker
    else:
        attacker_hosts = [0]
        victim_hosts = [0]
    return sim, cloud, attacker_hosts, victim_hosts


def _keep_downloading(downloader, size: int) -> None:
    """Loop downloads back-to-back for the whole run."""

    def again(_latency=None):
        downloader.download(size, on_done=again)

    again()


def _deploy_victim(sim, cloud, victim_hosts, workload: str,
                   clients: int, file_bytes: int, ping_mean: float):
    """Create the victim VM plus its client drivers; returns the
    drivers so :func:`_victim_latencies` can read overhead off them."""
    if workload not in VICTIM_WORKLOADS:
        raise ValueError(f"unknown victim workload {workload!r}; "
                         f"choose from {VICTIM_WORKLOADS}")
    drivers = []
    if workload == "fileserver":
        cloud.create_vm("victim", FileServer, hosts=victim_hosts)
        for index in range(clients):
            node = cloud.add_client(f"victim-client:{index}")
            downloader = HttpDownloader(node, "vm:victim")
            drivers.append(downloader)
            sim.call_after(0.05, _keep_downloading, downloader,
                           file_bytes)
    else:
        cloud.create_vm("victim", EchoServer, hosts=victim_hosts)
        for index in range(clients):
            node = cloud.add_client(f"victim-client:{index}")
            pinger = PingClient(node, "vm:victim",
                                mean_interval=ping_mean)
            drivers.append(pinger)
            sim.call_after(0.05, pinger.start)
    return drivers


def _victim_latencies(drivers) -> List[float]:
    """The victim clients' service observable: download latencies for
    the fileserver workload, inter-reply gaps for echo."""
    latencies: List[float] = []
    for driver in drivers:
        if hasattr(driver, "latencies"):
            latencies.extend(driver.latencies)
        else:
            latencies.extend(_gaps(driver.reply_times))
    return latencies


def _gaps(times: List[float]) -> List[float]:
    return [b - a for a, b in zip(times, times[1:])]


def coresidency_pair(attack: str, policy, deploy: Deploy,
                     duration: float, seed: int,
                     workload: str = "fileserver",
                     victim_clients: int = 3,
                     victim_file_bytes: int = 300_000,
                     ping_mean: float = 0.020,
                     base_config: StopWatchConfig = DEFAULT,
                     ) -> AttackResult:
    """Run ``deploy``'s attacker with the victim absent, then present.

    Each condition is a fresh same-seed cloud under ``policy``; the
    victim's latencies and the attack's meta come from the present run.
    """
    samples = []
    for present in (False, True):
        sim, cloud, attacker_hosts, victim_hosts = _policy_cell(
            policy, seed, base_config)
        observe, read_meta = deploy(sim, cloud, attacker_hosts)
        drivers = []
        if present:
            drivers = _deploy_victim(sim, cloud, victim_hosts, workload,
                                     victim_clients, victim_file_bytes,
                                     ping_mean)
        cloud.run(until=duration)
        samples.append(observe())
    return AttackResult(
        attack=attack,
        policy=cloud.policy.name,
        samples_absent=samples[0],
        samples_present=samples[1],
        latencies=_victim_latencies(drivers),
        meta=read_meta(),
    )


def _pinged_attacker(sim, cloud, attacker_hosts, factory,
                     client_cls, ping_mean: float):
    """The attacker VM plus a colluding client pinging it from
    t=0.1 s; returns the pinger and the meta reader."""
    cloud.create_vm("attacker", factory, hosts=attacker_hosts)
    pinger = client_cls(cloud.add_client("pinger:1"), "vm:attacker",
                        mean_interval=ping_mean)
    sim.call_after(0.1, pinger.start)

    def meta() -> Dict[str, float]:
        return {"divergences":
                cloud.vms["attacker"].stat_sum("divergences"),
                "pings_sent": float(pinger.sent)}

    return pinger, meta


def run_coresidency_probe(policy="stopwatch",
                          duration: float = 20.0,
                          seed: int = 7,
                          ping_mean: float = 0.020,
                          workload: str = "fileserver",
                          victim_clients: int = 3,
                          victim_file_bytes: int = 300_000,
                          base_config: StopWatchConfig = DEFAULT,
                          ) -> AttackResult:
    """Zhou-style co-residency probing from outside the cloud.

    The attacker VM echoes a paced external ping stream; the colluding
    client's per-ping round trips (real time, downstream of the egress
    policy) are the observable.
    """

    def deploy(sim, cloud, attacker_hosts):
        pinger, meta = _pinged_attacker(sim, cloud, attacker_hosts,
                                        ClockObserver, RttPingClient,
                                        ping_mean)
        return (lambda: pinger.rtts), meta

    return coresidency_pair(
        "probe", policy, deploy, duration, seed, workload=workload,
        victim_clients=victim_clients,
        victim_file_bytes=victim_file_bytes, ping_mean=ping_mean,
        base_config=base_config)


def run_clock_probe(policy="stopwatch",
                    duration: float = 20.0,
                    seed: int = 7,
                    ping_mean: float = 0.020,
                    workload: str = "fileserver",
                    victim_clients: int = 3,
                    victim_file_bytes: int = 300_000,
                    base_config: StopWatchConfig = DEFAULT,
                    ) -> AttackResult:
    """Wray IO-clock probing from inside the attacker guest.

    The attacker guest timestamps each network-interrupt arrival with
    its RT (virtual) clock; inter-arrival virts are the observable.
    This exercises the *inbound injection* discipline -- median under
    stopwatch, boundary-quantised under deterland, jittered under
    uniform-noise, raw under none.
    """

    def deploy(sim, cloud, attacker_hosts):
        observers: List[ClockObserver] = []

        def factory(guest):
            observers.append(ClockObserver(guest))
            return observers[-1]

        _, meta = _pinged_attacker(sim, cloud, attacker_hosts, factory,
                                   PingClient, ping_mean)
        # replicas record identical virts; read the first replica
        return (lambda: observers[0].inter_arrival_virts()), meta

    return coresidency_pair(
        "clocks", policy, deploy, duration, seed, workload=workload,
        victim_clients=victim_clients,
        victim_file_bytes=victim_file_bytes, ping_mean=ping_mean,
        base_config=base_config)
