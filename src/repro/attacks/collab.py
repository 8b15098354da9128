"""Collaborating attacker VMs (Sec. IX).

The scenario: attacker VM1's replicas sit on machines A, B, C; a second
attacker VM2 has a replica on A; a victim replica sits on C.  VM2
floods its machine, slowing VM1's replica on A so that A's delivery
proposals lag and the median is decided between B and C -- the replica
coresident with the victim regains influence.

Countermeasure (also Sec. IX): more replicas.  With five replicas the
collaborator must marginalise several replicas at once to matter.

The experiment measures how much the victim's activity shifts the
attacker's observed inter-arrival distribution (a) without the
collaborator, (b) with it, and (c) with it but five replicas, and
reports the chi-squared observation counts for each.
"""

from typing import List, NamedTuple, Optional, Tuple

from repro.attacks.clocks import ClockObserver
from repro.attacks.covert import BurstSender, SINK_PORT
from repro.attacks.probes import _keep_downloading
from repro.cloud.fabric import Cloud
from repro.core.config import StopWatchConfig, DEFAULT
from repro.net.udp import UdpStack
from repro.sim.kernel import Simulator
from repro.sim.monitor import Trace
from repro.stats.detection import observations_needed_from_samples
from repro.workloads.echo import PingClient
from repro.workloads.fileserver import FileServer, HttpDownloader


class CollabResult(NamedTuple):
    replicas: int
    collaborator: bool
    samples_victim: List[float]
    samples_control: List[float]

    def observations_needed(self, confidence: float = 0.95,
                            bins: int = 10) -> int:
        curve = observations_needed_from_samples(
            self.samples_control, self.samples_victim, [confidence],
            bins=bins)
        return curve[0][1]


def _placement(replicas: int) -> Tuple[int, list, list, list]:
    """(machines, attacker_hosts, victim_hosts, collaborator_hosts) with
    the triangle/cliques pairwise edge-disjoint and the Sec. IX overlap
    pattern: collaborator shares machine 0 with the attacker; victim
    shares the attacker's last machine."""
    if replicas == 3:
        return 8, [0, 1, 2], [2, 3, 4], [0, 5, 6]
    if replicas == 5:
        return 14, [0, 1, 2, 3, 4], [4, 5, 6, 7, 8], [0, 9, 10, 11, 12]
    raise ValueError(f"unsupported replica count {replicas}")


def run_collab_experiment(replicas: int = 3,
                          collaborator: bool = True,
                          duration: float = 30.0,
                          seed: int = 13,
                          ping_mean: float = 0.020,
                          victim_file_bytes: int = 300_000,
                          victim_clients: int = 3,
                          host_kwargs: Optional[dict] = None) -> CollabResult:
    """Run victim-present and control conditions; return both sample sets."""
    if host_kwargs is None:
        host_kwargs = {"contention_alpha": 0.5}
    config = DEFAULT.with_overrides(replicas=replicas)
    machines, attacker_hosts, victim_hosts, collab_hosts = \
        _placement(replicas)

    samples = {}
    for with_victim in (False, True):
        sim = Simulator(seed=seed, trace=Trace(
            categories={"vmm.divergence"}, max_per_category=65_536))
        cloud = Cloud(sim, machines=machines, config=config,
                      host_kwargs=host_kwargs)
        holder: list = []
        cloud.create_vm(
            "attacker",
            lambda guest: holder.append(ClockObserver(guest)) or holder[-1],
            hosts=attacker_hosts)
        sink = cloud.add_client("sink:1")
        UdpStack(sink).bind(SINK_PORT, lambda d, s: None)
        if collaborator:
            cloud.create_vm(
                "collab",
                lambda guest: BurstSender(guest, "sink:1", always_on=True),
                hosts=collab_hosts)
        if with_victim:
            cloud.create_vm("victim", FileServer, hosts=victim_hosts)
            for index in range(victim_clients):
                node = cloud.add_client(f"vclient:{index}")
                sim.call_after(0.05, _keep_downloading,
                               HttpDownloader(node, "vm:victim"),
                               victim_file_bytes)
        pinger_node = cloud.add_client("pinger:1")
        pinger = PingClient(pinger_node, "vm:attacker",
                            mean_interval=ping_mean)
        sim.call_after(0.1, pinger.start)
        cloud.run(until=duration)
        samples[with_victim] = holder[0].inter_arrival_virts()

    return CollabResult(
        replicas=replicas,
        collaborator=collaborator,
        samples_victim=samples[True],
        samples_control=samples[False],
    )
