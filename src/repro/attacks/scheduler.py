"""The scheduler-theft probe (Zhou et al.'s cycle-stealing attack).

The attacker guest spins CPU-bound and emits a beacon packet every
``burst_branches`` branches to a colluding external sink.  The guest
cannot see real time, but the *sink* can: how long a fixed branch
budget takes in wall-clock depends on how much of the shared host's
CPU the attacker actually got, so beacon inter-arrival gaps at the
sink measure the coresident victim's CPU theft.

Under StopWatch the beacons leave through the egress median of three
replicas, at most one of which shares a host with the victim, so the
gap distribution barely moves.  Under ``none`` the single shared host's
contention shows directly.
"""

from typing import List

from repro.attacks.probes import AttackResult, _gaps, coresidency_pair
from repro.core.config import DEFAULT, StopWatchConfig
from repro.net.packet import Packet
from repro.workloads.base import GuestWorkload

BEACON_PROTOCOL = "beacon"
BEACON_SIZE = 120


class TheftProbe(GuestWorkload):
    """Attacker guest: spin a fixed branch budget, beacon, repeat."""

    def __init__(self, guest, sink_addr: str,
                 burst_branches: int = 40_000):
        super().__init__(guest)
        self.sink_addr = sink_addr
        self.burst_branches = burst_branches
        self.beacons_sent = 0

    def start(self) -> None:
        self._spin()

    def _spin(self) -> None:
        self.guest.compute(self.burst_branches, self._beacon)

    def _beacon(self) -> None:
        self.guest.send_packet(Packet(
            src=self.guest.address, dst=self.sink_addr,
            protocol=BEACON_PROTOCOL, payload=self.beacons_sent,
            size=BEACON_SIZE))
        self.beacons_sent += 1
        self._spin()


def run_scheduler_theft(policy="stopwatch",
                        duration: float = 20.0,
                        seed: int = 7,
                        burst_branches: int = 40_000,
                        workload: str = "fileserver",
                        victim_clients: int = 3,
                        victim_file_bytes: int = 300_000,
                        ping_mean: float = 0.020,
                        base_config: StopWatchConfig = DEFAULT,
                        ) -> AttackResult:
    """Run the theft probe with and without the coresident victim."""

    def deploy(sim, cloud, attacker_hosts):
        arrivals: List[float] = []
        sink = cloud.add_client("sink:1")
        sink.register_protocol(BEACON_PROTOCOL,
                               lambda packet: arrivals.append(sim.now))
        probes: List[TheftProbe] = []

        def factory(guest):
            probes.append(TheftProbe(guest, "sink:1",
                                     burst_branches=burst_branches))
            return probes[-1]

        cloud.create_vm("attacker", factory, hosts=attacker_hosts)
        return ((lambda: _gaps(arrivals)),
                lambda: {"beacons_sent": float(probes[0].beacons_sent)})

    return coresidency_pair(
        "theft", policy, deploy, duration, seed, workload=workload,
        victim_clients=victim_clients,
        victim_file_bytes=victim_file_bytes, ping_mean=ping_mean,
        base_config=base_config)
