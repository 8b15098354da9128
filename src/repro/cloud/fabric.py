"""Cluster assembly: the :class:`Cloud` builder.

Typical usage::

    sim = Simulator(seed=1)
    cloud = Cloud(sim, machines=3, config=DEFAULT)
    vm = cloud.create_vm("web", lambda guest: FileServer(guest))
    client = cloud.add_client("client:1")
    cloud.start()
    sim.run(until=30.0)

Each VM's :class:`~repro.mitigation.MitigationPolicy` decides its
wiring.  A coordinated policy on more than one replica (``stopwatch``
under the default config) gets the full StopWatch pipeline: ingress
replication and a per-VM coordination group.  Every other VM gets the
baseline wiring: client traffic goes straight to its single replica's
dom0.  Output leaves through the egress node when the policy's
``egress`` is set, and directly otherwise (``none``: unmodified Xen).

Placement (Sec. VIII): when ``hosts=`` is omitted on a 3-replica VM,
the fabric asks a :class:`~repro.placement.scheduler.
PlacementScheduler` for the VM's replica *triangle*, so any two VMs
co-reside on at most one machine.  Pass your own scheduler for strict
operator-controlled placement (a full cluster then raises
:class:`~repro.placement.scheduler.PlacementError` instead of falling
back).  Explicit ``hosts=`` always bypasses the placer.

Sharded edge: with ``shards=k`` the cloud runs ``k`` ingress and ``k``
egress nodes; each VM is pinned to one shard by a stable hash of its
name, so the edge is no longer a single serialization point at high
tenant counts.  ``shards=1`` (the default) keeps the historical single
``ingress``/``egress`` pair, byte-identical to previous releases.
"""

import hashlib
import random as _random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cloud.egress import EgressNode
from repro.cloud.ingress import IngressNode
from repro.core.config import StopWatchConfig, DEFAULT
from repro.machine.host import Host
from repro.mitigation import MitigationPolicy, resolve_policy
from repro.net.link import Link
from repro.net.network import Network, RealtimeNode
from repro.net.pgm import PgmReceiver
from repro.placement.scheduler import PlacementError, PlacementScheduler
from repro.sim.rng import _derive_seed
from repro.vmm.coordination import ReplicaCoordination
from repro.vmm.hypervisor import ReplicaVMM


@dataclass
class ReplicatedVM:
    """Book-keeping for one guest VM deployment."""

    name: str
    hosts: List[int]
    vmms: List[ReplicaVMM]
    workloads: List[object] = field(default_factory=list)
    #: edge shard this VM's traffic is pinned to
    shard: int = 0
    #: kept so a crashed replica can be rebuilt by replay (repro.faults)
    workload_factory: Optional[Callable] = None
    workload_seed: Optional[int] = None
    #: replica_id -> ExecutionRecorder, attached by the fault injector
    recorders: Dict[int, object] = field(default_factory=dict)
    #: the mitigation policy this VM's timing runs under
    policy: Optional[MitigationPolicy] = None

    @property
    def address(self) -> str:
        return f"vm:{self.name}"

    def stat_sum(self, key: str) -> float:
        return sum(vmm.stats[key] for vmm in self.vmms)


class ClientPort(RealtimeNode):
    """An external client machine: a RealtimeNode that owns its WAN
    links, so protocol stacks bind to it directly."""

    def __init__(self, sim, network: Network, name: str,
                 latency: float, bandwidth: float, jitter: float):
        super().__init__(sim, network, name)
        self.name = name
        self.uplink = Link(sim, latency=latency, bandwidth=bandwidth,
                           jitter=jitter, name=f"wan.up.{name}")
        self.downlink = Link(sim, latency=latency, bandwidth=bandwidth,
                             jitter=jitter, name=f"wan.down.{name}")
        network.add_route(None, name, self.downlink)


def shard_index(vm_name: str, shards: int) -> int:
    """Stable shard id for a VM name (SHA-256, not the salted builtin
    ``hash``), so shard routing is identical across runs and processes."""
    if shards <= 1:
        return 0
    digest = hashlib.sha256(vm_name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


class Cloud:
    """A StopWatch (or baseline) cloud on ``machines`` physical hosts."""

    def __init__(self, sim, machines: int = 3,
                 config: StopWatchConfig = DEFAULT,
                 host_kwargs: Optional[dict] = None,
                 shards: int = 1,
                 placer="auto",
                 policy=None):
        #: cloud-wide default mitigation policy; ``None`` derives it
        #: from the replica count (:func:`repro.mitigation
        #: .default_policy`).  ``create_vm(policy=...)`` overrides it
        #: per tenant.
        self.policy = resolve_policy(policy, config)
        replicas = self.policy.replica_count(config)
        if machines < replicas:
            raise ValueError(
                f"{replicas} replicas need at least that many "
                f"machines, got {machines}"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.sim = sim
        self.config = config
        self.shards = shards
        self.network = Network(sim, default_link_kwargs={
            "latency": config.internal_latency,
            "jitter": config.internal_latency * config.internal_jitter,
            "bandwidth": 1e9,
        })
        self.hosts: List[Host] = [
            Host(sim, i, self.network, **(host_kwargs or {}))
            for i in range(machines)
        ]
        # shards == 1 keeps the historical "ingress"/"egress" addresses
        # (and hence their named RNG streams), so single-shard clouds
        # stay byte-identical to previous releases.
        ingress_addrs = (["ingress"] if shards == 1
                         else [f"ingress.{i}" for i in range(shards)])
        egress_addrs = (["egress"] if shards == 1
                        else [f"egress.{i}" for i in range(shards)])
        self.ingresses: List[IngressNode] = [
            IngressNode(sim, self.network, address=addr)
            for addr in ingress_addrs
        ]
        self.egresses: List[EgressNode] = [
            EgressNode(sim, self.network, address=addr,
                       stale_timeout=config.egress_stale_timeout)
            for addr in egress_addrs
        ]
        self.vms: Dict[str, ReplicatedVM] = {}
        self.clients: Dict[str, ClientPort] = {}
        self._down_replicas: Dict[str, set] = {}
        #: optional EvacuationController (repro.faults.heal) notified of
        #: suspicions and condemned hosts
        self.healer = None
        #: observers of replica membership events: ``fn(vm_name,
        #: replica_id, up)`` fires on every deduplicated suspicion
        #: (``up=False``) and rejoin (``up=True``) -- e.g. a storage
        #: tenant's repair daemon reconstructing at-risk shares
        self.replica_listeners: List[Callable] = []
        self._started = False
        # "auto" builds a scheduler when it first places a VM; a
        # caller-supplied scheduler places strictly
        self._strict = placer != "auto"
        self._placer: Optional[PlacementScheduler] = \
            placer if self._strict else None
        if self._strict and placer.machines != machines:
            raise ValueError(
                f"placer covers {placer.machines} machines but the "
                f"fleet has {machines}")

    # ------------------------------------------------------------------
    # edge shards
    # ------------------------------------------------------------------
    @property
    def ingress(self) -> IngressNode:
        """The single ingress node (only meaningful with ``shards=1``)."""
        if self.shards != 1:
            raise RuntimeError(
                f"edge is sharded {self.shards} ways; use "
                f"ingress_for(vm_name) or .ingresses")
        return self.ingresses[0]

    @property
    def egress(self) -> EgressNode:
        """The single egress node (only meaningful with ``shards=1``)."""
        if self.shards != 1:
            raise RuntimeError(
                f"edge is sharded {self.shards} ways; use "
                f"egress_for(vm_name) or .egresses")
        return self.egresses[0]

    def shard_of(self, vm_name: str) -> int:
        return shard_index(vm_name, self.shards)

    def ingress_for(self, vm_name: str) -> IngressNode:
        return self.ingresses[self.shard_of(vm_name)]

    def egress_for(self, vm_name: str) -> EgressNode:
        return self.egresses[self.shard_of(vm_name)]

    @property
    def packets_replicated(self) -> int:
        """Total inbound packets replicated across all edge shards."""
        return sum(node.packets_replicated for node in self.ingresses)

    @property
    def packets_released(self) -> int:
        """Total outputs released across all edge shards."""
        return sum(node.packets_released for node in self.egresses)

    @property
    def pending_releases(self) -> int:
        return sum(node.pending_releases for node in self.egresses)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------
    @property
    def placer(self) -> Optional[PlacementScheduler]:
        """The scheduler that placed the no-``hosts=`` VMs (if any)."""
        return self._placer

    def _resolve_placer(self, replica_count: int):
        if self._strict:
            if replica_count != 3:
                raise ValueError(
                    f"placement triangles need exactly 3 replicas, the "
                    f"config has {replica_count}; pass hosts= explicitly")
            return self._placer
        # auto: placement triangles only exist for 3-replica VMs on a
        # 3+-machine fleet; everything else keeps the legacy hosts
        # 0..r-1 (byte-identical to previous releases).
        if replica_count != 3 or len(self.hosts) < 3:
            return None
        if self._placer is None:
            capacity = max(1, (len(self.hosts) - 1) // 2)
            self._placer = PlacementScheduler(len(self.hosts), capacity)
        return self._placer

    def _place(self, name: str, replica_count: int) -> List[int]:
        placer = self._resolve_placer(replica_count)
        if placer is None:
            return list(range(replica_count))
        try:
            triangle = placer.place(name)
        except PlacementError:
            if self._strict:
                raise
            # auto mode degrades to the legacy single-tenant wiring so
            # small ad-hoc clouds keep working past the triangle pool
            hosts = list(range(replica_count))
            self.sim.trace.record(self.sim.now, "placement.fallback",
                                  vm=name, hosts=hosts)
            return hosts
        hosts = list(triangle)
        self.sim.trace.record(self.sim.now, "placement.assign", vm=name,
                              hosts=hosts, shard=self.shard_of(name))
        return hosts

    # ------------------------------------------------------------------
    # guests
    # ------------------------------------------------------------------
    def create_vm(self, name: str,
                  workload_factory: Optional[Callable] = None,
                  hosts: Optional[Sequence[int]] = None,
                  policy=None) -> ReplicatedVM:
        """Deploy a guest VM (replicated per its policy).

        ``workload_factory(guest_os)`` is called once per replica and must
        return an object with a ``start()`` method; all replicas get RNGs
        seeded identically, so the workload runs identically everywhere.

        With ``hosts=None`` the cloud's placer chooses the replica
        machines (see the module docstring); an explicit ``hosts=``
        sequence pins them and bypasses placement constraints.

        ``policy`` (a name or :class:`~repro.mitigation
        .MitigationPolicy`) overrides the cloud's default mitigation
        policy for this VM: it decides the replica count, whether the
        replicas coordinate through median agreement, the
        injection/release timing discipline, and (its ``egress``)
        whether output goes through the egress node, where a
        single-replica policy releases at quorum 1 after its release
        hook's delay.
        """
        if name in self.vms:
            raise ValueError(f"VM {name!r} already exists")
        vm_policy = self.policy if policy is None \
            else resolve_policy(policy, self.config)
        replica_count = vm_policy.replica_count(self.config)
        if hosts is None:
            hosts = self._place(name, replica_count)
        hosts = list(hosts)
        if len(hosts) != replica_count:
            raise ValueError(
                f"need exactly {replica_count} host ids, got {hosts}"
            )
        fleet = len(self.hosts)
        for host_id in hosts:
            if not isinstance(host_id, int) or not 0 <= host_id < fleet:
                raise ValueError(
                    f"VM {name!r}: host id {host_id!r} is outside the "
                    f"{fleet}-machine fleet (valid ids: 0..{fleet - 1})")

        workload_seed = _derive_seed(self.sim.rng.root_seed,
                                     f"workload.{name}")
        shard = self.shard_of(name)
        egress_address = self.egresses[shard].address
        vmms: List[ReplicaVMM] = []
        for replica_id, host_id in enumerate(hosts):
            vmm = ReplicaVMM(
                self.sim, self.hosts[host_id], name, replica_id,
                self.config, workload_rng=_random.Random(workload_seed),
                egress_address=egress_address, policy=vm_policy)
            vmms.append(vmm)

        vm = ReplicatedVM(name=name, hosts=hosts, vmms=vmms, shard=shard,
                          workload_factory=workload_factory,
                          workload_seed=workload_seed, policy=vm_policy)
        self.vms[name] = vm

        if vm_policy.coordinated and replica_count > 1:
            self._wire_mediated(vm)
        else:
            self._wire_baseline(vm)

        if vm_policy.egress:
            self.egresses[shard].register_vm(name, replica_count,
                                             policy=vm_policy)

        if workload_factory is not None:
            for vmm in vmms:
                workload = workload_factory(vmm.guest)
                vm.workloads.append(workload)
                vmm.guest.schedule_at_instr(0, workload.start)

        # clients added before this VM need routes to it
        for client in self.clients.values():
            self.network.add_route(client.name, vm.address, client.uplink)
        return vm

    def _wire_mediated(self, vm: ReplicatedVM) -> None:
        ingress = self.ingresses[vm.shard]
        host_addresses = [self.hosts[h].address for h in vm.hosts]
        ingress.register_vm(vm.name, host_addresses)
        for replica_id, host_id in enumerate(vm.hosts):
            host = self.hosts[host_id]
            vmm = vm.vmms[replica_id]
            self.attach_coordination(vm, vmm, host)
            self.attach_ingress_receiver(vm, vmm, host)

    def lead_boundaries(self) -> int:
        """Pacing lead budget in barrier counts (Sec. V-A)."""
        return max(1, int(
            self.config.max_lead_virtual
            / (self.config.pacing_interval_branches
               * self.config.initial_slope)))

    def attach_coordination(self, vm: ReplicatedVM, vmm: ReplicaVMM,
                            host: Host,
                            sibling_start_seqs: Optional[Dict[int, int]]
                            = None) -> ReplicaCoordination:
        """Build one replica's coordination endpoint and hook its failure
        detector into the fabric.  ``sibling_start_seqs`` seeds the PGM
        stream cursors for an evacuated replica joining mid-stream."""
        siblings = {
            rid: self.hosts[h].address
            for rid, h in enumerate(vm.hosts) if rid != vmm.replica_id
        }
        vmm.coordination = ReplicaCoordination(
            self.sim, vmm, host, siblings, self.lead_boundaries(),
            sibling_start_seqs=sibling_start_seqs)
        vmm.coordination.on_suspect = (
            lambda rid, name=vm.name: self._replica_suspected(name, rid))
        vmm.coordination.on_rejoin = (
            lambda rid, name=vm.name: self._replica_rejoined(name, rid))
        return vmm.coordination

    def attach_ingress_receiver(self, vm: ReplicatedVM, vmm: ReplicaVMM,
                                host: Host,
                                start_seq: int = 0) -> PgmReceiver:
        """Subscribe one replica host to the VM's ingress replication
        group.  An evacuated replica subscribes at its replay horizon
        (``start_seq``) so the gap back to the sender's cursor is
        NAK-repaired from the ingress retain buffer."""
        ingress = self.ingresses[vm.shard]
        receiver = PgmReceiver(host.node, f"ingress.{vm.name}")
        receiver.subscribe(
            ingress.address,
            lambda envelope, seq, h=host, v=vmm:
            h.dom0.submit(self.config.dom0_packet_cost,
                          v.observe_inbound, envelope.seq,
                          envelope.inner),
            on_loss=lambda seq, v=vmm: self._ingress_loss(v, seq),
            start_seq=start_seq)
        return receiver

    # ------------------------------------------------------------------
    # failure propagation (coordination layer -> fabric -> egress)
    # ------------------------------------------------------------------
    def host_for(self, vm_name: str, replica_id: int) -> Host:
        vm = self.vms[vm_name]
        return self.hosts[vm.hosts[replica_id]]

    def _replica_suspected(self, vm_name: str, replica_id: int) -> None:
        """A survivor's failure detector fired.  All survivors report;
        the first report degrades the egress quorum, the rest are
        deduplicated here."""
        down = self._down_replicas.setdefault(vm_name, set())
        if replica_id in down:
            return
        down.add(replica_id)
        if self.vms[vm_name].policy.egress:
            self.egress_for(vm_name).mark_replica_down(vm_name, replica_id)
        if self.healer is not None:
            self.healer.replica_suspected(vm_name, replica_id)
        for listener in self.replica_listeners:
            listener(vm_name, replica_id, False)

    def _replica_rejoined(self, vm_name: str, replica_id: int) -> None:
        down = self._down_replicas.get(vm_name)
        if not down or replica_id not in down:
            return
        down.discard(replica_id)
        if self.vms[vm_name].policy.egress:
            self.egress_for(vm_name).mark_replica_up(vm_name, replica_id)
        for listener in self.replica_listeners:
            listener(vm_name, replica_id, True)

    def add_replica_listener(self, listener: Callable) -> None:
        """Register ``listener(vm_name, replica_id, up)`` for the
        deduplicated replica suspicion/rejoin stream (after the healer
        has been notified, so a listener observes the same membership
        view the heal pipeline acts on)."""
        self.replica_listeners.append(listener)

    def _ingress_loss(self, vmm: ReplicaVMM, pgm_seq: int) -> None:
        """NAK repair of an ingress datagram failed: this replica has
        permanently missed an inbound packet.  Its siblings' decided
        value (or a stale-agreement sweep) will eventually skip the
        slot; here it is just traced."""
        self.sim.trace.record(self.sim.now, "fault.ingress_loss",
                              vm=vmm.vm_name, replica=vmm.replica_id,
                              seq=pgm_seq)

    def _wire_baseline(self, vm: ReplicatedVM) -> None:
        host = self.hosts[vm.hosts[0]]
        vmm = vm.vmms[0]
        self.network.attach(
            vm.address,
            lambda packet, h=host, v=vmm:
            h.dom0.submit(self.config.dom0_packet_cost,
                          v.observe_inbound, None, packet))

    # ------------------------------------------------------------------
    # clients
    # ------------------------------------------------------------------
    def add_client(self, name: str, latency: float = 0.002,
                   bandwidth: float = 100e6,
                   jitter: float = 0.0002) -> ClientPort:
        """Attach an external client machine over a WAN path."""
        if name in self.clients:
            raise ValueError(f"client {name!r} already exists")
        client = ClientPort(self.sim, self.network, name,
                            latency, bandwidth, jitter)
        self.clients[name] = client
        for vm in self.vms.values():
            self.network.add_route(name, vm.address, client.uplink)
        return client

    # ------------------------------------------------------------------
    # background traffic (Sec. VII-B: the testbed's /24 subnet broadcast
    # noise, ~50-100 packets/s, was present throughout all experiments)
    # ------------------------------------------------------------------
    def add_background_broadcast(self, rate: float = 75.0,
                                 size: int = 60) -> None:
        """Replicate ARP-style broadcast chatter to every VM.

        Each broadcast goes through the full mediation pipeline (ingress
        sequence numbers, proposals, median delivery) even though guests
        drop it -- exactly the background load the paper reports.
        """
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        from repro.net.packet import Packet

        rng = self.sim.rng.stream("background.broadcast")

        def emit():
            for vm in self.vms.values():
                self.network.send(Packet(
                    src="broadcast:0", dst=vm.address, protocol="arp",
                    payload=None, size=size))
            self.sim.call_after(rng.expovariate(rate), emit)

        self.sim.call_after(rng.expovariate(rate), emit)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Boot every replica VMM (idempotent while started)."""
        if self._started:
            return
        self._started = True
        for vm in self.vms.values():
            for vmm in vm.vmms:
                vmm.start()

    def stop(self) -> None:
        """Halt every replica VMM; :meth:`start` boots them again."""
        for vm in self.vms.values():
            for vmm in vm.vmms:
                vmm.stop()
        self._started = False

    def run(self, until: float) -> None:
        """Convenience: start (if needed) and run the simulation.

        Raises the first replica's :class:`~repro.sim.errors.ProcessFailed`
        when the guest engine of every replica of some VM failed; a VM
        with a surviving replica keeps running on it.
        """
        self.start()
        self.sim.run(until=until)
        for vm in self.vms.values():
            failures = [vmm.engine_failure for vmm in vm.vmms]
            if all(failures):
                raise failures[0]
