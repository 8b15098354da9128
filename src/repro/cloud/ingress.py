"""The ingress node (Sec. V).

Every packet destined for a guest VM is routed to an ingress node,
which stamps it with a per-VM sequence number and replicates it via PGM
multicast to all machines hosting that VM's replicas.  (A real cloud
would run several ingress nodes; one suffices here and the abstraction
allows many.)
"""

from collections import deque
from typing import Deque, Dict, List

from repro.net.network import Network, RealtimeNode
from repro.net.packet import Packet, ReplicaEnvelope
from repro.net.pgm import PgmSender

#: per-VM admission buffer while the VM's replication is paused (an
#: evacuation swapping group membership); overflow is dropped and traced
PAUSE_BUFFER = 512


class IngressNode:
    """Replicates inbound guest traffic to the replica hosts."""

    def __init__(self, sim, network: Network, address: str = "ingress"):
        self.sim = sim
        self.network = network
        self.address = address
        self.node = RealtimeNode(sim, network, address)
        self._senders: Dict[str, PgmSender] = {}
        self._sequences: Dict[str, int] = {}
        self._paused: Dict[str, Deque[Packet]] = {}
        self.packets_replicated = 0
        self.pause_drops = 0

    def register_vm(self, vm_name: str, host_addresses: List[str]) -> None:
        """Start replicating traffic for ``vm:<vm_name>`` to the hosts."""
        if vm_name in self._senders:
            raise ValueError(f"VM {vm_name!r} already registered at ingress")
        self._senders[vm_name] = PgmSender(
            self.node, f"ingress.{vm_name}", list(host_addresses))
        self._sequences[vm_name] = 0
        self.network.attach(f"vm:{vm_name}",
                            lambda packet, name=vm_name:
                            self._on_guest_packet(name, packet))

    def pause_vm(self, vm_name: str) -> None:
        """Hold ``vm_name``'s admissions in a bounded buffer (idempotent).
        Used while an evacuation swaps the replication group membership,
        so no packet is admitted against a half-rewired member list."""
        if vm_name not in self._senders:
            raise ValueError(f"VM {vm_name!r} not registered at ingress")
        self._paused.setdefault(vm_name, deque())

    def resume_vm(self, vm_name: str) -> None:
        """Release the pause buffer in admission order (idempotent)."""
        buffered = self._paused.pop(vm_name, None)
        if buffered:
            self.sim.trace.record(self.sim.now, "ingress.resume",
                                  vm=vm_name, buffered=len(buffered))
        while buffered:
            self._on_guest_packet(vm_name, buffered.popleft())

    def rewire_vm(self, vm_name: str, old_address: str,
                  new_address: str) -> int:
        """Swap one replication-group member (replica evacuation) and
        return the sender's next sequence number -- the first seq the
        new member will see as live ODATA."""
        sender = self._senders.get(vm_name)
        if sender is None:
            raise ValueError(f"VM {vm_name!r} not registered at ingress")
        sender.replace_member(old_address, new_address)
        return sender.next_seq

    def _on_guest_packet(self, vm_name: str, packet: Packet) -> None:
        buffered = self._paused.get(vm_name)
        if buffered is not None:
            if len(buffered) >= PAUSE_BUFFER:
                self.pause_drops += 1
                self.sim.trace.record(self.sim.now, "ingress.pause_drop",
                                      vm=vm_name)
                return
            buffered.append(packet)
            return
        seq = self._sequences[vm_name]
        self._sequences[vm_name] = seq + 1
        envelope = ReplicaEnvelope(vm=vm_name, direction="in", seq=seq,
                                   inner=packet)
        self.packets_replicated += 1
        sender = self._senders[vm_name]
        self.sim.trace.record(self.sim.now, "ingress.replicate",
                              vm=vm_name, seq=seq)
        self.sim.flows.flow_admitted(self.sim.now, vm_name, seq,
                                     replicas=len(sender.members))
        sender.multicast(envelope, data_len=envelope.wire_size())

    def __repr__(self) -> str:
        return f"<IngressNode {self.address} vms={len(self._senders)}>"
