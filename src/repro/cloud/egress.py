"""The egress node (Sec. VI).

Replicas run deterministically, so they emit identical output-packet
sequences.  Each replica's dom0 tunnels outputs to the egress node,
which forwards a packet toward its real destination when the *second*
copy arrives -- the second arrival time of three is exactly the median
of the replicas' emission times, so an external observer only ever sees
median timing.

Degraded operation: the fabric tells the egress node when a replica is
suspected dead (:meth:`EgressNode.mark_replica_down`).  Release state
for that VM retargets to the live copy count -- with one of three
replicas down the release-on-2nd-copy rule is unchanged (2 live copies
still arrive), and with two down the sole survivor's copy releases
immediately, trading the timing protection for availability.  Entries
that can never finish (copies from crashed replicas) no longer leak:
a periodic sweep retires anything older than ``stale_timeout``.
"""

from typing import Dict, Optional, Tuple

from repro.core.median import QuorumRelease
from repro.mitigation import MitigationPolicy
from repro.net.network import Network, RealtimeNode
from repro.net.packet import Packet, ReplicaEnvelope

_Key = Tuple[str, int]


class EgressNode:
    """Release-on-median-copy forwarding of guest output."""

    def __init__(self, sim, network: Network, address: str = "egress",
                 stale_timeout: float = 2.0):
        if stale_timeout <= 0:
            raise ValueError(f"stale_timeout must be > 0: {stale_timeout}")
        self.sim = sim
        self.network = network
        self.address = address
        self.stale_timeout = stale_timeout
        self.node = RealtimeNode(sim, network, address)
        self.node.register_protocol("replica-out", self._on_replica_packet)
        self._expected: Dict[str, int] = {}
        self._policies: Dict[str, MitigationPolicy] = {}
        self._down: Dict[str, set] = {}
        self._releases: Dict[_Key, QuorumRelease] = {}
        self._envelopes: Dict[_Key, ReplicaEnvelope] = {}
        self._born: Dict[_Key, float] = {}
        self.packets_released = 0
        self.stale_swept = 0
        self._sweep_scheduled = False

    def register_vm(self, vm_name: str, replicas: int,
                    policy: Optional[MitigationPolicy] = None) -> None:
        """Expect ``replicas`` copies of each of the VM's outputs.

        ``policy`` (a :class:`~repro.mitigation.MitigationPolicy`)
        controls release timing: once the quorum completes, the
        policy's ``release_delay`` holds the forward for that many
        seconds.  ``None`` -- and every policy returning ``0.0``, e.g.
        ``stopwatch`` -- releases inline, byte-identical to the
        pre-policy pipeline.
        """
        if vm_name in self._expected:
            raise ValueError(f"VM {vm_name!r} already registered at egress")
        self._expected[vm_name] = replicas
        if policy is not None:
            self._policies[vm_name] = policy

    # ------------------------------------------------------------------
    # degraded quorum
    # ------------------------------------------------------------------
    def live_count(self, vm_name: str) -> int:
        return self._expected[vm_name] - len(self._down.get(vm_name, ()))

    def _live_floor(self, vm_name: str) -> int:
        """Copies the release rule waits for, floored at 1: with every
        replica suspected dead there is no median to wait for, but a
        zero-copy rule would be ill-formed and wedge the edge forever
        -- release on whatever copy still shows up, and let the healer
        rebuild the quorum."""
        return max(1, self.live_count(vm_name))

    def mark_replica_down(self, vm_name: str, replica_id: int) -> None:
        """A replica is suspected dead: stop waiting for its copies."""
        if vm_name not in self._expected:
            return
        down = self._down.setdefault(vm_name, set())
        if replica_id in down:
            return
        down.add(replica_id)
        live = self.live_count(vm_name)
        self.sim.trace.record(self.sim.now, "egress.degraded",
                              vm=vm_name, replica=replica_id, live=live)
        self._retarget_vm(vm_name, self._live_floor(vm_name))

    def mark_replica_up(self, vm_name: str, replica_id: int) -> None:
        """A recovered replica rejoined: expect its copies again."""
        down = self._down.get(vm_name)
        if not down or replica_id not in down:
            return
        down.discard(replica_id)
        live = self.live_count(vm_name)
        self.sim.trace.record(self.sim.now, "egress.restored",
                              vm=vm_name, replica=replica_id, live=live)
        self._retarget_vm(vm_name, self._live_floor(vm_name))

    def _retarget_vm(self, vm_name: str, live: int) -> None:
        for key in sorted(k for k in self._releases if k[0] == vm_name):
            release = self._releases[key]
            if release.retarget(live, self.sim.now):
                self._forward(key)  # no single triggering copy
            if release.complete:
                self._cleanup(key)

    # ------------------------------------------------------------------
    # release pipeline
    # ------------------------------------------------------------------
    def _on_replica_packet(self, packet: Packet) -> None:
        envelope: ReplicaEnvelope = packet.payload
        expected = self._expected.get(envelope.vm)
        if expected is None:
            return  # unknown VM; drop
        key = (envelope.vm, envelope.seq)
        release = self._releases.get(key)
        if release is None:
            release = QuorumRelease(key, expected=expected)
            release.retarget(self._live_floor(envelope.vm), self.sim.now)
            self._releases[key] = release
            self._envelopes[key] = envelope
            self._born[key] = self.sim.now
            self._schedule_sweep()
        if release.arrive(envelope.replica_id, self.sim.now):
            self._release(key, trigger=envelope.replica_id)
        if release.complete:
            self._cleanup(key)

    def _release(self, key: _Key, trigger: Optional[int]) -> None:
        """Forward a quorum-complete output, applying the VM policy's
        release delay.  Zero delay forwards inline (no event scheduled),
        keeping delay-free policies byte-identical."""
        policy = self._policies.get(key[0])
        delay = 0.0 if policy is None \
            else policy.release_delay(self, key[0])
        if delay <= 0.0:
            self._forward(key, trigger=trigger)
            return
        # the quorum entry may be cleaned up before the delay elapses,
        # so the held forward captures the envelope itself
        envelope = self._envelopes[key]
        self.sim.call_after(delay, self._forward_held, envelope, trigger)

    def _forward_held(self, envelope: ReplicaEnvelope,
                      trigger: Optional[int]) -> None:
        self.packets_released += 1
        self.sim.trace.record(self.sim.now, "egress.release",
                              vm=envelope.vm, seq=envelope.seq)
        self.sim.flows.output_released(self.sim.now, envelope.vm,
                                       envelope.seq, trigger)
        self.network.send(envelope.inner)

    def _forward(self, key: _Key, trigger: Optional[int] = None) -> None:
        """Forward toward the real destination.  ``trigger`` is the
        replica whose copy completed the quorum -- the flow layer's
        critical-path replica (``None`` for degraded retarget releases).
        """
        self._forward_held(self._envelopes[key], trigger)

    def _cleanup(self, key: _Key) -> None:
        self._releases.pop(key, None)
        self._envelopes.pop(key, None)
        self._born.pop(key, None)

    # ------------------------------------------------------------------
    # stale-entry sweeping
    # ------------------------------------------------------------------
    def _schedule_sweep(self) -> None:
        if self._sweep_scheduled or not self._releases:
            return
        self._sweep_scheduled = True
        self.sim.call_after(self.stale_timeout, self._sweep)

    def _sweep(self) -> None:
        self._sweep_scheduled = False
        cutoff = self.sim.now - self.stale_timeout
        stale = sorted(key for key, born in self._born.items()
                       if born <= cutoff)
        for key in stale:
            release = self._releases[key]
            self.stale_swept += 1
            self.sim.trace.record(self.sim.now, "egress.stale",
                                  vm=key[0], seq=key[1],
                                  released=release.released_at is not None,
                                  arrivals=len(release.arrivals))
            self._cleanup(key)
        self._schedule_sweep()

    @property
    def pending_releases(self) -> int:
        return len(self._releases)

    def __repr__(self) -> str:
        return f"<EgressNode {self.address} vms={len(self._expected)}>"
