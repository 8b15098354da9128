"""Inter-VMM coordination for one guest VM's replicas (Sec. V, VII-A).

Each replica's VMM owns one :class:`ReplicaCoordination` instance.  All
traffic rides a per-VM PGM multicast group among the replica hosts'
dom0 endpoints.  Message kinds:

- ``("proposal", seq, replica_id, virt)`` -- proposed virtual delivery
  time for inbound packet ``seq``; collected into a
  :class:`~repro.core.median.MedianAgreement`, whose decision is handed
  to the VMM.
- ``("progress", replica_id, boundary)`` -- pacing: the sender reached
  pacing boundary ``boundary``; the fastest replica stalls until enough
  siblings are close behind (this enforces the paper's "maximum allowed
  difference between the fastest two replicas' virtual times").
- ``("epoch", k, replica_id, duration, real_time)`` -- a Sec. IV-A
  epoch resynchronisation sample.
- ``("heartbeat", replica_id)`` -- failure-detection liveness beacon
  (only with ``config.failure_detection``).
- ``("rejoin", replica_id[, floor])`` -- a recovered replica announcing
  that it is live again and will participate in future agreements.  The
  optional ``floor`` is its ingress-sequence replay horizon: decisions at
  or above it may never reach the rejoiner (they were addressed to its
  old incarnation), so the lowest-id live sibling schedules a delayed
  catch-up push of its cached decisions from ``floor`` upward.  The
  delay (``config.rejoin_catchup_delay``) exceeds the NAK repair window,
  so the lossless ODATA/RDATA path wins whenever it can and the push is
  a deduplicated no-op; it matters only for gaps repair cannot close.

Failure detection and degraded operation
----------------------------------------

With ``config.failure_detection`` enabled, every replica multicasts a
heartbeat each ``heartbeat_interval`` and tracks when it last heard
*anything* from each sibling.  A sibling silent for longer than
``suspicion_timeout`` -- or whose PGM stream reports an unrepairable
loss -- is suspected dead, and the whole mediation pipeline degrades to
the live quorum instead of deadlocking:

- open median agreements :meth:`~repro.core.median.MedianAgreement.retarget`
  to the live replica count (2-of-3: the decision is the median of the
  survivors' proposals, mirroring the egress release-on-2nd-copy rule);
- pacing ignores the dead sibling's stale progress;
- epoch resynchronisation proceeds on the live samples;
- agreements that still cannot complete (e.g. the packet only the dead
  replica saw) are swept after ``stale_agreement_timeout`` so FIFO
  injection keeps moving.

Every decision is remembered in a bounded cache; a proposal arriving
for an already-decided packet (a recovered replica catching up) is
answered with a unicast ``("decided", seq, virt)`` so the latecomer
converges on the group's decision instead of stranding an agreement.
"""

from collections import deque
from typing import Callable, Dict, List, Optional

from repro.core.median import MedianAgreement
from repro.core.virtual_time import EpochSample
from repro.net.packet import Packet
from repro.net.pgm import PgmReceiver, PgmSender

#: retained (seq -> decided virtual time) entries for late-proposal replies
DECISION_CACHE = 4096


class ReplicaCoordination:
    """One replica's view of its VM's coordination group."""

    def __init__(self, sim, vmm, host, sibling_addresses: Dict[int, str],
                 lead_boundaries: int,
                 sibling_start_seqs: Optional[Dict[int, int]] = None):
        self.sim = sim
        self.vmm = vmm
        self.host = host
        self.vm_name = vmm.vm_name
        self.replica_id = vmm.replica_id
        self.sibling_addresses = dict(sibling_addresses)
        self.expected = len(sibling_addresses) + 1
        self.lead_boundaries = max(1, lead_boundaries)

        group = f"coord.{self.vm_name}"
        members = [host.address] + list(sibling_addresses.values())
        self.sender = PgmSender(host.node, group, members)
        self.receiver = PgmReceiver(host.node, group)
        start_seqs = sibling_start_seqs or {}
        for rid, address in sibling_addresses.items():
            self.receiver.subscribe(
                address,
                lambda message, seq, r=rid: self._on_message(r, message),
                on_loss=lambda seq, r=rid: self._on_stream_loss(r, seq),
                start_seq=start_seqs.get(rid, 0))
        host.node.register_protocol(f"coord-decided.{self.vm_name}",
                                    self._on_decided)

        self._agreements: Dict[int, MedianAgreement] = {}
        self._packets: Dict[int, object] = {}
        self._agreement_born: Dict[int, float] = {}
        self._decisions: Dict[int, float] = {}
        self._decision_order: deque = deque()
        self.sibling_progress: Dict[int, int] = {
            rid: -1 for rid in sibling_addresses
        }
        self._progress_waiters: List = []
        self._epoch_samples: Dict[int, Dict[int, EpochSample]] = {}
        self._epoch_waiters: Dict[int, List] = {}
        self._epoch_floor = 0

        # failure detection state
        self.live: Dict[int, bool] = {rid: True for rid in sibling_addresses}
        self.last_heard: Dict[int, float] = {
            rid: sim.now for rid in sibling_addresses
        }
        self.stream_losses: Dict[int, int] = {
            rid: 0 for rid in sibling_addresses
        }
        self.on_suspect: Optional[Callable] = None   # fn(replica_id)
        self.on_rejoin: Optional[Callable] = None    # fn(replica_id)
        self.detection_enabled = bool(vmm.config.failure_detection)
        self._detection_running = False
        self._sweep_scheduled = False
        if self.detection_enabled:
            self._start_detection()

    # ------------------------------------------------------------------
    # group membership
    # ------------------------------------------------------------------
    @property
    def live_expected(self) -> int:
        """Replicas currently believed alive, including this one."""
        return 1 + sum(1 for ok in self.live.values() if ok)

    def rewire_sibling(self, replica_id: int, new_address: str) -> None:
        """An evacuation moved ``replica_id`` to ``new_address``: swap the
        multicast membership and start a fresh receive stream (the new
        incarnation's sender counts from zero)."""
        old_address = self.sibling_addresses.get(replica_id)
        if old_address is None:
            raise ValueError(f"{self.vm_name} r{self.replica_id}: no "
                             f"sibling {replica_id}")
        if old_address == new_address:
            return
        self.sibling_addresses[replica_id] = new_address
        self.sender.replace_member(old_address, new_address)
        self.receiver.unsubscribe(old_address)
        self.receiver.subscribe(
            new_address,
            lambda message, seq, r=replica_id: self._on_message(r, message),
            on_loss=lambda seq, r=replica_id: self._on_stream_loss(r, seq))
        self.last_heard[replica_id] = self.sim.now

    # ------------------------------------------------------------------
    # proposals / median agreement
    # ------------------------------------------------------------------
    def local_proposal(self, seq: int, packet, proposed_virt: float) -> None:
        """This replica observed inbound packet ``seq``: buffer it, record
        our own proposal, and multicast it to the siblings."""
        decided = self._decisions.get(seq)
        if decided is not None:
            # the group already agreed while we were away: adopt it
            self.vmm.commit_network_delivery(seq, decided, packet)
            return
        self._packets[seq] = packet
        self.sender.multicast(("proposal", seq, self.replica_id,
                               proposed_virt))
        self._feed(seq, self.replica_id, proposed_virt)

    def _feed(self, seq: int, replica_id: int, proposed_virt: float) -> None:
        if seq in self._decisions:
            return  # late proposal for a decided packet; reply handled
        agreement = self._agreements.get(seq)
        if agreement is None:
            agreement = MedianAgreement(seq, expected=self.live_expected)
            self._agreements[seq] = agreement
            self._agreement_born[seq] = self.sim.now
            if self.detection_enabled:
                self._schedule_agreement_sweep()
        agreement.retarget(self.live_expected)
        if replica_id not in agreement.proposals and not agreement.decided:
            agreement.propose(replica_id, proposed_virt)
        if agreement.decided:
            self._commit(seq, agreement)

    def _commit(self, seq: int, agreement: MedianAgreement) -> None:
        packet = self._packets.pop(seq, None)
        self._agreements.pop(seq, None)
        self._agreement_born.pop(seq, None)
        decision = agreement.decision(self.vmm.config.aggregation)
        self._remember_decision(seq, decision)
        degraded = len(agreement.proposals) < self.expected
        if degraded:
            self.sim.trace.record(self.sim.now, "fault.degraded_agreement",
                                  vm=self.vm_name, replica=self.replica_id,
                                  seq=seq,
                                  proposals=len(agreement.proposals))
            self.sim.metrics.incr("fault.degraded_agreements")
        self.sim.flows.flow_annotate(self.vm_name, seq,
                                     proposals=len(agreement.proposals),
                                     spread=agreement.spread(),
                                     degraded=degraded)
        self.vmm.commit_network_delivery(seq, decision, packet)

    def _remember_decision(self, seq: int, decision: float) -> None:
        if seq not in self._decisions:
            self._decision_order.append(seq)
            if len(self._decision_order) > DECISION_CACHE:
                self._decisions.pop(self._decision_order.popleft(), None)
        self._decisions[seq] = decision

    def _send_decided(self, replica_id: int, seq: int) -> None:
        """Answer a late proposal with the authoritative decision."""
        address = self.sibling_addresses.get(replica_id)
        if address is None:
            return
        self.host.node.send_packet(Packet(
            src=self.host.address, dst=address,
            protocol=f"coord-decided.{self.vm_name}",
            payload=("decided", seq, self._decisions[seq]), size=32))

    def _on_decided(self, packet: Packet) -> None:
        _, seq, decision = packet.payload
        if seq in self._decisions:
            return
        agreement = self._agreements.pop(seq, None)
        self._agreement_born.pop(seq, None)
        buffered = self._packets.pop(seq, None)
        self._remember_decision(seq, decision)
        self.sim.trace.record(self.sim.now, "recovery.adopted_decision",
                              vm=self.vm_name, replica=self.replica_id,
                              seq=seq, had_packet=buffered is not None,
                              had_agreement=agreement is not None)
        self.sim.flows.flow_annotate(self.vm_name, seq, source="decided")
        self.vmm.commit_network_delivery(seq, decision, buffered)

    # ------------------------------------------------------------------
    # pacing
    # ------------------------------------------------------------------
    def report_progress(self, boundary: int) -> None:
        self.sender.multicast(("progress", self.replica_id, boundary))

    def can_proceed(self, boundary: int) -> bool:
        """True unless this replica is too far ahead of its live siblings.

        Requires at least ``floor(live/2)`` live siblings within
        ``lead_boundaries`` -- which keeps the median replica close to the
        fastest, bounding the spread Δn must absorb.  Dead siblings'
        stale progress is excluded, so a crash cannot stall the
        survivors' pacing forever.
        """
        need = self.live_expected // 2
        if need == 0:
            return True
        progress = self.sibling_progress
        progresses = sorted((progress[rid]
                             for rid, ok in self.live.items() if ok),
                            reverse=True)
        if not progresses:
            return True
        reference = progresses[min(need, len(progresses)) - 1]
        return boundary - reference <= self.lead_boundaries

    def wait_progress(self):
        """A waitable triggered by the next progress report received."""
        event = self.sim.event()
        self._progress_waiters.append(event)
        return event

    def _wake_progress_waiters(self) -> None:
        waiters = self._progress_waiters
        if not waiters:
            return
        self._progress_waiters = []
        for event in waiters:
            if not event.triggered:
                event.trigger()

    # ------------------------------------------------------------------
    # epoch resynchronisation
    # ------------------------------------------------------------------
    def broadcast_epoch_sample(self, k: int, sample: EpochSample) -> None:
        self.sender.multicast(("epoch", k, sample.replica_id,
                               sample.duration, sample.real_time))
        self._store_epoch(k, sample)

    def _store_epoch(self, k: int, sample: EpochSample) -> None:
        if k < self._epoch_floor:
            return  # stragglers for an epoch already resynchronised
        bucket = self._epoch_samples.setdefault(k, {})
        bucket[sample.replica_id] = sample
        if len(bucket) >= self.live_expected:
            for event in self._epoch_waiters.pop(k, []):
                if not event.triggered:
                    event.trigger()

    def epoch_ready(self, k: int) -> bool:
        if k < self._epoch_floor:
            return True
        return len(self._epoch_samples.get(k, {})) >= self.live_expected

    def epoch_samples(self, k: int) -> List[EpochSample]:
        self._epoch_floor = max(self._epoch_floor, k + 1)
        bucket = self._epoch_samples.pop(k, {})
        return [bucket[rid] for rid in sorted(bucket)]

    def wait_epoch(self, k: int):
        event = self.sim.event()
        self._epoch_waiters.setdefault(k, []).append(event)
        return event

    # ------------------------------------------------------------------
    # failure detection
    # ------------------------------------------------------------------
    def _start_detection(self) -> None:
        if self._detection_running:
            return
        self._detection_running = True
        config = self.vmm.config
        # both recurring timers ride the simulation-wide timer wheel: a
        # fleet's in-phase heartbeats share one kernel entry per cycle
        # instead of one per replica (same fire times as the old
        # call_after chains: heartbeat after one interval, the liveness
        # sweep after one suspicion window, both every interval after)
        wheel = self.sim.shared_wheel(config.heartbeat_interval)
        wheel.add(self._heartbeat)
        wheel.add(self._check_liveness, phase=config.suspicion_timeout)

    def _detection_alive(self) -> bool:
        if self.vmm.failed or not self.host.alive:
            self._detection_running = False
            return False
        return True

    def _heartbeat(self):
        if not self._detection_alive():
            return False   # unregister from the wheel
        self.sender.multicast(("heartbeat", self.replica_id), data_len=16)
        return None

    def _check_liveness(self):
        if not self._detection_alive():
            return False   # unregister from the wheel
        timeout = self.vmm.config.suspicion_timeout
        for rid in sorted(self.live):
            if self.live[rid] and \
                    self.sim.now - self.last_heard[rid] > timeout:
                self._suspect(rid, reason="timeout")
        return None

    def _on_stream_loss(self, replica_id: int, pgm_seq: int) -> None:
        """NAK repair of one of ``replica_id``'s datagrams failed for
        good: the message (e.g. a proposal) is unrecoverable.  Counted,
        traced, and fed to the suspicion path -- an unrepairable stream
        is the strongest failure evidence short of silence."""
        self.stream_losses[replica_id] += 1
        self.sim.metrics.incr("fault.pgm_losses")
        self.sim.trace.record(self.sim.now, "fault.pgm_loss",
                              vm=self.vm_name, observer=self.replica_id,
                              replica=replica_id, seq=pgm_seq)
        if self.detection_enabled and self.live.get(replica_id, False):
            self._suspect(replica_id, reason="pgm_loss")

    def _suspect(self, replica_id: int, reason: str) -> None:
        if not self.live.get(replica_id, False):
            return
        self.live[replica_id] = False
        self.sim.metrics.incr("fault.suspicions")
        self.sim.trace.record(self.sim.now, "fault.suspect",
                              vm=self.vm_name, observer=self.replica_id,
                              replica=replica_id, reason=reason)
        if self.on_suspect is not None:
            self.on_suspect(replica_id)
        self._reevaluate_view()

    def _mark_rejoined(self, replica_id: int,
                       floor: Optional[int] = None) -> None:
        if self.live.get(replica_id, True):
            return
        self.live[replica_id] = True
        self.last_heard[replica_id] = self.sim.now
        self.sim.metrics.incr("recovery.rejoins_seen")
        self.sim.trace.record(self.sim.now, "recovery.rejoin",
                              vm=self.vm_name, observer=self.replica_id,
                              replica=replica_id)
        if floor is not None and self._catchup_pusher(replica_id):
            self.sim.call_after(self.vmm.config.rejoin_catchup_delay,
                                self._push_decisions, replica_id, floor)
        if self.on_rejoin is not None:
            self.on_rejoin(replica_id)
        self._reevaluate_view()

    def _catchup_pusher(self, rejoiner: int) -> bool:
        """Exactly one live sibling owns the catch-up push: the lowest
        id among those each observer believes alive (including itself).
        Split views can elect two pushers; duplicates dedupe at the
        receiver, so that costs packets, not correctness."""
        live_ids = [self.replica_id] + [
            rid for rid, ok in self.live.items()
            if ok and rid != rejoiner]
        return self.replica_id == min(live_ids)

    def _push_decisions(self, replica_id: int, floor: int) -> None:
        """Backstop for a rejoined replica's unrepairable gaps: unicast
        every cached decision at or above its replay horizon.  Runs
        after the NAK repair window, so anything the lossless path
        already delivered is ignored by the receiver's decision cache."""
        if self.vmm.failed or not self.host.alive:
            return
        if not self.live.get(replica_id, False):
            return  # re-suspected before the push fired
        pending = sorted(seq for seq in self._decisions if seq >= floor)
        if not pending:
            return
        self.sim.metrics.incr("heal.catchup_pushes")
        self.sim.trace.record(self.sim.now, "heal.catchup",
                              vm=self.vm_name, observer=self.replica_id,
                              replica=replica_id, floor=floor,
                              count=len(pending))
        for seq in pending:
            self._send_decided(replica_id, seq)

    def announce_rejoin(self, floor: Optional[int] = None) -> None:
        """Called on a recovered replica once its state is rebuilt: tell
        the siblings, reset our own (stale) view, restart detection.
        ``floor`` is the replay horizon (first ingress seq this replica
        has not executed); advertising it lets a sibling push decisions
        the rejoiner can no longer receive first-hand."""
        for rid in self.live:
            self.live[rid] = True
            self.last_heard[rid] = self.sim.now
        if floor is None:
            self.sender.multicast(("rejoin", self.replica_id))
        else:
            self.sender.multicast(("rejoin", self.replica_id, floor))
        if self.detection_enabled:
            self._start_detection()

    def _reevaluate_view(self) -> None:
        """Group membership changed: retarget open agreements to the new
        live count, re-check epoch readiness, and wake pacing waiters so
        stalled engines recompute against the live set."""
        need = self.live_expected
        for seq in sorted(self._agreements):
            agreement = self._agreements.get(seq)
            if agreement is not None and agreement.retarget(need):
                self._commit(seq, agreement)
        for k in sorted(self._epoch_waiters):
            if len(self._epoch_samples.get(k, {})) >= need:
                for event in self._epoch_waiters.pop(k, []):
                    if not event.triggered:
                        event.trigger()
        self._wake_progress_waiters()

    # ------------------------------------------------------------------
    # stale-agreement sweeping
    # ------------------------------------------------------------------
    def _schedule_agreement_sweep(self) -> None:
        if self._sweep_scheduled:
            return
        self._sweep_scheduled = True
        self.sim.call_after(self.vmm.config.stale_agreement_timeout,
                            self._sweep_agreements)

    def _sweep_agreements(self) -> None:
        self._sweep_scheduled = False
        if self.vmm.failed:
            return
        cutoff = self.sim.now - self.vmm.config.stale_agreement_timeout
        stale = sorted(seq for seq, born in self._agreement_born.items()
                       if born <= cutoff)
        for seq in stale:
            self._agreements.pop(seq, None)
            self._agreement_born.pop(seq, None)
            packet = self._packets.pop(seq, None)
            self.sim.metrics.incr("fault.stale_agreements")
            self.sim.trace.record(self.sim.now, "fault.stale_agreement",
                                  vm=self.vm_name, replica=self.replica_id,
                                  seq=seq, had_packet=packet is not None)
            # keep FIFO injection moving: skip the slot (divergence is
            # traced by the VMM if the packet existed but went nowhere)
            decision = self.vmm.last_exit_virt \
                + self.vmm.config.delta_net
            self._remember_decision(seq, decision)
            self.sim.flows.flow_annotate(self.vm_name, seq, swept=True)
            self.vmm.commit_network_delivery(seq, decision, packet)
        if self._agreements:
            self._schedule_agreement_sweep()

    # ------------------------------------------------------------------
    # inbound dispatch
    # ------------------------------------------------------------------
    def _on_message(self, sender_id: int, message) -> None:
        self.last_heard[sender_id] = self.sim.now
        kind = message[0]
        if kind == "proposal":
            _, pkt_seq, replica_id, proposed_virt = message
            if pkt_seq in self._decisions:
                self._send_decided(sender_id, pkt_seq)
                return
            self._feed(pkt_seq, replica_id, proposed_virt)
        elif kind == "progress":
            _, replica_id, boundary = message
            if boundary > self.sibling_progress.get(replica_id, -1):
                self.sibling_progress[replica_id] = boundary
            self._wake_progress_waiters()
        elif kind == "epoch":
            _, k, replica_id, duration, real_time = message
            self._store_epoch(k, EpochSample(replica_id, duration,
                                             real_time))
        elif kind == "heartbeat":
            pass  # the last_heard update above is the whole point
        elif kind == "rejoin":
            replica_id = message[1]
            floor = message[2] if len(message) > 2 else None
            self._mark_rejoined(replica_id, floor)
        else:
            raise ValueError(f"unknown coordination message kind {kind!r}")
