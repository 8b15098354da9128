"""Self-healing: replica evacuation onto spare capacity.

The base recovery path (:func:`repro.faults.recovery.rejoin_replica`)
rebuilds a crashed replica *in place* -- useless when the machine under
it is gone for good.  A permanently failed host would leave its tenants
degraded at 2-of-3 forever, eroding both availability and the
timing-channel guarantee the median construction provides (a 2-replica
median is just the pairwise max).  The :class:`EvacuationController`
closes that gap: it reacts to condemned hosts and sustained replica
suspicion by rebuilding the lost replica on a *spare* machine.

Evacuation state machine (per replica)::

    trigger (host condemned / suspicion confirmed)
      -> grace delay (a scheduled in-place restart may win the race)
      -> placement: remove the dead slot, place_at() a spare host that
         keeps the <=1-shared-host anti-affinity invariant, verify()
      -> replay a survivor's ExecutionRecording into a fresh VMM on the
         new host (strict: determinism re-asserted, not assumed)
      -> rewire: ingress PGM membership (new member subscribes at the
         replay horizon so NAK repair backfills from the retain
         buffer), survivors' coordination groups (replace_member +
         fresh stream), a fresh coordination endpoint for the new
         replica (sibling streams join at the survivors' current
         cursors -- in-flight datagrams were addressed to the dead
         host), and the old host's protocol endpoints are stripped
      -> start + announce_rejoin(floor): egress quorum restored via the
         fabric's rejoin path; a sibling pushes any decisions at or
         above the horizon that repair cannot recover

Failures (no live survivor yet, no legal spare slot) retry every
``config.heal_retry_interval`` up to ``config.heal_max_attempts`` times
before tracing ``heal.failed``.  Everything is driven off simulation
time and sorted iteration orders, so healing is fully seed-
deterministic -- same-seed storms heal byte-identically.
"""

import random
from typing import Dict, List, Optional

from repro.faults.recovery import RecoveryError, pick_survivor, \
    rejoin_replica
from repro.machine.host import Host, HostCapacityError
from repro.placement.scheduler import PlacementError
from repro.vmm.hypervisor import ReplicaVMM
from repro.vmm.replay import ExecutionRecorder, ReplayEngine


class HealError(RuntimeError):
    """One evacuation attempt failed (retried up to heal_max_attempts)."""


class EvacuationController:
    """Watches a cloud for permanently lost replicas and evacuates them.

    Registers itself as ``cloud.healer``; the fault injector notifies it
    of condemned hosts and the fabric forwards replica suspicions.
    """

    def __init__(self, cloud):
        self.cloud = cloud
        self.sim = cloud.sim
        self.config = cloud.config
        self.placer = cloud.placer
        self.evacuations: List[dict] = []
        self.failures: List[dict] = []
        #: observers called as ``fn(vm_name, replica_id, mode)`` after
        #: every completed heal (mode: skip/readmit/rejoin/evacuate) --
        #: lets workload-level repair (e.g. the storage tenant's
        #: RepairDaemon) re-verify state once the replica is back
        self.on_complete: List = []
        self._scheduled: set = set()   # (vm_name, replica_id) pending
        cloud.healer = self

    # ------------------------------------------------------------------
    # triggers
    # ------------------------------------------------------------------
    def host_condemned(self, host: Host) -> None:
        """A ``crash_host`` fault permanently decommissioned ``host``:
        schedule evacuation of every replica it carried."""
        self.sim.trace.record(self.sim.now, "heal.condemned",
                              host=host.host_id,
                              replicas=len(host.vmms))
        for vmm in sorted(host.vmms,
                          key=lambda v: (v.vm_name, v.replica_id)):
            self._schedule(vmm.vm_name, vmm.replica_id,
                           reason="condemned",
                           delay=self.config.evacuation_grace)

    def replica_suspected(self, vm_name: str, replica_id: int) -> None:
        """The fabric's failure detector fired.  Wait out the confirm
        window first: a scheduled in-place restart usually wins."""
        self._schedule(vm_name, replica_id, reason="suspicion",
                       delay=self.config.suspect_confirm)

    def _schedule(self, vm_name: str, replica_id: int, reason: str,
                  delay: float) -> None:
        key = (vm_name, replica_id)
        if key in self._scheduled:
            return
        self._scheduled.add(key)
        self.sim.call_after(delay, self._attempt, vm_name, replica_id,
                            reason, 1, self.sim.now)

    # ------------------------------------------------------------------
    # the state machine
    # ------------------------------------------------------------------
    def _attempt(self, vm_name: str, replica_id: int, reason: str,
                 attempt: int, detected_at: float) -> None:
        self._scheduled.discard((vm_name, replica_id))
        vm = self.cloud.vms.get(vm_name)
        if vm is None:
            return
        vmm = vm.vmms[replica_id]
        if not vmm.failed:
            if self._suspected_by_peers(vm, replica_id):
                # falsely condemned: the replica is alive but its
                # outbound multicasts were lost (e.g. purged
                # proposals), so the survivors wrote it off and every
                # later agreement degrades.  Re-announce it; the
                # rejoin marks it live at the peers and restores the
                # egress quorum.
                vmm.coordination.announce_rejoin()
                mode = "readmit"
            else:
                # an in-place restart (or a previous evacuation) beat us
                self.sim.trace.record(self.sim.now, "heal.skip",
                                      vm=vm_name, replica=replica_id,
                                      reason="replica live")
                return
        else:
            host = self.cloud.host_for(vm_name, replica_id)
            try:
                mode = self._revive(vm, vm_name, replica_id, host,
                                    reason, detected_at)
            except (HealError, RecoveryError) as exc:
                self._retry(vm_name, replica_id, reason, attempt,
                            detected_at, str(exc))
                return
        elapsed = self.sim.now - detected_at
        self.sim.trace.record(self.sim.now, "heal.complete",
                              vm=vm_name, replica=replica_id,
                              mode=mode, reason=reason, attempt=attempt,
                              elapsed=round(elapsed, 9))
        for listener in self.on_complete:
            listener(vm_name, replica_id, mode)

    def _suspected_by_peers(self, vm, replica_id: int) -> bool:
        """Does any live sibling's failure detector consider
        ``replica_id`` dead?"""
        for rid, sibling in enumerate(vm.vmms):
            if rid == replica_id or sibling.failed:
                continue
            coordination = sibling.coordination
            if coordination is not None \
                    and coordination.live.get(replica_id) is False:
                return True
        return False

    def _revive(self, vm, vm_name: str, replica_id: int, host,
                reason: str, detected_at: float) -> str:
        if host.alive and not host.condemned:
            # machine is fine, only the replica died: rebuild in place
            rejoin_replica(self.cloud, vm_name, replica_id)
            return "rejoin"
        self._evacuate(vm, replica_id, reason, detected_at)
        return "evacuate"

    def _retry(self, vm_name: str, replica_id: int, reason: str,
               attempt: int, detected_at: float, error: str) -> None:
        if attempt >= self.config.heal_max_attempts:
            self.sim.trace.record(self.sim.now, "heal.failed",
                                  vm=vm_name, replica=replica_id,
                                  reason=reason, attempts=attempt,
                                  error=error)
            self.failures.append({
                "time": self.sim.now, "vm": vm_name,
                "replica": replica_id, "reason": reason,
                "attempts": attempt, "error": error})
            return
        self.sim.trace.record(self.sim.now, "heal.retry",
                              vm=vm_name, replica=replica_id,
                              attempt=attempt, error=error)
        key = (vm_name, replica_id)
        self._scheduled.add(key)
        self.sim.call_after(self.config.heal_retry_interval,
                            self._attempt, vm_name, replica_id, reason,
                            attempt + 1, detected_at)

    # ------------------------------------------------------------------
    # placement churn
    # ------------------------------------------------------------------
    def _choose_host(self, vm, replica_id: int) -> int:
        """Pick the replacement machine, keeping anti-affinity legal.

        With a placer the dead slot is removed and every candidate is
        tried through ``place_at`` (so the <=1-shared-host invariant is
        checked by the scheduler itself, then re-``verify()``-ed); on
        total failure the original triangle is restored so the fleet
        state stays consistent.  Without a placer (legacy ad-hoc
        clouds), the first alive host with a free slot that carries no
        sibling is used.
        """
        survivors = sorted(h for rid, h in enumerate(vm.hosts)
                           if rid != replica_id)
        candidates = [
            host.host_id for host in self.cloud.hosts
            if host.alive and not host.condemned
            and host.host_id not in survivors
            and (host.capacity is None
                 or host.residents < host.capacity)
        ]
        candidates.sort(key=lambda hid: (
            self.placer.load_of(hid) if self.placer is not None else
            self.cloud.hosts[hid].residents, hid))
        placer = self.placer
        if placer is None or vm.name not in placer.assignments:
            if not candidates:
                raise HealError(
                    f"{vm.name} r{replica_id}: no live machine with a "
                    f"free slot off hosts {survivors}")
            return candidates[0]
        original = placer.assignments[vm.name]
        placer.remove(vm.name)
        for candidate in candidates:
            try:
                placer.place_at(vm.name,
                                sorted(survivors + [candidate]))
            except PlacementError:
                continue
            if not placer.verify():     # defence in depth; never expected
                placer.remove(vm.name)
                continue
            return candidate
        placer.place_at(vm.name, original)  # restore; stay degraded
        raise HealError(
            f"{vm.name} r{replica_id}: no spare slot preserves the "
            f"anti-affinity invariant (survivors on {survivors})")

    # ------------------------------------------------------------------
    # evacuation proper
    # ------------------------------------------------------------------
    def _evacuate(self, vm, replica_id: int, reason: str,
                  detected_at: float) -> None:
        cloud = self.cloud
        vm_name = vm.name
        if vm.workload_factory is None or vm.workload_seed is None:
            raise HealError(f"{vm_name} has no workload factory; "
                            f"cannot re-execute")
        survivor_id = pick_survivor(vm, exclude_replica=replica_id)
        if survivor_id is None:
            raise HealError(
                f"{vm_name} r{replica_id}: no live survivor with a "
                f"recorded injection schedule")
        recording = vm.recorders[survivor_id].recording

        old_host = cloud.host_for(vm_name, replica_id)
        new_host_id = self._choose_host(vm, replica_id)
        new_host = cloud.hosts[new_host_id]
        self.sim.trace.record(
            self.sim.now, "heal.placement", vm=vm_name,
            replica=replica_id, old_host=old_host.host_id,
            new_host=new_host_id,
            triangle=sorted(h for rid, h in enumerate(vm.hosts)
                            if rid != replica_id) + [new_host_id])

        # strict offline replay: determinism re-asserted before rejoin
        engine = ReplayEngine(recording, vm.workload_factory,
                              random.Random(vm.workload_seed))
        engine.run()
        self.sim.trace.record(self.sim.now, "heal.replay",
                              vm=vm_name, replica=replica_id,
                              source=survivor_id,
                              horizon=recording.horizon_instr,
                              outputs=len(engine.outputs))

        # hold admissions while the PGM membership is inconsistent
        ingress = cloud.ingress_for(vm_name)
        ingress.pause_vm(vm_name)
        try:
            new_vmm = ReplicaVMM(
                self.sim, new_host, vm_name, replica_id, cloud.config,
                workload_rng=random.Random(vm.workload_seed),
                egress_address=cloud.egresses[vm.shard].address,
                policy=vm.policy)
        except HostCapacityError as exc:
            ingress.resume_vm(vm_name)
            self._revert_placement(vm, replica_id, old_host.host_id,
                                   new_host_id)
            raise HealError(str(exc))
        new_vmm.failed = True            # adopt_replay requires a corpse
        new_vmm.adopt_replay(engine)
        floor = new_vmm._net_suppress_floor

        old_vmm = vm.vmms[replica_id]
        vm.vmms[replica_id] = new_vmm
        vm.hosts[replica_id] = new_host_id
        if replica_id < len(vm.workloads):
            vm.workloads[replica_id] = engine.workload
        vm.recorders[replica_id] = ExecutionRecorder(new_vmm,
                                                     base=recording)
        old_host.detach_vmm(old_vmm)
        self._strip_endpoints(vm_name, old_host)

        # ingress: swap the member, then join at the replay horizon so
        # the gap to the sender's cursor NAK-repairs from retained ODATA
        ingress.rewire_vm(vm_name, old_host.address, new_host.address)
        cloud.attach_ingress_receiver(vm, new_vmm, new_host,
                                      start_seq=floor)

        # coordination: every other replica (live or not -- a dead one
        # may itself rejoin later and must know the new address) learns
        # the new member; the new endpoint joins the survivors' streams
        # at their current cursors
        sibling_starts: Dict[int, int] = {}
        for rid, sibling in enumerate(vm.vmms):
            if rid == replica_id:
                continue
            coordination = sibling.coordination
            if coordination is None:
                continue
            coordination.rewire_sibling(replica_id, new_host.address)
            sibling_starts[rid] = coordination.sender.next_seq
        cloud.attach_coordination(vm, new_vmm, new_host,
                                  sibling_start_seqs=sibling_starts)
        ingress.resume_vm(vm_name)

        new_vmm.start()
        new_vmm.coordination.announce_rejoin(floor=floor)
        self.evacuations.append({
            "time": self.sim.now, "vm": vm_name, "replica": replica_id,
            "reason": reason, "old_host": old_host.host_id,
            "new_host": new_host_id, "floor": floor,
            "elapsed": self.sim.now - detected_at})

    def _revert_placement(self, vm, replica_id: int, old_host_id: int,
                          new_host_id: int) -> None:
        placer = self.placer
        if placer is None or vm.name not in placer.assignments:
            return
        survivors = sorted(h for rid, h in enumerate(vm.hosts)
                           if rid != replica_id)
        placer.remove(vm.name)
        placer.place_at(vm.name, sorted(survivors + [old_host_id]))

    def _strip_endpoints(self, vm_name: str, old_host: Host) -> None:
        """Forget the dead host's per-VM protocol handlers so the
        machine can be reused (or the VM re-evacuated) without endpoint
        collisions."""
        node = old_host.node
        for protocol in (f"pgm.ingress.{vm_name}",
                         f"pgm.coord.{vm_name}",
                         f"pgm-nak.coord.{vm_name}",
                         f"coord-decided.{vm_name}"):
            node.unregister_protocol(protocol)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Plain-data summary (campaign cells pickle this)."""
        times = sorted(e["elapsed"] for e in self.evacuations)
        return {
            "evacuations": len(self.evacuations),
            "heal_failures": len(self.failures),
            "recovery_times": times,
        }
