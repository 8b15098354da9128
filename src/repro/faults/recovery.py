"""Replay-based replica recovery (Sec. V-A's recovery footnote).

A crashed replica cannot simply be rebooted: its siblings have advanced,
and StopWatch correctness requires all three replicas to be at identical
guest states for identical instruction counts.  But determinism makes
recovery exact rather than approximate -- a replica's entire execution
is captured by its injection schedule, and the survivors have been
recording theirs (:class:`~repro.vmm.replay.ExecutionRecorder`).

:func:`rejoin_replica` therefore:

1. picks a live survivor with a recording;
2. re-executes the guest offline against that schedule with a
   :class:`~repro.vmm.replay.ReplayEngine` -- every output is checked
   against the survivor's, so the determinism invariant is re-asserted,
   not assumed (a mismatch raises :class:`ReplayMismatch` and aborts
   the rejoin);
3. transplants the replayed guest into the crashed VMM
   (:meth:`~repro.vmm.hypervisor.ReplicaVMM.adopt_replay`), which also
   sets the ingress-seq floor so late NAK repairs of pre-crash traffic
   are suppressed;
4. re-seeds a recorder from the survivor's history so the rejoined
   replica is itself a valid recovery source for the *next* failure;
5. restarts the engine and announces the rejoin, restoring the full
   3-replica quorum at the coordination and egress layers.
"""

import random
from typing import Optional

from repro.vmm.replay import ExecutionRecorder, ReplayEngine


class RecoveryError(RuntimeError):
    """The replica cannot be rebuilt (no survivor, no recording, ...)."""


def pick_survivor(vm, exclude_replica: int) -> Optional[int]:
    """Lowest-id live replica with a recording, or None."""
    for rid, vmm in enumerate(vm.vmms):
        if rid == exclude_replica or vmm.failed:
            continue
        if rid in vm.recorders:
            return rid
    return None


def rejoin_replica(cloud, vm_name: str, replica_id: int) -> ReplayEngine:
    """Rebuild a crashed replica from a survivor's injection schedule.

    Returns the finished :class:`ReplayEngine` (useful for inspecting
    the replayed outputs in tests).  Raises :class:`RecoveryError` if
    the replica is not actually down or no recovery source exists, and
    :class:`~repro.vmm.replay.ReplayMismatch` if the re-execution does
    not reproduce the survivor's outputs -- determinism is verified on
    every rejoin, never assumed.
    """
    vm = cloud.vms.get(vm_name)
    if vm is None:
        raise RecoveryError(f"unknown VM {vm_name!r}")
    if not 0 <= replica_id < len(vm.vmms):
        raise RecoveryError(f"{vm_name} has no replica {replica_id}")
    vmm = vm.vmms[replica_id]
    if not vmm.failed:
        raise RecoveryError(
            f"{vm_name} r{replica_id} is not down; nothing to recover")
    if vm.workload_factory is None or vm.workload_seed is None:
        raise RecoveryError(
            f"{vm_name} has no workload factory; cannot re-execute")

    # validate every recovery precondition *before* mutating the fabric,
    # so an impossible rejoin (all replicas dead, condemned machine)
    # leaves everything resumable for a later attempt
    host = cloud.host_for(vm_name, replica_id)
    if host.condemned:
        raise RecoveryError(
            f"{vm_name} r{replica_id}: host {host.host_id} is condemned; "
            f"in-place rejoin is impossible, evacuate instead "
            f"(repro.faults.heal)")
    survivor_id = pick_survivor(vm, exclude_replica=replica_id)
    if survivor_id is None:
        raise RecoveryError(
            f"{vm_name} r{replica_id}: no live survivor with a recorded "
            f"injection schedule (a FaultInjector records only the VMs "
            f"that exist when it is built)")
    recording = vm.recorders[survivor_id].recording

    if not host.alive:
        host.restore()

    engine = ReplayEngine(recording, vm.workload_factory,
                          random.Random(vm.workload_seed))
    engine.run()  # ReplayMismatch here aborts the rejoin
    cloud.sim.trace.record(cloud.sim.now, "recovery.replay",
                           vm=vm_name, replica=replica_id,
                           source=survivor_id,
                           horizon=recording.horizon_instr,
                           outputs=len(engine.outputs))

    vmm.adopt_replay(engine)
    if replica_id < len(vm.workloads):
        vm.workloads[replica_id] = engine.workload
    # the rejoined replica inherits the survivor's history and records on
    vm.recorders[replica_id] = ExecutionRecorder(vmm, base=recording)
    vmm.start()
    if vmm.coordination is not None:
        # advertise the replay horizon: decisions at or above it that
        # NAK repair cannot recover are pushed by a live sibling after
        # config.rejoin_catchup_delay (see coordination docstring)
        vmm.coordination.announce_rejoin(floor=vmm._net_suppress_floor)
    return engine
