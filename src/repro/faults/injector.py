"""The fault injector: arms a :class:`FaultSchedule` against a cloud.

Every fault is applied through a public seam of the layer it targets --
``Host.fail``/``restore``, ``Network.isolate``, ``Link.degrade``,
``PgmSender.drop_next``, ``Dom0Executor.inject_stall`` -- so injection
exercises exactly the code paths real failures would.  All injections
are traced (``fault.inject``) and counted, and the whole campaign is
deterministic: the schedule is data and the hooks draw no randomness of
their own.
"""

from typing import Dict, Optional, Tuple

from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.faults.recovery import RecoveryError, rejoin_replica
from repro.vmm.replay import ExecutionRecorder


class InjectionError(RuntimeError):
    """A fault's target could not be resolved against the cloud."""


class FaultInjector:
    """Applies a fault schedule to a :class:`~repro.cloud.fabric.Cloud`."""

    def __init__(self, cloud, schedule: FaultSchedule):
        self.cloud = cloud
        self.sim = cloud.sim
        self.schedule = schedule
        self.applied = []
        self._armed = False
        self._link_originals: Dict[Tuple[Optional[str], str], tuple] = {}
        self._attach_recorders()

    def _attach_recorders(self) -> None:
        """Give every mediated replica an injection-schedule recorder, so
        any of them can serve as a recovery source later."""
        for vm in self.cloud.vms.values():
            for rid, vmm in enumerate(vm.vmms):
                if vmm.coordination is not None and rid not in vm.recorders:
                    vm.recorders[rid] = ExecutionRecorder(vmm)

    def arm(self) -> None:
        """Schedule every fault event on the simulator clock."""
        if self._armed:
            raise InjectionError("injector already armed")
        self._armed = True
        for event in self.schedule:
            self.sim.call_at(event.time, self._apply, event)

    # ------------------------------------------------------------------
    # target resolution
    # ------------------------------------------------------------------
    def _replica_target(self, event: FaultEvent):
        vm_name, sep, rid_text = event.target.rpartition(":")
        if not sep or not rid_text.isdigit():
            raise InjectionError(
                f"{event.fault} target must be '<vm>:<replica>': "
                f"{event.target!r}")
        vm = self.cloud.vms.get(vm_name)
        if vm is None:
            raise InjectionError(f"unknown VM {vm_name!r}")
        replica_id = int(rid_text)
        if not 0 <= replica_id < len(vm.vmms):
            raise InjectionError(
                f"{vm_name} has no replica {replica_id}")
        return vm, replica_id

    def _host_target(self, event: FaultEvent):
        text = event.target
        host_id = text[len("host:"):] if text.startswith("host:") else text
        if not host_id.isdigit() or int(host_id) >= len(self.cloud.hosts):
            raise InjectionError(
                f"{event.fault} target must name a host: {event.target!r}")
        return self.cloud.hosts[int(host_id)]

    def _link_target(self, event: FaultEvent):
        src, sep, dst = event.target.partition("->")
        if not sep or not dst:
            raise InjectionError(
                f"{event.fault} target must be '<src>-><dst>': "
                f"{event.target!r}")
        src_addr = src or None
        return (src_addr, dst), self.cloud.network.link_for(src_addr, dst)

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        self.sim.trace.record(self.sim.now, "fault.inject",
                              fault=event.fault, target=event.target,
                              **event.params)
        handler = getattr(self, f"_do_{event.fault}")
        handler(event)
        self.applied.append(event)

    def _noop(self, event: FaultEvent, reason: str) -> None:
        """A randomized storm produced an overlapping or redundant
        event (crash of an already-dead replica, heal of a healthy
        host, ...): trace it and keep the campaign running instead of
        tearing the whole run down mid-flight."""
        self.sim.trace.record(self.sim.now, "fault.noop",
                              fault=event.fault, target=event.target,
                              reason=reason)

    def _do_crash_replica(self, event: FaultEvent) -> None:
        vm, replica_id = self._replica_target(event)
        host = self.cloud.host_for(vm.name, replica_id)
        if not host.alive:
            return self._noop(event, "host already down")
        host.fail()

    def _do_crash_host(self, event: FaultEvent) -> None:
        """Permanent machine loss: the host is condemned (never
        restored) and the healer, if armed, evacuates its replicas."""
        host = self._host_target(event)
        if host.condemned:
            return self._noop(event, "host already condemned")
        self.sim.trace.record(self.sim.now, "fault.condemn",
                              host=host.host_id)
        host.condemn()
        healer = getattr(self.cloud, "healer", None)
        if healer is not None:
            healer.host_condemned(host)

    def _do_restart_replica(self, event: FaultEvent) -> None:
        vm, replica_id = self._replica_target(event)
        vmm = vm.vmms[replica_id]
        if not vmm.failed:
            # never actually crashed (e.g. schedule beyond run end)
            return self._noop(event, "replica is live")
        try:
            rejoin_replica(self.cloud, vm.name, replica_id)
        except RecoveryError as exc:
            # e.g. condemned host or no survivor yet -- the healer's
            # retry loop owns those cases
            return self._noop(event, str(exc))

    def _do_partition_host(self, event: FaultEvent) -> None:
        host = self._host_target(event)
        if self.cloud.network.is_isolated(host.address):
            return self._noop(event, "host already partitioned")
        self.sim.trace.record(self.sim.now, "fault.partition",
                              host=host.host_id)
        self.cloud.network.isolate(host.address)

    def _do_heal_host(self, event: FaultEvent) -> None:
        host = self._host_target(event)
        if host.condemned:
            return self._noop(event, "host is condemned")
        if not self.cloud.network.is_isolated(host.address):
            return self._noop(event, "host was never partitioned")
        if not host.alive:
            return self._noop(event, "host crashed, not partitioned")
        self.sim.trace.record(self.sim.now, "recovery.heal",
                              host=host.host_id)
        self.cloud.network.restore(host.address)

    def _do_degrade_link(self, event: FaultEvent) -> None:
        key, link = self._link_target(event)
        if key not in self._link_originals:
            self._link_originals[key] = (link.loss, link.latency,
                                         link.jitter)
        link.degrade(loss=event.params.get("loss"),
                     latency=event.params.get("latency"),
                     jitter=event.params.get("jitter"))

    def _do_restore_link(self, event: FaultEvent) -> None:
        key, link = self._link_target(event)
        original = self._link_originals.pop(key, None)
        if original is None:
            return self._noop(event, "link was never degraded")
        loss, latency, jitter = original
        link.degrade(loss=loss, latency=latency, jitter=jitter)
        link.restore()

    def _do_drop_proposals(self, event: FaultEvent) -> None:
        vm, replica_id = self._replica_target(event)
        vmm = vm.vmms[replica_id]
        coordination = vmm.coordination
        if coordination is None:
            raise InjectionError(
                f"{vm.name} r{replica_id} is not mediated; it has no "
                f"coordination channel to drop from")
        if vmm.failed:
            return self._noop(event, "replica is down")
        coordination.sender.drop_next(event.params.get("count", 1),
                                      purge=event.params.get("purge", True))

    def _do_delay_dom0(self, event: FaultEvent) -> None:
        host = self._host_target(event)
        if not host.alive:
            return self._noop(event, "host is down")
        host.dom0.inject_stall(event.params.get("duration", 0.01))

    # -- edge (ingress/egress shard) faults ----------------------------
    def _edge_target(self, event: FaultEvent):
        """Resolve ``"ingress:<vm>"``/``"egress:<vm>"`` to the edge node
        serving that VM's shard."""
        side, sep, vm_name = event.target.partition(":")
        if not sep or side not in ("ingress", "egress"):
            raise InjectionError(
                f"{event.fault} target must be 'ingress:<vm>' or "
                f"'egress:<vm>': {event.target!r}")
        if vm_name not in self.cloud.vms:
            raise InjectionError(f"unknown VM {vm_name!r}")
        if side == "ingress":
            return self.cloud.ingress_for(vm_name)
        return self.cloud.egress_for(vm_name)

    def _do_partition_edge(self, event: FaultEvent) -> None:
        node = self._edge_target(event)
        if self.cloud.network.is_isolated(node.address):
            return self._noop(event, "edge already partitioned")
        self.sim.trace.record(self.sim.now, "fault.partition_edge",
                              address=node.address)
        self.cloud.network.isolate(node.address)

    def _do_heal_edge(self, event: FaultEvent) -> None:
        node = self._edge_target(event)
        if not self.cloud.network.is_isolated(node.address):
            return self._noop(event, "edge was never partitioned")
        self.sim.trace.record(self.sim.now, "recovery.heal_edge",
                              address=node.address)
        self.cloud.network.restore(node.address)

    def __repr__(self) -> str:
        return (f"<FaultInjector events={len(self.schedule)} "
                f"applied={len(self.applied)}>")
