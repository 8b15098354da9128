"""One physical machine of the cloud."""

from typing import Optional

from repro.machine.disk import DiskModel
from repro.machine.dom0 import Dom0Executor
from repro.net.network import RealtimeNode


class HostCapacityError(RuntimeError):
    """A guest slot was requested on a machine that has none left."""


class Host:
    """A physical machine: dom0 + disk + timing-noise model + guests.

    The timing-noise model is the physical substrate of the side channel:
    a guest's effective execution speed on this host is perturbed by

    - multiplicative log-normal-ish jitter (``jitter_sigma``),
    - a contention term proportional to recent dom0 activity
      (``contention_alpha``) -- a coresident victim's I/O slows the
      attacker measurably, and
    - a static consolidation term proportional to the number of *other*
      resident guests (``coresidency_beta``) -- so CPU contention
      reflects the real placement load.  Zero by default: single-tenant
      experiments keep their historical timing byte-for-byte.

    ``capacity`` is the machine's guest-slot count (Sec. VIII's per-node
    capacity ``c``); ``None`` means unlimited.  Attaching a replica VMM
    beyond capacity raises :class:`HostCapacityError`.

    ``address`` is the machine's dom0 endpoint on the cloud-internal
    network (``host:<id>``).
    """

    def __init__(self, sim, host_id: int, network,
                 jitter_sigma: float = 0.01,
                 contention_alpha: float = 0.25,
                 disk: Optional[DiskModel] = None,
                 disk_kwargs: Optional[dict] = None,
                 capacity: Optional[int] = None,
                 coresidency_beta: float = 0.0):
        if capacity is not None and capacity < 1:
            raise ValueError(f"host capacity must be >= 1, got {capacity}")
        if coresidency_beta < 0.0:
            raise ValueError(
                f"coresidency_beta must be >= 0, got {coresidency_beta}")
        self.sim = sim
        self.host_id = host_id
        self.address = f"host:{host_id}"
        self.node = RealtimeNode(sim, network, self.address)
        self.dom0 = Dom0Executor(sim, name=f"dom0.{host_id}")
        self.disk = disk if disk is not None else DiskModel(
            sim, sim.rng.stream(f"host.{host_id}.disk"),
            name=f"disk.{host_id}", **(disk_kwargs or {}))
        self.jitter_sigma = jitter_sigma
        self.contention_alpha = contention_alpha
        self.capacity = capacity
        self.coresidency_beta = coresidency_beta
        self._noise_rng = sim.rng.stream(f"host.{host_id}.noise")
        self._gauss = self._noise_rng.gauss   # bound-method cache (hot path)
        self.vmms = []
        self.peak_residents = 0
        self.alive = True
        self.condemned = False
        self.network = network

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash this machine: every replica VMM on it halts mid-quantum
        and the dom0 endpoint is partitioned off the network (packets to
        and from it are observably dropped)."""
        if not self.alive:
            return
        self.alive = False
        self.sim.trace.record(self.sim.now, "fault.host_down",
                              host=self.host_id)
        self.network.isolate(self.address)
        for vmm in self.vmms:
            vmm.fail()

    def condemn(self) -> None:
        """Permanently decommission this machine: it crashes like
        :meth:`fail` but is never brought back -- recovery must evacuate
        its replicas onto spare capacity (see repro.faults.heal)."""
        self.condemned = True
        self.fail()

    def restore(self) -> None:
        """Power the machine back on: heal the partition.  Crashed VMMs
        stay down until explicitly recovered (see repro.faults.recovery).
        Condemned machines stay dead."""
        if self.alive or self.condemned:
            return
        self.alive = True
        self.network.restore(self.address)
        self.sim.trace.record(self.sim.now, "recovery.host_up",
                              host=self.host_id)

    # ------------------------------------------------------------------
    # guest slots
    # ------------------------------------------------------------------
    @property
    def residents(self) -> int:
        """Live guest slots in use (crashed replicas free their slot
        for accounting, matching the recovery path's in-place rebuild)."""
        return sum(1 for vmm in self.vmms if not vmm.failed)

    def slowdown_factor(self) -> float:
        """Multiplier on a guest's per-branch execution time right now.

        >= ~1.0; grows with coresident dom0 activity and (when
        ``coresidency_beta`` is set) with the number of co-resident
        guests.  Sampled per execution quantum by the VMM.
        """
        sigma = self.jitter_sigma
        jitter = 1.0
        if sigma > 0.0:
            jitter = 1.0 + self._gauss(0.0, sigma)
            if jitter < 0.5:
                jitter = 0.5
        contention = 1.0 + self.contention_alpha * self.dom0.activity_level()
        if self.coresidency_beta > 0.0:
            contention += self.coresidency_beta * max(0, self.residents - 1)
        return jitter * contention

    def attach_vmm(self, vmm) -> None:
        if self.capacity is not None and self.residents >= self.capacity:
            raise HostCapacityError(
                f"host {self.host_id} is full: {self.residents} of "
                f"{self.capacity} guest slots in use")
        self.vmms.append(vmm)
        self.peak_residents = max(self.peak_residents, self.residents)
        self.sim.trace.record(self.sim.now, "host.attach",
                              host=self.host_id, vm=vmm.vm_name,
                              replica=vmm.replica_id,
                              residents=self.residents)

    def detach_vmm(self, vmm) -> None:
        """Release a guest slot (evacuation moved the replica elsewhere)."""
        try:
            self.vmms.remove(vmm)
        except ValueError:
            return
        self.sim.trace.record(self.sim.now, "host.detach",
                              host=self.host_id, vm=vmm.vm_name,
                              replica=vmm.replica_id,
                              residents=self.residents)

    def stats(self) -> dict:
        """Placement-load and activity counters as plain data."""
        return {
            "host_id": self.host_id,
            "residents": self.residents,
            "peak_residents": self.peak_residents,
            "capacity": self.capacity,
            "alive": self.alive,
            "condemned": self.condemned,
            "dom0_busy_total": self.dom0.busy_total,
        }

    def __repr__(self) -> str:
        return f"<Host {self.host_id} guests={len(self.vmms)}>"
