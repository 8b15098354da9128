"""Pluggable timing-mitigation policies.

StopWatch's claim (DSN 2013) is that 3-replica median timing beats the
alternatives on the leakage-vs-overhead frontier -- but the original
mediation logic was hardwired into the hypervisor and egress layers, so
the reproduction could only measure one point on that frontier.  This
module extracts the decision points into a :class:`MitigationPolicy`
interface the hypervisor (:mod:`repro.vmm.hypervisor`), fabric
(:mod:`repro.cloud.fabric`) and egress (:mod:`repro.cloud.egress`) call
instead of embedding median logic, with four implementations:

``stopwatch``
    The paper's mechanism, extracted verbatim: 3 replicas, network
    interrupts proposed at ``last_exit_virt + delta_net`` and delivered
    at the replicas' median, disk at ``request_virt + delta_disk``,
    egress release on the median copy.  Byte-identical to the
    pre-extraction pipeline (the regression gate in
    ``tests/mitigation/test_byte_identity.py`` pins this).

``deterland``
    Deterministic batching in the style of Deterland (Wu & Ford):
    a single replica whose I/O events are quantised onto virtual-time
    mitigation-interval boundaries, and whose egress releases are
    quantised onto real-time boundaries.  All delays are pure functions
    of (event time, interval), so the policy adds no randomness.

``uniform-noise``
    The paper's Sec. II noise-injection baseline: a single replica that
    delays each guest-visible event and each egress release by an
    independent U(0, bound) draw from seeded per-VM RNG streams
    (the analytics for choosing ``bound`` live in
    :mod:`repro.stats.noise`).

``none``
    Passthrough control: one replica, immediate injection, direct
    output -- the unmodified-Xen baseline.

A VM's policy is the only thing that decides how it is mediated; the
:class:`StopWatchConfig` supplies the numbers (replica count, Δn, Δd,
...) and, through :func:`default_policy`, the policy of a VM that names
none: ``stopwatch`` when ``replicas > 1``, ``none`` at ``replicas == 1``.

Hook contract (all hooks must be deterministic given the simulator's
seeded RNG registry; none may keep mutable per-call state on the policy
object itself, because one instance may serve many VMs):

- ``replica_count(config)``: replicas deployed per guest VM.
- ``coordinated``: whether replicas run median agreement (the fabric
  wires a coordination group only for a coordinated multi-replica VM;
  a VMM without one takes the local-injection path).
- ``egress``: whether the VM's output leaves through the egress node,
  which holds each packet for its release quorum and ``release_delay``
  (``False`` sends it directly, as unmodified Xen does).
- ``inbound_delivery_virt(vmm)`` / ``immediate_injection``: delivery
  virtual time for a locally-injected inbound packet, and whether the
  engine is poked mid-quantum (baseline behaviour) or left to deliver
  at the next natural VM exit.
- ``network_proposal_virt(vmm)``: this replica's proposed delivery
  virtual time under coordination (stopwatch only).
- ``disk_delivery_virt(vmm, request_virt)`` / ``disk_poke``: disk
  interrupt schedule, and whether completion pokes the engine.
- ``timer_gate_virt(vmm, virt)``: the virtual time up to which pending
  PIT ticks are delivered at a VM exit at ``virt``.
- ``release_delay(egress, vm_name)``: extra real-time delay the egress
  node holds a quorum-complete output for (0 releases inline).
"""

import math
from typing import Dict, Optional, Type

from repro.core.config import StopWatchConfig


class PolicyError(ValueError):
    """An unknown policy name or invalid policy parameter."""


class MitigationPolicy:
    """Base class: the passthrough hook set every policy refines."""

    name = "abstract"
    #: replicas run median agreement over network delivery times
    coordinated = False
    #: locally-injected inbound packets poke the engine mid-quantum
    immediate_injection = True
    #: disk completion pokes the engine (baseline immediate injection)
    disk_poke = True
    #: guest output leaves through the egress node
    egress = False

    # -- deployment shape ---------------------------------------------
    def replica_count(self, config: StopWatchConfig) -> int:
        return 1

    # -- hypervisor hooks ---------------------------------------------
    def inbound_delivery_virt(self, vmm) -> float:
        return float("-inf")

    def network_proposal_virt(self, vmm) -> float:
        return vmm.last_exit_virt + vmm.config.delta_net

    def disk_delivery_virt(self, vmm,
                           request_virt: float) -> Optional[float]:
        return None

    def timer_gate_virt(self, vmm, virt: float) -> float:
        return virt

    # -- egress hook --------------------------------------------------
    def release_delay(self, egress, vm_name: str) -> float:
        return 0.0

    def describe(self) -> Dict[str, object]:
        return {"policy": self.name}

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class PassthroughPolicy(MitigationPolicy):
    """``none``: the unmodified-Xen control, no timing protection."""

    name = "none"


class StopWatchPolicy(MitigationPolicy):
    """``stopwatch``: the paper's 3-replica median mediation, extracted.

    Every hook reproduces the arithmetic the hypervisor used before the
    extraction, so a cloud running this policy is byte-identical to
    previous releases.
    """

    name = "stopwatch"
    coordinated = True
    egress = True
    #: an uncoordinated stopwatch VMM (single replica, or a unit test
    #: without a coordination group) falls back to baseline local
    #: injection, exactly as the pre-extraction code did
    immediate_injection = True
    disk_poke = False

    def replica_count(self, config: StopWatchConfig) -> int:
        return config.replicas

    def disk_delivery_virt(self, vmm, request_virt: float) -> float:
        return request_virt + vmm.config.delta_disk


class DeterlandPolicy(MitigationPolicy):
    """``deterland``: single-replica deterministic batching.

    Guest-visible events land on the next virtual-time boundary of
    ``interval``; egress releases land on the next real-time boundary
    of ``release_interval`` (defaults to ``interval``).  Disk delivery
    is quantised from ``request_virt + delta_disk`` -- the same
    worst-case access bound StopWatch uses -- so the data is in the
    buffer by the boundary and completion time itself never leaks.
    """

    name = "deterland"
    immediate_injection = False
    disk_poke = False
    egress = True

    def __init__(self, interval: float = 0.005,
                 release_interval: Optional[float] = None):
        if interval <= 0:
            raise PolicyError(
                f"deterland interval must be positive, got {interval}")
        if release_interval is not None and release_interval <= 0:
            raise PolicyError(
                f"deterland release_interval must be positive, "
                f"got {release_interval}")
        self.interval = interval
        self.release_interval = (release_interval
                                 if release_interval is not None
                                 else interval)

    @staticmethod
    def _next_boundary(time: float, interval: float) -> float:
        return (math.floor(time / interval) + 1) * interval

    def inbound_delivery_virt(self, vmm) -> float:
        return self._next_boundary(vmm.current_virt(), self.interval)

    def disk_delivery_virt(self, vmm, request_virt: float) -> float:
        return self._next_boundary(request_virt + vmm.config.delta_disk,
                                   self.interval)

    def timer_gate_virt(self, vmm, virt: float) -> float:
        return math.floor(virt / self.interval) * self.interval

    def release_delay(self, egress, vm_name: str) -> float:
        now = egress.sim.now
        return self._next_boundary(now, self.release_interval) - now

    def describe(self) -> Dict[str, object]:
        return {"policy": self.name, "interval": self.interval,
                "release_interval": self.release_interval}


class UniformNoisePolicy(MitigationPolicy):
    """``uniform-noise``: single replica, each event delayed U(0, bound).

    Draws come from named per-VM streams of the simulator's seeded RNG
    registry, so same-seed runs are byte-identical and adding a noisy
    VM never perturbs any other component's draws.  Note the known
    weakness the paper exploits (and :mod:`repro.stats.noise`
    quantifies): noise bounds the *added* delay, not the contention the
    event timing already carries, so small bounds leak.
    """

    name = "uniform-noise"
    immediate_injection = False
    disk_poke = False
    egress = True

    def __init__(self, bound: float = 0.010):
        if bound <= 0:
            raise PolicyError(
                f"noise bound must be positive, got {bound}")
        self.bound = bound

    def _draw(self, sim, name: str) -> float:
        return sim.rng.stream(name).uniform(0.0, self.bound)

    def inbound_delivery_virt(self, vmm) -> float:
        noise = self._draw(vmm.sim, f"mitigation.noise.{vmm.vm_name}"
                                    f".r{vmm.replica_id}.net")
        return vmm.current_virt() + noise

    def disk_delivery_virt(self, vmm, request_virt: float) -> float:
        noise = self._draw(vmm.sim, f"mitigation.noise.{vmm.vm_name}"
                                    f".r{vmm.replica_id}.disk")
        return request_virt + noise

    def release_delay(self, egress, vm_name: str) -> float:
        return self._draw(egress.sim,
                          f"mitigation.noise.{vm_name}.egress")

    def describe(self) -> Dict[str, object]:
        return {"policy": self.name, "bound": self.bound}


#: every registered policy, instantiable by name
POLICIES: Dict[str, Type[MitigationPolicy]] = {
    StopWatchPolicy.name: StopWatchPolicy,
    DeterlandPolicy.name: DeterlandPolicy,
    UniformNoisePolicy.name: UniformNoisePolicy,
    PassthroughPolicy.name: PassthroughPolicy,
}


def make_policy(name: str, **params) -> MitigationPolicy:
    """Instantiate a registered policy by name with keyword params."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise PolicyError(
            f"unknown mitigation policy {name!r}; "
            f"choose one of {sorted(POLICIES)}") from None
    try:
        return cls(**params)
    except TypeError as exc:
        raise PolicyError(f"bad params for policy {name!r}: {exc}") \
            from exc


def default_policy(config: StopWatchConfig) -> MitigationPolicy:
    """The policy of a VM that names none: StopWatch's replicated
    median when the config deploys more than one replica, the
    unmodified-Xen passthrough when it deploys one."""
    return StopWatchPolicy() if config.replicas > 1 \
        else PassthroughPolicy()


def resolve_policy(policy, config: StopWatchConfig) -> MitigationPolicy:
    """Normalise a policy argument: ``None`` derives the config's
    default, a string instantiates by name, an instance passes through.
    """
    if policy is None:
        return default_policy(config)
    if isinstance(policy, str):
        return make_policy(policy)
    if not isinstance(policy, MitigationPolicy):
        raise PolicyError(
            f"policy must be None, a name, or a MitigationPolicy; "
            f"got {policy!r}")
    return policy
