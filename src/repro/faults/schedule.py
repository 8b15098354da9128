"""Declarative fault schedules.

A :class:`FaultSchedule` is a validated, time-sorted list of
:class:`FaultEvent` entries -- *what* goes wrong, *where*, and *when*.
Schedules are data: they can be written literally in tests, built from
``(time, fault, target)`` tuples, or generated pseudo-randomly from a
seed (:meth:`FaultSchedule.seeded`), which keeps chaos runs fully
deterministic -- the same seed always yields the same campaign.

Fault kinds and their target syntax:

=================  =======================  =================================
kind               target                   effect
=================  =======================  =================================
``crash_replica``  ``"<vm>:<replica>"``     the replica's host machine dies
``restart_replica``  ``"<vm>:<replica>"``   host powers on; replica rebuilt
                                            by replaying a survivor's
                                            injection schedule
``partition_host``  ``"host:<id>"``         machine partitioned off the net
``heal_host``       ``"host:<id>"``         partition healed
``crash_host``      ``"host:<id>"``         machine *condemned*: it dies
                                            permanently and (with an
                                            EvacuationController armed) its
                                            replicas are evacuated onto
                                            spare capacity
``degrade_link``    ``"<src>-><dst>"``      loss/latency/jitter raised
                                            (params: ``loss``, ``latency``,
                                            ``jitter``)
``restore_link``    ``"<src>-><dst>"``      degradation undone
``drop_proposals``  ``"<vm>:<replica>"``    next ``count`` coordination
                                            multicasts swallowed (param
                                            ``purge`` defeats NAK repair)
``delay_dom0``      ``"host:<id>"``         dom0 stalled for ``duration`` s
``partition_edge``  ``"ingress:<vm>"`` or   the edge shard serving that VM
                    ``"egress:<vm>"``       partitioned off the network
``heal_edge``       ``"ingress:<vm>"`` or   the shard's partition healed
                    ``"egress:<vm>"``
=================  =======================  =================================

The edge faults resolve through the cloud's shard routing
(``Cloud.ingress_for``/``egress_for``), so on a sharded edge they take
down exactly the shard the named VM is pinned to -- co-sharded VMs are
collateral, VMs on other shards are untouched.
"""

import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

FAULT_KINDS = (
    "crash_replica",
    "restart_replica",
    "partition_host",
    "heal_host",
    "crash_host",
    "degrade_link",
    "restore_link",
    "drop_proposals",
    "delay_dom0",
    "partition_edge",
    "heal_edge",
)


class ScheduleError(ValueError):
    """An ill-formed fault schedule."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: inject ``fault`` at ``target`` at ``time``."""

    time: float
    fault: str
    target: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.time < math.inf:
            raise ScheduleError(
                f"fault time must be a finite number >= 0: {self.time}")
        if self.fault not in FAULT_KINDS:
            raise ScheduleError(
                f"unknown fault kind {self.fault!r}; "
                f"expected one of {FAULT_KINDS}")
        if not self.target:
            raise ScheduleError(f"{self.fault} needs a target")

    def signature(self) -> Tuple:
        """Hashable identity used in determinism comparisons."""
        return (self.time, self.fault, self.target,
                tuple(sorted(self.params.items())))


class FaultSchedule:
    """A time-ordered fault campaign."""

    def __init__(self, events: Iterable[FaultEvent]):
        self.events: List[FaultEvent] = sorted(
            events, key=lambda e: (e.time, e.fault, e.target))
        crashed = set()
        for event in self.events:
            if event.fault == "crash_replica":
                crashed.add(event.target)
            elif event.fault == "restart_replica" \
                    and event.target not in crashed:
                raise ScheduleError(
                    f"restart_replica at t={event.time} targets "
                    f"{event.target!r} with no earlier crash_replica")

    @classmethod
    def from_entries(cls, entries: Sequence) -> "FaultSchedule":
        """Build from ``(time, fault, target[, params])`` tuples."""
        events = []
        for entry in entries:
            if len(entry) == 3:
                time, fault, target = entry
                params: Dict[str, Any] = {}
            elif len(entry) == 4:
                time, fault, target, params = entry
            else:
                raise ScheduleError(
                    f"entry must be (time, fault, target[, params]): "
                    f"{entry!r}")
            events.append(FaultEvent(time, fault, target, dict(params)))
        return cls(events)

    @classmethod
    def seeded(cls, seed: int, duration: float,
               replica_targets: Sequence[str],
               host_targets: Sequence[str] = (),
               rate: float = 1.0,
               recovery_delay: float = 0.5,
               crash_hosts: Sequence[str] = (),
               edge_targets: Sequence[str] = (),
               max_host_crashes: int = 1,
               edge_heal_delay: float = 0.4,
               orphan_probability: float = 0.0) -> "FaultSchedule":
        """Generate a deterministic random campaign.

        Draws fault times from a Poisson process of ``rate`` faults per
        second over ``duration``.  Every generated crash is paired with
        a restart ``recovery_delay`` later (capped to the run), so the
        campaign always exercises the recovery path, not just the
        degraded one -- unless ``orphan_probability`` kicks in, which
        leaves the crash unrestarted so a healer's sustained-suspicion
        path has something real to chew on.

        ``crash_hosts`` enables *permanent* host loss (``crash_host``,
        at most ``max_host_crashes`` per storm) and ``edge_targets``
        enables ingress/egress shard partitions, each healed
        ``edge_heal_delay`` later.  All three extensions draw from the
        RNG only when their branch is taken, so a call with the old
        argument set generates the exact event stream it always did.
        """
        if duration <= 0:
            raise ScheduleError(f"duration must be > 0: {duration}")
        if not replica_targets:
            raise ScheduleError("need at least one replica target")
        if not 0.0 <= orphan_probability <= 1.0:
            raise ScheduleError(
                f"orphan_probability must be in [0, 1]: "
                f"{orphan_probability}")
        rng = random.Random(seed)
        events: List[FaultEvent] = []
        crashed = set()
        condemned: set = set()
        t = rng.expovariate(rate)
        while t < duration:
            roll = rng.random()
            if roll < 0.4:
                candidates = [r for r in replica_targets
                              if r not in crashed]
                if candidates:
                    target = rng.choice(candidates)
                    crashed.add(target)
                    events.append(FaultEvent(t, "crash_replica", target))
                    if orphan_probability > 0.0 and \
                            rng.random() < orphan_probability:
                        pass  # orphaned: only a healer brings it back
                    else:
                        # a restart past `duration` simply never fires
                        events.append(FaultEvent(t + recovery_delay,
                                                 "restart_replica",
                                                 target))
            elif roll < 0.7:
                target = rng.choice(list(replica_targets))
                events.append(FaultEvent(
                    t, "drop_proposals", target,
                    {"count": rng.randint(1, 3), "purge": True}))
            elif roll < 0.9 and host_targets:
                target = rng.choice(list(host_targets))
                events.append(FaultEvent(
                    t, "delay_dom0", target,
                    {"duration": rng.uniform(0.005, 0.05)}))
            elif roll < 0.95 and edge_targets:
                target = rng.choice(list(edge_targets))
                events.append(FaultEvent(t, "partition_edge", target))
                events.append(FaultEvent(t + edge_heal_delay,
                                         "heal_edge", target))
            elif crash_hosts and len(condemned) < max_host_crashes:
                candidates = [h for h in crash_hosts
                              if h not in condemned]
                if candidates:
                    target = rng.choice(candidates)
                    condemned.add(target)
                    events.append(FaultEvent(t, "crash_host", target))
            t += rng.expovariate(rate)
        return cls(events)

    def signature(self) -> List[Tuple]:
        return [event.signature() for event in self.events]

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"<FaultSchedule events={len(self.events)}>"
