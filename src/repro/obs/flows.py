"""Per-packet causal flow tracking over the mediation pipeline.

Every packet admitted at the ingress node becomes a **flow**, identified
by the ``(vm, ingress sequence number)`` pair the
:class:`~repro.net.packet.ReplicaEnvelope` already carries end-to-end.
The pipeline components report stage transitions to the simulator-wide
:class:`FlowTracker` (``sim.flows``), which writes each boundary once,
as a per-replica timestamp on the :class:`Flow` record.  The flow also
keeps what each replica's VMM proposed, the decision it adopted and the
virtual time of its injection.  :meth:`Flow.spans` builds the flow's
:class:`Span` values from that record when something asks for them
(the Perfetto export, ``repro observe --flow``):

``replicate``
    ingress admission -> the replica VMM observes the packet (PGM
    transit plus the dom0 device-model queue).
``agree``
    observation -> the median delivery time is committed (proposal
    multicast plus the 3-replica agreement).
``offset-wait``
    commit -> the network interrupt is injected at a guest-execution
    VM exit (the Δn virtual-time offset realised in real time).
``service``
    injection -> the replica's dom0 emits the response packet the
    egress later released (guest compute, disk, output cost).
``quorum-wait``
    emission -> the egress node forwards the packet (waiting for the
    release quorum, i.e. the median of the replicas' emission times).

Because every boundary is measured on one replica -- the replica whose
copy completed the egress quorum -- the five stage durations telescope
to **exactly** the flow's end-to-end mediation delay (admission to
release), which is the invariant the critical-path analyzer and the CI
Perfetto validation both assert.

Flow attribution through asynchronous guest work (an echo reply after a
compute phase, a file chunk after a disk read) rides the guest's own
event structures: :class:`~repro.machine.guest.GuestTimer` and the
VMM's disk injections capture the flow active when they were created
and restore it when they fire -- context propagation in the X-Trace
style, with zero effect on scheduling.

Everything here is observational: hooks never schedule events, never
draw randomness, and are disabled (single predicate test per call) by
default.
"""

from typing import Any, Dict, List, Optional, Tuple

from repro.sim.monitor import MetricSet

#: the critical-path stage taxonomy, in pipeline order
STAGES = ("replicate", "agree", "offset-wait", "service", "quorum-wait")

_FlowKey = Tuple[str, int]


class Span:
    """One timed interval of a flow -- the Dapper model (PAPERS.md:
    Sigelman et al.) cut down to what a deterministic simulator needs.
    ``end`` is ``None`` while open; ``replica`` is ``None`` for the
    fabric-side flow root; ``parent_id`` links a stage to its root."""

    __slots__ = ("span_id", "parent_id", "name", "flow_id", "vm",
                 "replica", "start", "end", "annotations")

    def __init__(self, span_id: int, name: str, start: float,
                 flow_id: Optional[str] = None, vm: Optional[str] = None,
                 replica: Optional[int] = None,
                 parent_id: Optional[int] = None,
                 annotations: Optional[Dict[str, Any]] = None,
                 end: Optional[float] = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.flow_id = flow_id
        self.vm = vm
        self.replica = replica
        self.start = start
        self.end = end
        self.annotations: Dict[str, Any] = annotations or {}

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:
        state = (f"dur={self.duration:.6f}" if self.closed else "open")
        return (f"<Span #{self.span_id} {self.name} flow={self.flow_id} "
                f"r={self.replica} {state}>")


class Flow:
    """One inbound packet's journey through the mediation pipeline."""

    __slots__ = ("vm", "seq", "admitted", "replicas", "observed",
                 "proposals", "committed", "decisions", "injected",
                 "virts", "skipped", "emits", "first_emit", "released",
                 "release_replica", "released_out_seq", "releases",
                 "outputs", "out_seqs", "annotations")

    def __init__(self, vm: str, seq: int, admitted: float, replicas: int):
        self.vm = vm
        self.seq = seq
        self.admitted = admitted
        self.replicas = replicas
        #: replica -> observation time, and the delivery time it proposed
        self.observed: Dict[int, float] = {}
        self.proposals: Dict[int, Optional[float]] = {}
        #: replica -> commit time, and the delivery time it adopted
        self.committed: Dict[int, float] = {}
        self.decisions: Dict[int, float] = {}
        #: replica -> injection time, its virtual time, and whether the
        #: slot was skipped (the replica never saw the packet)
        self.injected: Dict[int, float] = {}
        self.virts: Dict[int, float] = {}
        self.skipped: Dict[int, bool] = {}
        #: (replica, out_seq) -> emission time, tracked until release
        self.emits: Dict[Tuple[int, int], float] = {}
        #: replica -> (time, out_seq) of its first attributed output
        self.first_emit: Dict[int, Tuple[float, int]] = {}
        self.released: Optional[float] = None
        self.release_replica: Optional[int] = None
        self.released_out_seq: Optional[int] = None
        self.releases = 0        # egress forwards attributed to this flow
        self.outputs = 0         # guest outputs attributed to this flow
        self.out_seqs: List[int] = []
        self.annotations: Dict[str, Any] = {}

    @property
    def key(self) -> _FlowKey:
        return (self.vm, self.seq)

    @property
    def flow_id(self) -> str:
        return f"{self.vm}/{self.seq}"

    @property
    def complete(self) -> bool:
        """Released, with every critical-path boundary measured on the
        quorum-completing replica."""
        r = self.release_replica
        return (self.released is not None and r is not None
                and r in self.observed and r in self.committed
                and r in self.injected
                and (r, self.released_out_seq) in self.emits)

    @property
    def end_to_end(self) -> Optional[float]:
        if self.released is None:
            return None
        return self.released - self.admitted

    def stage_times(self) -> Optional[Dict[str, float]]:
        """The critical-path stage durations, or ``None`` if the flow is
        not complete.  Sums exactly to :attr:`end_to_end` (telescoping
        differences of one replica's boundary timestamps)."""
        if not self.complete:
            return None
        r = self.release_replica
        emit = self.emits[(r, self.released_out_seq)]
        return {
            "replicate": self.observed[r] - self.admitted,
            "agree": self.committed[r] - self.observed[r],
            "offset-wait": self.injected[r] - self.committed[r],
            "service": emit - self.injected[r],
            "quorum-wait": self.released - emit,
        }

    def spans(self, first_id: int = 0) -> List[Span]:
        """The flow's spans, built from its record: the ``flow`` root
        (numbered ``first_id``) and then the stage spans in
        :data:`STAGES` order, one per replica that reached the stage,
        each parented on the root.

        A span is open until its closing boundary is recorded.  An
        ``agree`` span closes only if the replica observed the packet
        no later than it adopted the decision (a replica that missed
        the datagram adopts first and observes on repair); ``service``
        spans close only once the flow is released.  Once the release
        replica's emission of the released output is recorded, its
        spans carry ``critical=True`` and it gets a ``quorum-wait``
        span."""
        out_seq = self.released_out_seq
        critical = self.release_replica
        if self.released is None or (critical, out_seq) not in self.emits:
            critical = None
        root: Dict[str, Any] = {"seq": self.seq, **self.annotations}
        if self.released is not None:
            root["releases"] = 1
            if critical is not None:
                root["critical_replica"] = critical
        spans = [Span(first_id, "flow", self.admitted, self.flow_id,
                      self.vm, None, None, root, end=self.released)]

        def add(name: str, replica: int, start: float,
                end: Optional[float], **notes: Any) -> None:
            if replica == critical:
                notes["critical"] = True
            spans.append(Span(first_id + len(spans), name, start,
                              self.flow_id, self.vm, replica, first_id,
                              notes, end=end))

        for r in range(self.replicas):
            add("replicate", r, self.admitted, self.observed.get(r))
        for r, seen in sorted(self.observed.items()):
            committed = self.committed.get(r)
            if committed is not None and seen <= committed:
                add("agree", r, seen, committed,
                    proposal=self.proposals[r], decision=self.decisions[r])
            else:
                add("agree", r, seen, None, proposal=self.proposals[r])
        for r, committed in sorted(self.committed.items()):
            if r in self.injected:
                add("offset-wait", r, committed, self.injected[r],
                    decision=self.decisions[r], virt=self.virts[r],
                    skipped=self.skipped[r])
            else:
                add("offset-wait", r, committed, None,
                    decision=self.decisions[r])
        for r, injected in sorted(self.injected.items()):
            if self.skipped[r]:
                continue
            if self.released is None or r not in self.first_emit:
                add("service", r, injected, None)
            elif (r, out_seq) in self.emits:
                add("service", r, injected, self.emits[(r, out_seq)],
                    out_seq=out_seq)
            else:
                first_t, first_out = self.first_emit[r]
                add("service", r, injected, first_t, out_seq=first_out)
        if critical is not None:
            add("quorum-wait", critical, self.emits[(critical, out_seq)],
                self.released, out_seq=out_seq)
        return spans

    def __repr__(self) -> str:
        state = ("complete" if self.complete
                 else "released" if self.released is not None else "open")
        return f"<Flow {self.flow_id} {state}>"


class FlowTracker:
    """The simulator-wide flow registry (``sim.flows``).

    Off by default: every hook starts with a single ``enabled`` test, so
    the instrumented pipeline costs one predicate per event when flow
    tracking is not requested.  When enabled, hooks only write
    timestamps (and the proposal, decision and injection virtual time)
    into the flow's record -- they never touch the event queue or any
    RNG, so seeded runs are bit-identical with tracking on or off.
    Spans are not stored: :meth:`spans` builds them from the records.

    ``max_flows`` bounds retained flows, and so all tracking memory:
    admitting a flow beyond the cap evicts the oldest retained flow,
    counted in :attr:`dropped_flows` -- the same bounded-memory contract
    as :class:`~repro.sim.monitor.Trace`.
    """

    __slots__ = ("enabled", "max_flows", "flows", "dropped_flows",
                 "completed_count", "released_count", "nak_repairs",
                 "_out_index")

    def __init__(self, enabled: bool = False, max_flows: int = 65_536):
        if max_flows <= 0:
            raise ValueError(f"max_flows must be positive, got {max_flows}")
        self.enabled = enabled
        self.max_flows = max_flows
        self.flows: Dict[_FlowKey, Flow] = {}
        self.dropped_flows = 0
        self.completed_count = 0
        self.released_count = 0
        self.nak_repairs = 0
        self._out_index: Dict[Tuple[str, int], _FlowKey] = {}

    def enable(self, max_flows: Optional[int] = None) -> "FlowTracker":
        """Turn tracking on (optionally re-capping the retained flows)."""
        if max_flows is not None:
            if max_flows <= 0:
                raise ValueError(
                    f"max_flows must be positive, got {max_flows}")
            self.max_flows = max_flows
        self.enabled = True
        return self

    def _evict_oldest(self) -> None:
        key = next(iter(self.flows))
        flow = self.flows.pop(key)
        for out_seq in flow.out_seqs:
            self._out_index.pop((flow.vm, out_seq), None)
        self.dropped_flows += 1

    # ------------------------------------------------------------------
    # pipeline hooks (call sites: ingress, pgm, coordination, vmm, egress)
    # ------------------------------------------------------------------
    def flow_admitted(self, time: float, vm: str, seq: int,
                      replicas: int) -> None:
        """Ingress stamped and replicated an inbound packet."""
        if not self.enabled:
            return
        if len(self.flows) >= self.max_flows:
            self._evict_oldest()
        flow = Flow(vm, seq, time, replicas)
        self.flows[flow.key] = flow

    def repair_requested(self, time: float, group: str, seq: int) -> None:
        """A PGM receiver NAKed a gap.  For ingress replication groups
        (``ingress.<vm>``) the PGM sequence *is* the flow sequence, so
        the repair is attributed to the flow it delayed."""
        if not self.enabled:
            return
        self.nak_repairs += 1
        if not group.startswith("ingress."):
            return
        flow = self.flows.get((group[len("ingress."):], seq))
        if flow is None:
            return
        flow.annotations["naks"] = flow.annotations.get("naks", 0) + 1

    def packet_observed(self, time: float, vm: str, seq: int, replica: int,
                        proposal: Optional[float] = None) -> None:
        """A replica's dom0 finished processing the inbound packet and
        its VMM proposed a delivery time."""
        if not self.enabled:
            return
        flow = self.flows.get((vm, seq))
        if flow is None or replica in flow.observed:
            return
        flow.observed[replica] = time
        flow.proposals[replica] = proposal

    def decision_committed(self, time: float, vm: str, seq: int,
                           replica: int, decision: float) -> None:
        """The median delivery time for the packet was decided at a
        replica (agreement, cached/unicast reply, or stale sweep)."""
        if not self.enabled:
            return
        flow = self.flows.get((vm, seq))
        if flow is None or replica in flow.committed:
            return
        flow.committed[replica] = time
        flow.decisions[replica] = decision

    def net_injected(self, time: float, vm: str, seq: int, replica: int,
                     virt: float, skipped: bool = False) -> None:
        """The interrupt was injected at a VM exit (or the slot was
        skipped because this replica never saw the packet)."""
        if not self.enabled:
            return
        flow = self.flows.get((vm, seq))
        if flow is None or replica in flow.injected:
            return
        flow.injected[replica] = time
        flow.virts[replica] = virt
        flow.skipped[replica] = skipped

    def output_emitted(self, time: float, vm: str, out_seq: int,
                       replica: int, flow_seq: Optional[int]) -> None:
        """A replica's dom0 emitted a guest output attributed (via guest
        flow context) to inbound flow ``flow_seq``."""
        if not self.enabled or flow_seq is None:
            return
        flow = self.flows.get((vm, flow_seq))
        if flow is None:
            return
        flow.outputs += 1
        if flow.released is not None:
            return  # flow already complete; later chunks are just counted
        out_key = (vm, out_seq)
        if out_key not in self._out_index:
            self._out_index[out_key] = flow.key
            flow.out_seqs.append(out_seq)
        flow.emits[(replica, out_seq)] = time
        flow.first_emit.setdefault(replica, (time, out_seq))

    def output_released(self, time: float, vm: str, out_seq: int,
                        replica: Optional[int]) -> None:
        """The egress node forwarded an output.  ``replica`` is the one
        whose arrival completed the release quorum (``None`` when a
        degraded-mode retarget released it instead)."""
        if not self.enabled:
            return
        key = self._out_index.get((vm, out_seq))
        if key is None:
            return
        flow = self.flows.get(key)
        if flow is None:
            return
        self.released_count += 1
        flow.releases += 1
        if flow.released is not None:
            return  # the flow completed on an earlier output
        flow.released = time
        flow.release_replica = replica
        flow.released_out_seq = out_seq
        if flow.complete:
            self.completed_count += 1

    # ------------------------------------------------------------------
    # flow-level annotations (coordination details, degradations)
    # ------------------------------------------------------------------
    def flow_annotate(self, vm: str, seq: int, **annotations: Any) -> None:
        if not self.enabled:
            return
        flow = self.flows.get((vm, seq))
        if flow is None:
            return
        flow.annotations.update(annotations)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """Every retained flow's spans, built from the flow records;
        ids number them in flow admission order."""
        spans: List[Span] = []
        for flow in self.flows.values():
            spans.extend(flow.spans(first_id=len(spans)))
        return spans

    def completed_flows(self) -> List[Flow]:
        """Flows with a full critical path, in admission order."""
        return [flow for flow in self.flows.values() if flow.complete]

    def incomplete_count(self) -> int:
        return sum(1 for flow in self.flows.values() if not flow.complete)

    def get_flow(self, flow_id: str) -> Optional[Flow]:
        """Look a flow up by its ``vm/seq`` display id."""
        vm, _, seq = flow_id.rpartition("/")
        if not vm:
            return None
        try:
            return self.flows.get((vm, int(seq)))
        except ValueError:
            return None

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (f"<FlowTracker {state} flows={len(self.flows)} "
                f"complete={self.completed_count} "
                f"dropped={self.dropped_flows}>")


# ---------------------------------------------------------------------------
# the critical-path analyzer
# ---------------------------------------------------------------------------
def critical_path(flow: Flow) -> List[Tuple[str, float, float]]:
    """``(stage, start, end)`` segments of a completed flow's critical
    path, in pipeline order.  Segments abut: each stage starts exactly
    where the previous one ended, so their durations sum to the flow's
    end-to-end mediation delay."""
    stages = flow.stage_times()
    if stages is None:
        raise ValueError(f"flow {flow.flow_id} has no complete "
                         f"critical path")
    segments = []
    cursor = flow.admitted
    for stage in STAGES:
        end = cursor + stages[stage]
        segments.append((stage, cursor, end))
        cursor = end
    return segments


def stage_metrics(tracker: FlowTracker,
                  metrics: Optional[MetricSet] = None) -> MetricSet:
    """Feed every completed flow's stage decomposition into a
    :class:`~repro.sim.monitor.MetricSet` (seconds): one observation
    stream per stage (``flow.stage.<name>``) plus ``flow.total``, so
    ``snapshot()`` reports per-stage p50/p95/p99."""
    metrics = metrics if metrics is not None else MetricSet()
    for flow in tracker.completed_flows():
        stages = flow.stage_times()
        for stage in STAGES:
            metrics.observe(f"flow.stage.{stage}", stages[stage])
        metrics.observe("flow.total", flow.end_to_end)
        metrics.add("flow.total.seconds", flow.end_to_end)
        metrics.incr("flows.completed")
    metrics.incr("flows.tracked", len(tracker.flows))
    metrics.incr("flows.dropped", tracker.dropped_flows)
    return metrics
