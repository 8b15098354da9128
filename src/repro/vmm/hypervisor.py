"""One replica's hypervisor: the execution engine and device models.

The engine runs the guest in branch-count quanta.  VM exits caused by
guest execution happen every ``exit_interval_branches`` branches; those
exits are the **only** points where interrupts are injected (Sec. IV-B),
which quantises all guest-visible event timing onto the guest's own
progress -- exactly the paper's mechanism.

Interrupt sources and their delivery disciplines (Sec. IV-V):

- PIT timer: injected on the virtual-time schedule ``k / pit_hz``.
- Disk/DMA: delivery at ``request_virt + Δd``; the physical access is
  started immediately and must finish by then (violations are counted).
- Network: the VMM proposes ``last_exit_virt + Δn``, the replicas'
  median is adopted, delivery happens at the first guest-execution exit
  whose virtual time passes the median.  A median that already passed
  marks a divergence (synchrony violation, Sec. V-A footnote 4).

With ``config.mediate = False`` the same engine models unmodified Xen:
one replica, interrupts delivered as soon as the device model finishes
(the engine is poked mid-quantum so baseline latency is not quantised),
guest outputs sent directly.
"""

from collections import deque
from typing import Callable, Optional

from repro.core.config import StopWatchConfig
from repro.core.virtual_time import EpochSample, VirtualClock
from repro.machine.guest import GuestOS
from repro.mitigation import MitigationPolicy, default_policy
from repro.net.packet import Packet, ReplicaEnvelope
from repro.sim.errors import ProcessFailed

#: resume value that cuts the engine's current quantum short
_INTERRUPT = object()


class _NetInjection:
    __slots__ = ("seq", "packet", "delivery_virt")

    def __init__(self, seq, packet, delivery_virt):
        self.seq = seq
        self.packet = packet
        self.delivery_virt = delivery_virt


class _DiskInjection:
    __slots__ = ("request_id", "delivery_virt", "callback", "args", "ready",
                 "flow")

    def __init__(self, request_id, delivery_virt, callback, args,
                 flow=None):
        self.request_id = request_id
        self.delivery_virt = delivery_virt
        self.callback = callback
        self.args = args
        self.ready = False
        self.flow = flow


class ReplicaVMM:
    """The hypervisor instance for one replica of one guest VM."""

    def __init__(self, sim, host, vm_name: str, replica_id: int,
                 config: StopWatchConfig, workload_rng,
                 egress_address: str = "egress",
                 policy: Optional[MitigationPolicy] = None):
        self.sim = sim
        self.host = host
        self.vm_name = vm_name
        self.vm_address = f"vm:{vm_name}"
        self.replica_id = replica_id
        self.config = config
        # injection/release timing discipline; the default derives from
        # the config so pre-subsystem callers behave identically
        self.policy = policy if policy is not None \
            else default_policy(config)
        self.egress_address = egress_address
        self.clock = VirtualClock(
            start=0.0, slope=config.initial_slope,
            slope_range=config.slope_range,
            epoch_instructions=config.epoch_instructions,
        )
        self.instr = 0
        self.last_exit_virt = 0.0
        self.guest = GuestOS(self, workload_rng)
        self.coordination = None  # wired by the cloud fabric when replicated

        # injection state
        self._pending_net = {}
        self._net_seq_baseline = 0          # local seq counter (baseline)
        self._next_net_delivery_seq = 0
        self._net_commit_floor = 0.0        # FIFO clamp on delivery times
        self._net_suppress_floor = 0        # seqs below this came via replay
        self._pending_disk = deque()

        # timer state
        self._next_pit_virt = config.pit_period_virtual
        self.pit_ticks = 0

        # output state
        self._out_seq = 0

        # engine state
        self.running = False
        self.failed = False
        self._engine_gen = None
        self._engine_proc = None    # Event triggered when the engine ends
        self._quantum = None        # the sleeping quantum's kernel entry
        self._parked_on = None      # the barrier Event the engine waits on
        self._sleeping = False
        self._epoch_start_real = 0.0
        self._spb = 1.0 / config.base_branch_rate

        # optional observation hooks (used by the record/replay facility)
        self.on_net_delivery = None    # fn(seq, instr, packet)
        self.on_disk_delivery = None   # fn(request_id, instr)
        self.on_tick = None            # fn(tick_index, instr)
        self.on_output = None          # fn(seq, instr, packet)
        self.on_epoch = None           # fn(epoch_index, samples)

        self.stats = {
            "vm_exits": 0,
            "net_interrupts": 0,
            "disk_interrupts": 0,
            "timer_interrupts": 0,
            "divergences": 0,
            "delta_d_waits": 0,
            "pacing_stalls": 0,
            "pacing_stall_time": 0.0,
            "outputs": 0,
            "skipped_deliveries": 0,
        }
        host.attach_vmm(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.running:
            return
        self._halt()    # stopped mid-quantum and not yet woken
        self.running = True
        self._epoch_start_real = self.sim.now
        self._engine_gen = self._engine()
        self._engine_proc = self.sim.event()
        self._parked_on = None
        self.sim.call_soon(self._step)

    def stop(self) -> None:
        self.running = False

    def fail(self) -> None:
        """Simulate the replica host dying: the engine halts mid-quantum
        and the device model stops observing packets and making
        proposals.  Without failure detection the siblings' median
        agreements for subsequent packets can then never complete -- the
        availability cost Sec. V-A's recovery footnote addresses; with
        ``config.failure_detection`` the siblings degrade to the live
        quorum and this replica can later be rebuilt from their
        injection schedule (:func:`repro.faults.recovery.rejoin_replica`).
        """
        if self.failed:
            return
        self.failed = True
        self.stop()
        self.sim.trace.record(self.sim.now, "fault.vmm_down",
                              vm=self.vm_name, replica=self.replica_id,
                              instr=self.instr)
        self._halt()

    def _halt(self) -> None:
        """End a sleeping engine where it is, with no final VM exit and
        no resume left queued for a restarted engine to receive."""
        if self._sleeping:
            self._sleeping = False
            self._quantum.cancel()
            self._engine_gen.close()
            self._engine_proc.trigger()

    @property
    def engine_failure(self) -> Optional[ProcessFailed]:
        """The :class:`ProcessFailed` the current engine ended with (guest
        code raised), or None.  Unrelated to :attr:`failed`, which means
        the host crashed."""
        ended = self._engine_proc
        if ended is None or ended.ok:
            return None
        return ended.value

    # ------------------------------------------------------------------
    # guest-facing API (called synchronously from guest events)
    # ------------------------------------------------------------------
    def current_virt(self) -> float:
        return self.clock.time_at(self.instr)

    def notify_guest_event(self) -> None:
        # Guest events are only created while the engine is awake (guest
        # code runs inside engine steps), so no poke is needed; the engine
        # recomputes its next target after every step.
        pass

    def guest_output(self, packet: Packet) -> None:
        """Guest emitted a packet at the current instruction count."""
        seq = self._out_seq
        self._out_seq += 1
        self.stats["outputs"] += 1
        if self.on_output is not None:
            self.on_output(seq, self.instr, packet)
        self.host.dom0.submit(self.config.dom0_output_cost,
                              self._emit_output, seq, packet,
                              self.guest.current_flow())

    def _emit_output(self, seq: int, packet: Packet,
                     flow: Optional[int] = None) -> None:
        self.sim.trace.record(self.sim.now, "vmm.emit", vm=self.vm_name,
                              replica=self.replica_id, seq=seq)
        self.sim.flows.output_emitted(self.sim.now, self.vm_name, seq,
                                      self.replica_id, flow)
        if self.config.egress_enabled:
            envelope = ReplicaEnvelope(vm=self.vm_name, direction="out",
                                       seq=seq, inner=packet,
                                       replica_id=self.replica_id)
            self.host.node.send_packet(Packet(
                src=self.host.address, dst=self.egress_address,
                protocol="replica-out", payload=envelope,
                size=envelope.wire_size(),
            ))
        else:
            self.host.node.network.send(packet)

    def request_disk(self, blocks: int, fn: Callable, args: tuple,
                     write: bool) -> None:
        """Guest issued a disk/DMA request at the current virtual time."""
        request_virt = self.current_virt()
        delivery_virt = self.policy.disk_delivery_virt(self, request_virt)
        request_id = len(self._pending_disk) + self.stats["disk_interrupts"]
        injection = _DiskInjection(request_id, delivery_virt, fn, args,
                                   flow=self.guest.current_flow())
        self.sim.trace.record(self.sim.now, "vmm.disk.request",
                              vm=self.vm_name, replica=self.replica_id,
                              req=request_id, write=write)
        self._pending_disk.append(injection)
        self.host.dom0.submit(self.config.dom0_disk_cost,
                              self._start_disk_access, blocks, injection)

    def _start_disk_access(self, blocks: int,
                           injection: _DiskInjection) -> None:
        self.host.disk.request(blocks, self._disk_ready, injection)

    def _disk_ready(self, injection: _DiskInjection) -> None:
        injection.ready = True
        if self.policy.disk_poke:
            self._poke()

    # ------------------------------------------------------------------
    # inbound network path (called by the host device model / fabric)
    # ------------------------------------------------------------------
    def observe_inbound(self, seq: Optional[int], packet: Packet) -> None:
        """The dom0 device model finished processing an inbound packet.

        Under StopWatch ``seq`` is the ingress-assigned sequence number;
        under the baseline it is ignored and a local counter is used.
        """
        if self.failed:
            return
        if seq is not None and seq < self._net_suppress_floor:
            # NAK recovery re-delivered an inbound packet this replica
            # already incorporated through replay-based rejoin
            self.sim.trace.record(self.sim.now, "recovery.suppress",
                                  vm=self.vm_name, replica=self.replica_id,
                                  seq=seq)
            return
        if not self.policy.coordinated or self.coordination is None:
            local_seq = self._net_seq_baseline
            self._net_seq_baseline += 1
            self._pending_net[local_seq] = _NetInjection(
                local_seq, packet,
                self.policy.inbound_delivery_virt(self))
            if self.policy.immediate_injection:
                self._poke()
            return
        proposal = self.policy.network_proposal_virt(self)
        self.sim.trace.record(self.sim.now, "vmm.propose", vm=self.vm_name,
                              replica=self.replica_id, seq=seq,
                              proposal=proposal)
        self.sim.flows.packet_observed(self.sim.now, self.vm_name, seq,
                                       self.replica_id, proposal=proposal)
        self.coordination.local_proposal(seq, packet, proposal)

    def commit_network_delivery(self, seq: int, median_virt: float,
                                packet: Optional[Packet]) -> None:
        """The median proposal for packet ``seq`` was decided.

        ``packet`` may be ``None`` when the group decided a slot this
        replica never observed (ingress loss, or a stale agreement swept
        under degraded operation): the slot is *skipped* at delivery
        time so FIFO injection keeps moving.
        """
        if seq < self._next_net_delivery_seq:
            return  # late decision for a slot already delivered/skipped
        self.sim.flows.decision_committed(self.sim.now, self.vm_name, seq,
                                          self.replica_id, median_virt)
        delivery = max(median_virt, self._net_commit_floor)
        self._net_commit_floor = delivery
        if median_virt < self.last_exit_virt:
            # the chosen median already passed here: synchrony violated
            self.stats["divergences"] += 1
            self.sim.trace.record(self.sim.now, "vmm.divergence",
                                  vm=self.vm_name, replica=self.replica_id,
                                  seq=seq)
        self._pending_net[seq] = _NetInjection(seq, packet, delivery)

    # ------------------------------------------------------------------
    # the execution engine
    # ------------------------------------------------------------------
    def _poke(self) -> None:
        """Cut the sleeping quantum short: the engine resumes now and
        takes a VM exit mid-quantum (baseline immediate injection)."""
        if self._sleeping:
            self._sleeping = False
            self._quantum.cancel()
            self.sim.call_soon(self._step, _INTERRUPT)

    def _step(self, value=None) -> None:
        """Resume the engine generator: one kernel entry per quantum
        end, poke or barrier wake."""
        try:
            self._engine_gen.send(value)
        except StopIteration:
            self._engine_proc.trigger()
        except Exception as error:  # noqa: BLE001 - fail only this replica
            self._engine_proc.fail(ProcessFailed(self, error))

    def _park(self, event) -> None:
        """Hold the engine at a barrier until ``event`` triggers."""
        self._parked_on = event
        event.add_callback(self._unpark)

    def _unpark(self, event) -> None:
        # an engine restarted after a crash must not be resumed by the
        # barrier its predecessor was parked at
        if event is self._parked_on:
            self._parked_on = None
            self._step(event)

    def _engine(self):
        config = self.config
        exit_interval = config.exit_interval_branches
        pacing_interval = config.pacing_interval_branches
        paced = config.mediate and self.coordination is not None
        # stable collaborators, bound once: this generator resumes about
        # 1e5 times per simulated second
        sim = self.sim
        guest = self.guest
        next_epoch_boundary = self.clock.next_epoch_boundary
        next_event_instr = guest.next_event_instr
        run_due_events = guest.run_due_events
        slowdown_factor = self.host.slowdown_factor
        call_at = sim.call_at
        step = self._step
        spb = self._spb
        while self.running:
            instr = self.instr
            target = ((instr // exit_interval) + 1) * exit_interval
            if paced:
                next_pace = ((instr // pacing_interval) + 1) \
                    * pacing_interval
                if next_pace < target:
                    target = next_pace
            epoch_boundary = next_epoch_boundary()
            if epoch_boundary is not None and instr < epoch_boundary \
                    and epoch_boundary < target:
                target = epoch_boundary
            guest_event = next_event_instr()
            if guest_event is not None and guest_event < target:
                target = guest_event if guest_event > instr else instr

            branches = target - instr
            if branches > 0:
                duration = branches * spb * slowdown_factor()
                started, base_instr = sim.now, instr
                self._sleeping = True
                self._quantum = call_at(started + duration, step)
                if (yield) is _INTERRUPT:
                    if not self.running:
                        return  # stopped mid-quantum: no final VM exit
                    # baseline-mode immediate injection: exit right here
                    elapsed = sim.now - started
                    fraction = 1.0
                    if duration > 0:
                        fraction = min(1.0, max(0.0, elapsed / duration))
                    self.instr = base_instr + int(branches * fraction)
                    run_due_events(self.instr)
                    self._vm_exit()
                    continue
                self._sleeping = False
                self.instr = instr = target

            run_due_events(instr)
            if instr % exit_interval == 0 and instr > 0:
                self._vm_exit()
            if paced and instr % pacing_interval == 0 and instr > 0:
                yield from self._pacing_barrier()
            if epoch_boundary is not None and instr == epoch_boundary:
                yield from self._epoch_barrier()

    # ------------------------------------------------------------------
    # VM exit processing
    # ------------------------------------------------------------------
    def _vm_exit(self) -> None:
        virt = self.clock.time_at(self.instr)
        self.last_exit_virt = virt
        self.stats["vm_exits"] += 1
        config = self.config

        if config.timer_interrupts:
            tick_gate = self.policy.timer_gate_virt(self, virt)
            while self._next_pit_virt <= tick_gate:
                self.pit_ticks += 1
                self.stats["timer_interrupts"] += 1
                if self.on_tick is not None:
                    self.on_tick(self.pit_ticks, self.instr)
                self.guest.deliver_tick(self.pit_ticks)
                self._next_pit_virt += config.pit_period_virtual

        while self._pending_disk:
            head = self._pending_disk[0]
            due = head.delivery_virt is None or head.delivery_virt <= virt
            if not due:
                break
            if not head.ready:
                # Δd too small for this access: the data is not in the
                # buffer yet; the interrupt waits for a later exit.
                self.stats["delta_d_waits"] += 1
                break
            self._pending_disk.popleft()
            self.stats["disk_interrupts"] += 1
            self.sim.trace.record(self.sim.now, "vmm.deliver.disk",
                                  vm=self.vm_name, replica=self.replica_id,
                                  req=head.request_id, virt=virt)
            if self.on_disk_delivery is not None:
                self.on_disk_delivery(head.request_id, self.instr)
            # the completion runs under the flow that issued the request,
            # so outputs it triggers stay attributed to that flow
            self.guest.set_flow(head.flow)
            try:
                head.callback(*head.args)
            finally:
                self.guest.set_flow(None)

        pending_net = self._pending_net
        while pending_net:
            injection = pending_net.get(self._next_net_delivery_seq)
            if injection is None or injection.delivery_virt > virt:
                break
            del self._pending_net[self._next_net_delivery_seq]
            self._next_net_delivery_seq += 1
            if injection.packet is None:
                # a decided-but-unobserved slot: skip it (traced; the
                # guest never sees the packet, which is a divergence
                # from replicas that did observe it)
                self.stats["skipped_deliveries"] += 1
                self.sim.trace.record(self.sim.now, "fault.skipped_delivery",
                                      vm=self.vm_name,
                                      replica=self.replica_id,
                                      seq=injection.seq, virt=virt)
                self.sim.flows.net_injected(self.sim.now, self.vm_name,
                                            injection.seq, self.replica_id,
                                            virt, skipped=True)
                continue
            self.stats["net_interrupts"] += 1
            self.sim.trace.record(self.sim.now, "vmm.deliver.net",
                                  vm=self.vm_name, replica=self.replica_id,
                                  seq=injection.seq, virt=virt)
            self.sim.flows.net_injected(self.sim.now, self.vm_name,
                                        injection.seq, self.replica_id,
                                        virt)
            if self.on_net_delivery is not None:
                self.on_net_delivery(injection.seq, self.instr,
                                     injection.packet)
            # the guest handler (and anything it schedules) runs in this
            # flow's context; mediated injections carry the ingress seq
            flow = injection.seq if self.config.mediate \
                and self.coordination is not None else None
            self.guest.set_flow(flow)
            try:
                self.guest.deliver_packet(injection.packet)
            finally:
                self.guest.set_flow(None)

    # ------------------------------------------------------------------
    # replay-based recovery
    # ------------------------------------------------------------------
    def adopt_replay(self, engine) -> None:
        """Transplant a finished :class:`~repro.vmm.replay.ReplayEngine`'s
        guest state into this (crashed) VMM.

        The engine re-executed a survivor's injection schedule, so its
        guest, virtual clock and instruction count are exactly what this
        replica's would have been had it not crashed.  Delivery state is
        reset to continue from the replayed horizon: the next expected
        ingress seq is one past the highest replayed one, and anything
        below that floor arriving late (NAK repair of pre-crash traffic)
        is suppressed.  Call :meth:`start` afterwards to resume
        execution, then ``coordination.announce_rejoin()``.
        """
        if not self.failed:
            raise RuntimeError(
                f"{self.vm_name} r{self.replica_id} is live; refusing to "
                f"overwrite its state with a replay")
        recording = engine.recording
        self.guest = engine.guest
        self.guest.vmm = self
        self.clock = engine.clock
        self.instr = engine.instr
        self.last_exit_virt = self.clock.time_at(self.instr)

        floor = 0
        if recording.net:
            floor = max(seq for seq, _, _ in recording.net) + 1
        self._pending_net = {}
        self._pending_disk.clear()
        self._net_suppress_floor = floor
        self._next_net_delivery_seq = floor
        self._net_commit_floor = self.last_exit_virt
        self._out_seq = engine._out_seq
        if recording.ticks:
            self.pit_ticks = recording.ticks[-1][0]
        self._next_pit_virt = (self.pit_ticks + 1) \
            * self.config.pit_period_virtual

        self.failed = False
        self.stats["outputs"] = self._out_seq
        self.sim.metrics.incr("recovery.adoptions")
        self.sim.trace.record(self.sim.now, "recovery.adopt",
                              vm=self.vm_name, replica=self.replica_id,
                              instr=self.instr, net_floor=floor,
                              outputs=self._out_seq)

    # ------------------------------------------------------------------
    # barriers
    # ------------------------------------------------------------------
    def _pacing_barrier(self):
        boundary = self.instr // self.config.pacing_interval_branches
        self.coordination.report_progress(boundary)
        stalled_at = None
        while self.running and not self.coordination.can_proceed(boundary):
            if stalled_at is None:
                stalled_at = self.sim.now
                self.stats["pacing_stalls"] += 1
            self._park(self.coordination.wait_progress())
            yield
        if stalled_at is not None:
            self.stats["pacing_stall_time"] += self.sim.now - stalled_at

    def _epoch_barrier(self):
        k = self.clock.epoch_index
        sample = EpochSample(self.replica_id,
                             self.sim.now - self._epoch_start_real,
                             self.sim.now)
        if self.coordination is None:
            samples = [sample]
        else:
            self.coordination.broadcast_epoch_sample(k, sample)
            while self.running and not self.coordination.epoch_ready(k):
                self._park(self.coordination.wait_epoch(k))
                yield
            if not self.running:
                return
            samples = self.coordination.epoch_samples(k)
        if self.on_epoch is not None:
            self.on_epoch(k, samples)
        self.clock.apply_epoch_resync(samples)
        self._epoch_start_real = self.sim.now

    def __repr__(self) -> str:
        return (f"<ReplicaVMM {self.vm_name} r{self.replica_id} "
                f"instr={self.instr}>")
