"""Invariant gates: each family flags exactly the breakage it owns."""

from repro.cloud import Cloud
from repro.core import RESILIENT
from repro.faults import EvacuationController, FaultInjector, FaultSchedule
from repro.faults.invariants import (
    ENVELOPE_SLACK,
    Violation,
    check_all,
    check_hygiene,
    check_liveness,
    check_placement,
    disruption_envelope,
)
from repro.placement.scheduler import PlacementScheduler
from repro.sim import Simulator
from repro.workloads import EchoServer, PingClient

CONFIG = RESILIENT.with_overrides(egress_stale_timeout=0.8,
                                  stale_agreement_timeout=0.5)

LOAD_UNTIL = 3.3


def build(entries=(), seed=23, machines=5, heal=True):
    sim = Simulator(seed=seed)
    placer = PlacementScheduler(machines, 2)
    cloud = Cloud(sim, machines=machines, config=CONFIG, placer=placer)
    vm = cloud.create_vm("echo", EchoServer)
    client = cloud.add_client("client:1")
    pinger = PingClient(client, "vm:echo", local_port=9000,
                        spacing_fn=lambda rng: 0.040)
    sim.call_after(0.05, pinger.start)
    sim.call_after(LOAD_UNTIL, pinger.stop)
    if heal:
        EvacuationController(cloud)
    if entries:
        FaultInjector(cloud, FaultSchedule.from_entries(entries)).arm()
    return sim, cloud, vm, placer, {"echo.0": pinger}


class TestEnvelope:
    def test_no_faults_means_no_envelope(self):
        sim, cloud, *_ = build()
        cloud.run(until=4.0)
        assert disruption_envelope(sim.trace) is None

    def test_envelope_spans_fault_to_last_heal_plus_slack(self):
        sim, cloud, *_ = build([(0.9, "crash_host", "host:2")])
        cloud.run(until=4.0)
        start, end = disruption_envelope(sim.trace)
        assert start == 0.9
        last_heal = max(r.time for r in sim.trace.iter_records("heal"))
        assert end == last_heal + ENVELOPE_SLACK


class TestHealthyFabric:
    def test_clean_run_passes_every_family(self):
        sim, cloud, vm, placer, pingers = build()
        cloud.run(until=4.0)
        assert check_all(cloud, placer, pingers, LOAD_UNTIL) == []

    def test_healed_storm_passes_every_family(self):
        sim, cloud, vm, placer, pingers = build(
            [(0.9, "crash_host", "host:2")])
        cloud.run(until=4.0)
        assert check_all(cloud, placer, pingers, LOAD_UNTIL) == []


class TestPlacementFamily:
    def test_dead_replica_without_heal_failed_is_flagged(self):
        # no healer armed: the crash is never repaired and never
        # accounted for with a heal.failed record
        sim, cloud, vm, placer, _ = build(
            [(0.9, "crash_replica", "echo:1")], heal=False)
        cloud.run(until=4.0)
        violations = check_placement(cloud, placer)
        assert any(v.invariant == "placement"
                   and "no heal.failed" in v.detail for v in violations)

    def test_heal_failed_excuses_the_dead_replica(self):
        # 3 machines leave no spare: the healer gives up loudly, which
        # placement treats as a reported outcome rather than a leak
        sim, cloud, vm, placer, _ = build(
            [(0.9, "crash_host", "host:2")], machines=3)
        cloud.run(until=6.0)
        assert sim.trace.select("heal.failed")
        assert not any("no heal.failed" in v.detail
                       for v in check_placement(cloud, placer))

    def test_wired_fabric_must_match_scheduler_book(self):
        sim, cloud, vm, placer, _ = build()
        cloud.run(until=4.0)
        # doctor the book: pretend the scheduler thinks the triangle
        # is elsewhere
        placer.remove("echo")
        placer.place_at("echo", [0, 1, 3])
        if vm.hosts != [0, 1, 3]:
            violations = check_placement(cloud, placer)
            assert any("wired hosts" in v.detail for v in violations)


class TestLivenessFamily:
    def test_stuck_pending_release_is_flagged(self):
        sim, cloud, vm, placer, pingers = build()
        cloud.run(until=4.0)
        # doctor a stuck egress entry
        egress = cloud.egresses[0]
        egress._releases[("echo", 10 ** 9)] = object()
        violations = check_liveness(cloud, pingers, LOAD_UNTIL)
        assert any("pending_releases" in v.detail for v in violations)
        del egress._releases[("echo", 10 ** 9)]

    def test_silent_client_is_flagged(self):
        sim, cloud, vm, placer, pingers = build()
        cloud.run(until=4.0)
        replies = pingers["echo.0"].reply_times
        pingers["echo.0"].reply_times = []
        pingers["echo.0"].sent = 0
        violations = check_liveness(cloud, pingers, LOAD_UNTIL)
        assert any("never sent" in v.detail for v in violations)
        pingers["echo.0"].reply_times = replies

    def test_too_short_tail_is_flagged_not_excused(self):
        sim, cloud, vm, placer, pingers = build(
            [(0.9, "crash_host", "host:2")])
        cloud.run(until=4.0)
        _, end = disruption_envelope(sim.trace)
        violations = check_liveness(cloud, pingers,
                                    client_stop=end + 0.05)
        assert any("too short" in v.detail for v in violations)

    def test_no_replies_after_envelope_is_flagged(self):
        sim, cloud, vm, placer, pingers = build(
            [(0.9, "crash_host", "host:2")])
        cloud.run(until=4.0)
        _, end = disruption_envelope(sim.trace)
        pinger = pingers["echo.0"]
        pinger.reply_times = [t for t in pinger.reply_times if t <= end]
        violations = check_liveness(cloud, pingers, LOAD_UNTIL)
        assert any("no replies after" in v.detail for v in violations)


class TestHygieneFamily:
    def test_clean_fabric_has_no_leaks(self):
        sim, cloud, vm, placer, pingers = build()
        cloud.run(until=4.0)
        assert check_hygiene(cloud, clients=1) == []

    def test_paused_ingress_buffer_is_flagged(self):
        sim, cloud, vm, placer, _ = build()
        cloud.run(until=4.0)
        cloud.ingresses[0]._paused["echo"] = [object(), object()]
        violations = check_hygiene(cloud)
        assert any("still paused" in v.detail for v in violations)
        del cloud.ingresses[0]._paused["echo"]

    def test_stuck_agreement_is_flagged(self):
        sim, cloud, vm, placer, _ = build()
        cloud.run(until=4.0)
        coordination = vm.vmms[0].coordination
        coordination._agreements[10 ** 9] = object()
        violations = check_hygiene(cloud)
        assert any("never resolved" in v.detail for v in violations)
        del coordination._agreements[10 ** 9]

    def test_event_queue_ceiling_catches_timer_storms(self):
        sim, cloud, vm, placer, _ = build()
        cloud.run(until=4.0)
        for delay in range(200):
            sim.call_after(10.0 + delay, lambda: None)
        violations = check_hygiene(cloud, clients=1)
        assert any("event queue" in v.detail for v in violations)


class TestViolationRendering:
    def test_str_names_the_family(self):
        violation = Violation("liveness", "client starved")
        assert str(violation) == "[liveness] client starved"
