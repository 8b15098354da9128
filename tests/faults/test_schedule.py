"""FaultSchedule / FaultEvent validation and generation."""

import pytest

from repro.faults import FAULT_KINDS, FaultEvent, FaultSchedule, ScheduleError


class TestFaultEvent:
    def test_valid_event(self):
        event = FaultEvent(1.0, "crash_replica", "echo:2")
        assert event.time == 1.0
        assert event.params == {}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ScheduleError):
            FaultEvent(1.0, "meteor_strike", "echo:2")

    def test_negative_time_rejected(self):
        """A negative, NaN or infinite time: the error names ``time``."""
        for time in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ScheduleError, match="time"):
                FaultEvent(time, "crash_replica", "echo:2")

    def test_empty_target_rejected(self):
        with pytest.raises(ScheduleError):
            FaultEvent(1.0, "crash_replica", "")

    def test_signature_includes_params(self):
        event = FaultEvent(1.0, "drop_proposals", "echo:0",
                           {"count": 2, "purge": True})
        assert event.signature() == (
            1.0, "drop_proposals", "echo:0",
            (("count", 2), ("purge", True)))


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule.from_entries([
            (2.0, "restart_replica", "echo:1"),
            (0.5, "crash_replica", "echo:1"),
        ])
        assert [e.fault for e in schedule] == ["crash_replica",
                                               "restart_replica"]

    def test_restart_without_crash_rejected(self):
        with pytest.raises(ScheduleError):
            FaultSchedule.from_entries([(1.0, "restart_replica", "echo:1")])

    def test_from_entries_with_params(self):
        schedule = FaultSchedule.from_entries([
            (0.3, "delay_dom0", "host:1", {"duration": 0.02}),
        ])
        assert schedule.events[0].params["duration"] == 0.02

    def test_malformed_entry_rejected(self):
        with pytest.raises(ScheduleError):
            FaultSchedule.from_entries([(1.0, "crash_replica")])

    def test_seeded_is_deterministic(self):
        kwargs = dict(duration=10.0, replica_targets=["echo:0", "echo:1"],
                      host_targets=["host:0"], rate=2.0)
        a = FaultSchedule.seeded(42, **kwargs)
        b = FaultSchedule.seeded(42, **kwargs)
        c = FaultSchedule.seeded(43, **kwargs)
        assert a.signature() == b.signature()
        assert a.signature() != c.signature()
        assert len(a) > 0

    def test_seeded_pairs_crashes_with_restarts(self):
        schedule = FaultSchedule.seeded(
            7, duration=20.0, replica_targets=["echo:0", "echo:1",
                                               "echo:2"], rate=1.0)
        crashes = [e.target for e in schedule
                   if e.fault == "crash_replica"]
        restarts = [e.target for e in schedule
                    if e.fault == "restart_replica"]
        assert sorted(crashes) == sorted(restarts)

    def test_seeded_only_emits_known_kinds(self):
        schedule = FaultSchedule.seeded(
            3, duration=15.0, replica_targets=["echo:0"],
            host_targets=["host:0"], rate=3.0)
        assert all(e.fault in FAULT_KINDS for e in schedule)
