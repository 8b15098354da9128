"""End-to-end fault tolerance (the PR's acceptance criteria).

One replica's host crashes mid-run while an external client keeps
pinging the replicated VM.  The cloud must keep serving on the degraded
2-of-3 quorum, the crashed replica must rejoin through replay of the
survivors' recorded injection schedule, and -- because faults are part
of the seeded schedule -- two identically-seeded runs must produce
bit-identical fault/recovery/release trace sequences.
"""

from repro.analysis.chaos import (chaos_signature, default_schedule,
                                  determinism_check, run_chaos_experiment,
                                  service_summary)
from repro.faults import FaultSchedule


def run_default(seed=7):
    return run_chaos_experiment(seed=seed, duration=3.0,
                                schedule=default_schedule(
                                    crash_at=0.9, restart_at=2.0,
                                    replica=2))


class TestCrashMidRun:
    def setup_method(self):
        self.result = run_default()
        self.summary = service_summary(self.result)

    def test_cloud_keeps_serving_through_the_outage(self):
        assert self.summary["replies_during_outage"] > 0
        assert self.summary["replies_after_recovery"] > 0
        # every ping answered: the crash cost latency, never service
        assert self.summary["replies"] == self.summary["sent"]

    def test_survivors_suspect_and_degrade(self):
        sim = self.result["sim"]
        suspects = list(sim.trace.iter_records("fault.suspect"))
        assert {r.payload["observer"] for r in suspects} == {0, 1}
        assert sim.trace.count("fault.degraded_agreement") > 0
        degraded = list(sim.trace.iter_records("egress.degraded"))
        assert degraded and degraded[0].payload["live"] == 2

    def test_egress_releases_on_degraded_quorum_without_leaking(self):
        egress = self.result["cloud"].egress
        assert self.summary["released"] > 0
        assert egress.pending_releases == 0

    def test_replica_rejoins_via_replay(self):
        sim = self.result["sim"]
        vm = self.result["vm"]
        (replay,) = sim.trace.iter_records("recovery.replay")
        assert replay.payload["replica"] == 2
        assert replay.payload["source"] in (0, 1)
        (adopt,) = sim.trace.iter_records("recovery.adopt")
        assert adopt.payload["replica"] == 2
        rejoins = list(sim.trace.iter_records("recovery.rejoin"))
        assert {r.payload["observer"] for r in rejoins} == {0, 1}
        assert not vm.vmms[2].failed
        # survivors see the rejoined replica as live again
        for survivor in (vm.vmms[0], vm.vmms[1]):
            assert survivor.coordination.live[2] is True

    def test_determinism_reasserted_after_rejoin(self):
        """The recovered replica produces the same output stream as the
        survivors: identical output counts at egress, no divergence."""
        vm = self.result["vm"]
        outputs = {vmm.stats["outputs"] for vmm in vm.vmms}
        assert len(outputs) == 1


class TestSeededDeterminism:
    def test_same_seed_identical_fault_and_release_sequences(self):
        check = determinism_check(seed=7, duration=3.0)
        assert check["identical"], check["divergence"]
        assert check["records"] > 50

    def test_different_seeds_diverge(self):
        first = run_chaos_experiment(seed=7, duration=2.0)
        second = run_chaos_experiment(seed=8, duration=2.0)
        assert chaos_signature(first["sim"].trace) != \
            chaos_signature(second["sim"].trace)


class TestSeededCampaign:
    def test_generated_schedule_runs_deterministically(self):
        """A randomly generated (but seeded) fault campaign is just as
        reproducible as the hand-written one."""
        schedule = FaultSchedule.seeded(
            21, duration=2.0, replica_targets=["echo:0", "echo:1",
                                               "echo:2"],
            rate=1.5, recovery_delay=0.4)
        check = determinism_check(seed=5, duration=2.5, schedule=schedule)
        assert check["identical"], check["divergence"]
