"""Profile export formats and their structural validators."""

import json

import pytest

from repro.prof.export import (counter_events, speedscope_document,
                               validate_speedscope,
                               validate_speedscope_file, write_speedscope)
from repro.prof.profiler import SubsystemProfiler
from repro.sim.kernel import Simulator


def sample_summary():
    prof = SubsystemProfiler(timeline_width=0.1)
    sim = Simulator()
    prof.record(sim.stop, 0.4, 0.05, 3)
    prof.record(sorted, 0.1, 0.15, 5)
    return prof.summary(loop_seconds=0.6, total_seconds=0.8,
                        release_times=[0.06, 0.17])


class TestSpeedscope:
    def test_document_is_valid_and_weights_telescope(self):
        doc = speedscope_document(sample_summary())
        assert validate_speedscope(doc) == []
        (profile,) = doc["profiles"]
        assert profile["endValue"] == pytest.approx(0.5)
        assert len(profile["samples"]) == len(profile["weights"]) == 2
        # every sample opens with its subsystem frame
        frames = doc["shared"]["frames"]
        roots = {frames[s[0]]["name"] for s in profile["samples"]}
        assert roots == {"kernel", "other"}

    def test_validator_catches_structural_breakage(self):
        doc = speedscope_document(sample_summary())
        assert validate_speedscope({"nope": 1}) != []

        bad = json.loads(json.dumps(doc))
        bad["profiles"][0]["samples"][0] = [999]
        assert any("out of range" in p for p in validate_speedscope(bad))

        bad = json.loads(json.dumps(doc))
        bad["profiles"][0]["weights"].append(1.0)
        assert any("samples vs" in p for p in validate_speedscope(bad))

        bad = json.loads(json.dumps(doc))
        bad["profiles"][0]["endValue"] = 99.0
        assert any("spans" in p for p in validate_speedscope(bad))

    def test_file_roundtrip_and_parse_failure(self, tmp_path):
        path = str(tmp_path / "profile.speedscope.json")
        write_speedscope(path, sample_summary(), name="unit")
        assert validate_speedscope_file(path) == []
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert validate_speedscope_file(str(broken)) != []


class TestCounterEvents:
    def test_counters_follow_the_timeline(self):
        events = counter_events(sample_summary())
        counters = [e for e in events if e["ph"] == "C"]
        # 2 populated buckets x 4 tracks
        assert len(counters) == 8
        assert all(isinstance(e["args"]["value"], (int, float))
                   for e in counters)
        eps = [e for e in counters if e["name"] == "events_per_sec"]
        assert eps[0]["args"]["value"] == pytest.approx(10.0)  # 1/0.1s
        rel = [e for e in counters if e["name"] == "releases_per_sec"]
        assert rel[0]["args"]["value"] == pytest.approx(10.0)

    def test_no_timeline_means_no_events(self):
        assert counter_events({"timeline": {"bucket_width": None,
                                            "buckets": []}}) == []

    def test_counters_merge_into_a_valid_perfetto_trace(self, tmp_path):
        from repro.analysis.observe import run_observed_workload
        from repro.obs import export_perfetto, validate_file

        sim, _ = run_observed_workload(duration=0.5, seed=5, flows=True)
        path = str(tmp_path / "merged.json")
        export_perfetto(sim.flows.store, path,
                        extra_events=counter_events(sample_summary()))
        assert validate_file(path) == []
        doc = json.load(open(path))
        assert any(e.get("ph") == "C" for e in doc)
