"""Profile export formats and their structural validators."""

import json

import pytest

from repro.prof.export import (counter_events, speedscope_document,
                               validate_speedscope,
                               validate_speedscope_file, write_speedscope)
from repro.prof.profiler import Sampler
from repro.sim.kernel import Simulator
from tests.prof.synthetic import synthetic


def sample_summary():
    """CPU in a ``sim`` function at t=0.07 s and in a function of no
    layer (``other``) at t=0.17 s; a release in each bucket."""
    sim = Simulator()
    sim.call_at(0.07, synthetic("repro.sim.synthetic")["burn"], 0.02)
    sim.call_at(0.17, synthetic("tests.prof.busy")["burn"], 0.02)
    with Sampler(sim) as sampler:
        sim.run()
    return sampler.summary(release_times=[0.06, 0.18])


class TestSpeedscope:
    def test_document_is_valid_and_weights_telescope(self):
        doc = speedscope_document(sample_summary())
        assert validate_speedscope(doc) == []
        (profile,) = doc["profiles"]
        assert profile["endValue"] > 0.0
        assert len(profile["samples"]) == len(profile["weights"]) >= 2
        # every sample opens with its layer frame
        frames = doc["shared"]["frames"]
        roots = {frames[s[0]]["name"] for s in profile["samples"]}
        assert roots == {"sim", "other"}
        assert {"repro.sim.synthetic.burn", "tests.prof.busy.burn"} \
            <= {frames[s[1]]["name"] for s in profile["samples"]}

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
        summary = sample_summary()
        events = counter_events(summary)
        counters = [e for e in events if e["ph"] == "C"]
        # one event per populated bucket on each of 2 tracks
        buckets = summary["timeline"]["buckets"]
        assert len(counters) == 2 * len(buckets)
        assert all(isinstance(e["args"]["value"], (int, float))
                   for e in counters)
        cpu = {round(e["ts"]): e["args"]["value"] for e in counters
               if e["name"] == "cpu_ms_per_bucket"}
        assert cpu[50_000] > 0.0 and cpu[150_000] > 0.0
        assert sum(cpu.values()) == pytest.approx(
            summary["total_seconds"] * 1e3)
        rel = [e["args"]["value"] for e in counters
               if e["name"] == "releases_per_sec" and e["args"]["value"]]
        assert rel == pytest.approx([20.0, 20.0])       # 1 per 0.05 s

    def test_no_timeline_means_no_events(self):
        assert counter_events({"timeline": {"bucket_width": None,
                                            "buckets": []}}) == []

    def test_counters_merge_into_a_valid_perfetto_trace(self, tmp_path):
        from repro.analysis.observe import run_observed_workload
        from repro.obs import export_perfetto, validate_file

        sim, _, _ = run_observed_workload(duration=0.5, seed=5, flows=True)
        path = str(tmp_path / "merged.json")
        export_perfetto(sim.flows.store, path,
                        extra_events=counter_events(sample_summary()))
        assert validate_file(path) == []
        doc = json.load(open(path))
        assert any(e.get("ph") == "C" for e in doc)
