"""Chrome trace-event export and the CI validation contract."""

import json
import os

import pytest

from repro.obs.flows import Span
from repro.obs.perfetto import (FABRIC_PID, export_perfetto,
                                perfetto_events, validate_file,
                                validate_perfetto)


def _spans_with_flow():
    """A completed two-span flow plus one open span (must be skipped)."""
    root = Span(0, "flow", 1.0, flow_id="echo/0", vm="echo", end=1.010)
    child = Span(1, "replicate", 1.0, flow_id="echo/0", vm="echo",
                 replica=1, parent_id=0, annotations={"critical": True},
                 end=1.002)
    agree = Span(2, "agree", 1.002, flow_id="echo/0", vm="echo",
                 replica=1, parent_id=0)
    return [root, child, agree]


class TestEventSynthesis:
    def test_replicas_become_pids_and_vms_become_tids(self):
        events = perfetto_events(_spans_with_flow())
        x = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in x] == ["flow", "replicate"]
        assert x[0]["pid"] == FABRIC_PID       # fabric-side root
        assert x[1]["pid"] == 2                # replica 1 -> pid 2
        assert x[0]["tid"] == x[1]["tid"]      # same vm, same tid
        meta = [e for e in events if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in meta}
        assert ("process_name", "fabric") in names
        assert ("process_name", "replica 1") in names
        assert ("thread_name", "vm echo") in names

    def test_timestamps_are_microseconds(self):
        x = [e for e in perfetto_events(_spans_with_flow())
             if e["ph"] == "X"]
        assert x[0]["ts"] == 1.0 * 1e6
        assert x[0]["dur"] == pytest.approx(0.010 * 1e6)

    def test_open_spans_are_skipped_and_args_carry_causality(self):
        events = perfetto_events(_spans_with_flow())
        assert all(e["name"] != "agree" for e in events)
        child = [e for e in events if e.get("name") == "replicate"][0]
        assert child["args"]["flow"] == "echo/0"
        assert child["args"]["critical"] is True
        assert "parent" in child["args"]


class TestValidator:
    def test_rejects_empty_and_durationless_traces(self):
        assert validate_perfetto([]) == ["trace is not a non-empty "
                                         "JSON array"]
        assert validate_perfetto({"not": "a list"})
        only_meta = [{"ph": "M", "name": "process_name", "pid": 0,
                      "tid": 0, "args": {"name": "fabric"}}]
        assert validate_perfetto(only_meta) == [
            "trace contains no duration (ph=X) events"]

    def test_flags_missing_fields(self):
        bad = [{"ph": "X", "name": "flow", "pid": 0, "tid": "oops",
                "ts": 0.0}]
        problems = validate_perfetto(bad)
        assert any("non-numeric 'tid'" in p for p in problems)
        assert any("non-numeric 'dur'" in p for p in problems)

    def test_flags_critical_path_that_does_not_telescope(self):
        def stage(name, dur, critical=True):
            return {"ph": "X", "name": name, "pid": 1, "tid": 0,
                    "ts": 0.0, "dur": dur,
                    "args": {"flow": "echo/0", "critical": critical}}
        root = {"ph": "X", "name": "flow", "pid": 0, "tid": 0, "ts": 0.0,
                "dur": 100.0, "args": {"flow": "echo/0"}}
        good = [root] + [stage(s, 20.0) for s in
                         ("replicate", "agree", "offset-wait", "service",
                          "quorum-wait")]
        assert validate_perfetto(good) == []
        # wrong sum
        skewed = [dict(e) for e in good]
        skewed[1] = stage("replicate", 50.0)
        assert any("sum to" in p for p in validate_perfetto(skewed))
        # wrong critical event count
        assert any("expected 5 critical" in p
                   for p in validate_perfetto(good[:-1]))

    def test_flags_traces_with_no_checkable_flow(self):
        root = {"ph": "X", "name": "flow", "pid": 0, "tid": 0, "ts": 0.0,
                "dur": 100.0, "args": {"flow": "echo/0"}}
        assert validate_perfetto([root]) == [
            "no flow had a complete critical path to check"]


class TestRealExport:
    def test_exported_workload_trace_validates(self, traced_sim, tmp_path):
        path = os.path.join(tmp_path, "spans.json")
        written = export_perfetto(traced_sim.flows.spans(), path)
        assert written > 0
        assert validate_file(path) == []
        with open(path, "r", encoding="utf-8") as fh:
            events = json.load(fh)
        assert sum(1 for e in events if e["ph"] == "X") == written
        # no temp stragglers from the atomic write
        assert os.listdir(tmp_path) == ["spans.json"]

    def test_validate_file_reports_parse_errors(self, tmp_path):
        path = os.path.join(tmp_path, "broken.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[{truncated")
        problems = validate_file(path)
        assert len(problems) == 1 and "cannot parse" in problems[0]
