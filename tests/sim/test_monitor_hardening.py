"""Trace-store hardening: overlapping prefix selection, non-JSON
payloads, and crash-safe (atomic) file writes."""

import json
import os

import pytest

from repro.sim.monitor import JsonlSink, Trace, TraceRecord, _record_to_json


class TestOverlappingPrefixes:
    """Selecting with dotted prefixes that nest ("vmm" contains
    "vmm.inject") must yield each record exactly once, in seq order."""

    CATEGORIES = ("vmm", "vmm.inject", "vmm.inject.net",
                  "vmm.inject.disk", "vmm.emit", "vmm.injector")

    def _trace(self):
        trace = Trace()
        for i, category in enumerate(self.CATEGORIES * 3):
            trace.record(float(i), category, i=i)
        return trace

    def test_parent_prefix_includes_children_exactly_once(self):
        trace = self._trace()
        records = trace.select("vmm")
        assert len(records) == len(self.CATEGORIES) * 3
        assert len({r.seq for r in records}) == len(records)
        assert [r.seq for r in records] == sorted(r.seq for r in records)

    def test_child_prefix_excludes_parent_and_lookalikes(self):
        trace = self._trace()
        records = trace.select("vmm.inject")
        categories = {r.category for r in records}
        assert categories == {"vmm.inject", "vmm.inject.net",
                              "vmm.inject.disk"}
        assert len(records) == 9
        assert [r.seq for r in records] == sorted(r.seq for r in records)

    def test_nested_selections_are_consistent_subsets(self):
        trace = self._trace()
        parent = {r.seq for r in trace.select("vmm")}
        child = {r.seq for r in trace.select("vmm.inject")}
        grandchild = {r.seq for r in trace.select("vmm.inject.net")}
        assert grandchild < child < parent
        # child + its complement within the parent partition exactly
        rest = {r.seq for r in trace.select("vmm")
                if not r.category.startswith("vmm.inject.")
                and r.category != "vmm.inject"}
        assert child | rest == parent and not (child & rest)


class TestJsonHardening:
    def test_non_string_dict_keys_survive(self):
        record = TraceRecord(1.0, "vmm", {"per_replica": {0: 1.5, 1: 2.5}},
                             seq=3)
        doc = json.loads(_record_to_json(record))
        assert doc["payload"]["per_replica"] == {"0": 1.5, "1": 2.5}
        assert doc["seq"] == 3

    def test_arbitrary_objects_fall_back_to_str(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        record = TraceRecord(1.0, "vmm", {"obj": Opaque(),
                                          "many": {Opaque(): Opaque()}},
                             seq=0)
        doc = json.loads(_record_to_json(record))
        assert doc["payload"]["obj"] == "<opaque>"
        assert doc["payload"]["many"] == {"<opaque>": "<opaque>"}

    def test_sets_and_cycles_do_not_crash_the_export(self, tmp_path):
        trace = Trace()
        loop = {}
        loop["self"] = loop
        trace.record(0.0, "vmm", members={1, 2}, loop=loop)
        path = os.path.join(tmp_path, "out.jsonl")
        assert trace.export(path) == 1
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.loads(fh.read())
        assert sorted(doc["payload"]["members"]) == [1, 2]
        assert "self" in doc["payload"]["loop"]

    def test_sink_streams_hardened_records(self, tmp_path):
        trace = Trace()
        path = os.path.join(tmp_path, "stream.jsonl")
        with JsonlSink(path, trace) as sink:
            trace.record(0.0, "vmm", decision={0: 1.0})
        assert sink.written == 1
        with open(path, "r", encoding="utf-8") as fh:
            assert json.loads(fh.readline())["payload"]["decision"] == {
                "0": 1.0}


class TestAtomicWrites:
    def test_export_replaces_not_truncates(self, tmp_path):
        path = os.path.join(tmp_path, "trace.jsonl")
        trace = Trace()
        trace.record(0.0, "vmm", i=0)
        trace.export(path)
        trace.record(1.0, "vmm", i=1)
        assert trace.export(path) == 2
        assert len(open(path, encoding="utf-8").readlines()) == 2
        assert os.listdir(tmp_path) == ["trace.jsonl"]  # no tmp stragglers

    def test_sink_destination_appears_only_on_close(self, tmp_path):
        trace = Trace()
        path = os.path.join(tmp_path, "run.jsonl")
        sink = JsonlSink(path, trace)
        trace.record(0.0, "vmm", i=0)
        assert not os.path.exists(path)          # still streaming to tmp
        assert any(name.endswith(".tmp") for name in os.listdir(tmp_path))
        sink.close()
        assert os.path.exists(path)
        assert os.listdir(tmp_path) == ["run.jsonl"]
        assert json.loads(open(path, encoding="utf-8").readline())[
            "payload"]["i"] == 0

    def test_sink_close_is_idempotent(self, tmp_path):
        trace = Trace()
        path = os.path.join(tmp_path, "run.jsonl")
        sink = JsonlSink(path, trace)
        sink.close()
        sink.close()
        assert os.path.exists(path)

    def _previous(self, tmp_path):
        path = os.path.join(tmp_path, "run.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("previous\n")
        return path

    def test_failed_with_block_keeps_the_previous_destination(self,
                                                              tmp_path):
        path = self._previous(tmp_path)
        trace = Trace()
        with pytest.raises(RuntimeError):
            with JsonlSink(path, trace) as sink:
                trace.record(0.0, "vmm", i=0)
                raise RuntimeError("the run died")
        assert sink.written == 1
        assert open(path, encoding="utf-8").read() == "previous\n"
        assert os.listdir(tmp_path) == ["run.jsonl"]   # no tmp stragglers
        trace.record(1.0, "vmm", i=1)                 # unsubscribed
        assert sink.written == 1

    def test_failed_observed_run_keeps_the_previous_destination(
            self, tmp_path, monkeypatch):
        from repro.analysis.observe import run_observed_workload
        from repro.cloud.fabric import Cloud

        run = Cloud.run

        def dies(self, until):
            run(self, until=0.3)
            raise RuntimeError("the run died")

        monkeypatch.setattr(Cloud, "run", dies)
        path = self._previous(tmp_path)
        with pytest.raises(RuntimeError, match="the run died"):
            run_observed_workload(duration=1.0, jsonl_path=path)
        assert open(path, encoding="utf-8").read() == "previous\n"
        assert os.listdir(tmp_path) == ["run.jsonl"]
