"""Tests for the fleet-scale sweep runner."""

from repro.campaign import resolve_runner
from repro.analysis.scale import (
    build_scale_spec,
    run_scale_cell,
    scale_sweep,
)


class TestScaleCell:
    def test_cell_reports_and_verifies(self):
        spec = build_scale_spec(4, request_rate=30.0)
        row = run_scale_cell(spec, duration=1.5, seed=5)
        assert row["tenants"] == 4
        assert row["machines"] == 9
        assert row["placement_verified"] is True
        assert row["outputs_consistent"] is True
        assert row["packets_released"] > 0
        assert row["mediated_flows"] > 0
        # mediation delay must at least cover delta_net (10 ms DEFAULT)
        assert row["mediation_p50"] > 0.010
        assert row["mediation_p95"] >= row["mediation_p50"]
        assert len(row["egress_signature"]) == 64

    def test_same_seed_same_signature(self):
        spec = build_scale_spec(2, request_rate=30.0)
        a = run_scale_cell(spec, duration=1.0, seed=9)
        b = run_scale_cell(build_scale_spec(2, request_rate=30.0),
                           duration=1.0, seed=9)
        assert a["egress_signature"] == b["egress_signature"]
        assert a["per_tenant_outputs"] == b["per_tenant_outputs"]

    def test_different_seed_different_signature(self):
        a = run_scale_cell(build_scale_spec(2), duration=1.0, seed=1)
        b = run_scale_cell(build_scale_spec(2), duration=1.0, seed=2)
        assert a["egress_signature"] != b["egress_signature"]

    def test_sharded_cell(self):
        spec = build_scale_spec(4, shards=2, request_rate=30.0)
        row = run_scale_cell(spec, duration=1.0, seed=5)
        assert row["shards"] == 2
        assert row["placement_verified"] is True
        assert row["outputs_consistent"] is True


class TestScaleSweep:
    def test_sweep_rows(self):
        rows = scale_sweep(tenant_counts=(1, 4), duration=1.0, seed=5,
                           request_rate=30.0)
        assert [row["tenants"] for row in rows] == [1, 4]
        assert rows[0]["machines"] == 3
        assert rows[1]["machines"] == 9
        assert all(row["events_per_second"] > 0 for row in rows)

    def test_registered_as_campaign_runner(self):
        assert resolve_runner("scale_sweep") is scale_sweep
