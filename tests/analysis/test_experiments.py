"""Tests for the experiment runners and report formatting."""

import hashlib
import json
import math

import pytest

from repro.analysis import (
    PARSEC_PAPER_VALUES,
    aggregation_ablation,
    delta_offset_translation,
    fig4_empirical_detection,
    fig1_median_cdfs,
    fig1_observation_curves,
    fig5_file_download,
    fig6_nfs,
    fig7_parsec,
    fig8_noise_comparison,
    format_table,
    placement_utilization,
    summarize,
)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"],
                            [["a", 1.5], ["longer", 12345.678]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]
        assert "12,346" in lines[3]

    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats["count"] == 3
        assert stats["mean"] == 2.0
        assert stats["min"] == 1.0
        assert stats["max"] == 3.0
        assert stats["p50"] == 2.0
        assert stats["p99"] == 3.0
        assert summarize([])["count"] == 0
        assert summarize([])["p95"] == 0.0

    def test_summarize_percentiles_exact(self):
        values = [float(i) for i in range(1, 101)]
        stats = summarize(values)
        assert stats["p50"] == 50.0
        assert stats["p95"] == 95.0
        assert stats["p99"] == 99.0


class TestFig1:
    def test_cdf_rows_monotone_and_ordered(self):
        rows = fig1_median_cdfs()
        for x, base, victim, med3, med2v in rows:
            assert 0.0 <= med3 <= 1.0
            # heavier-tailed victim -> smaller CDF everywhere
            assert victim <= base + 1e-12

    def test_median_distributions_closer_than_originals(self):
        rows = fig1_median_cdfs()
        gap_direct = max(abs(b - v) for _, b, v, _, _ in rows)
        gap_median = max(abs(m3 - m2) for _, _, _, m3, m2 in rows)
        assert gap_median < gap_direct

    def test_observation_curves_order(self):
        rows = fig1_observation_curves(victim_rate=0.5,
                                       confidences=(0.7, 0.9, 0.99))
        for confidence, without_sw, with_sw in rows:
            assert with_sw > without_sw

    def test_fig1c_needs_more_than_fig1b(self):
        near = fig1_observation_curves(victim_rate=10.0 / 11.0,
                                       confidences=(0.9,))
        far = fig1_observation_curves(victim_rate=0.5,
                                      confidences=(0.9,))
        assert near[0][1] > 10 * far[0][1]
        assert near[0][2] > 10 * far[0][2]


class TestFig8:
    def test_table_and_curve_shapes(self):
        result = fig8_noise_comparison(confidences=(0.7, 0.9))
        assert len(result["table"]) == 2
        bounds = [p.noise_bound for p in result["curve"]]
        assert bounds == sorted(bounds)
        # scaling claim: noise cost grows ~linearly with the target
        assert bounds[-1] > 5 * bounds[0]


class TestPlacement:
    def test_rows_beat_isolation(self):
        rows = placement_utilization(points=((9, 4), (33, 16)))
        for n, c, sw, isolation, bound, theta in rows:
            assert sw > isolation
            assert sw <= bound
            assert sw >= 0.9 * theta


class TestSimulatorBackedRunners:
    """Smoke runs with tiny parameters (full runs live in benchmarks/)."""

    def test_fig5_smoke(self):
        rows = fig5_file_download(sizes=(20_000,), trials=1)
        (size, http_base, http_sw, udp_base, udp_sw) = rows[0]
        assert size == 20_000
        assert http_sw > http_base > 0
        assert not math.isnan(udp_sw)

    def test_fig6_smoke(self):
        rows = fig6_nfs(rates=(50,), duration=3.0)
        rate, base_lat, sw_lat, c2s, s2c, base_c2s = rows[0]
        assert sw_lat > base_lat > 0
        assert c2s > 0 and s2c > 0

    def test_fig7_smoke(self):
        rows = fig7_parsec(kernels=("streamcluster",), scale=0.2)
        name, base_t, sw_t, ints, paper_base, paper_sw, paper_ints = rows[0]
        assert name == "streamcluster"
        assert sw_t > base_t > 0
        assert PARSEC_PAPER_VALUES["streamcluster"][2] == paper_ints

    def test_delta_offsets_in_paper_range(self):
        result = delta_offset_translation(duration=6.0)
        net = result["net_delays"]
        disk = result["disk_delays"]
        assert len(net) > 20
        assert len(disk) > 10
        mean_net = sum(net) / len(net)
        mean_disk = sum(disk) / len(disk)
        # paper: Δn ~ 7-12 ms, Δd ~ 8-15 ms of real time
        assert 0.006 < mean_net < 0.016
        assert 0.007 < mean_disk < 0.018


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


class TestRecordedOutputs:
    """Exact outputs recorded when Fig. 4 and its ablation ran through
    their own cloud builder and the offsets through their own trace
    reader; the shared drivers must reproduce them bit for bit."""

    def test_fig4_samples(self):
        result = fig4_empirical_detection(duration=2.0, seed=7)
        sw, base = result["stopwatch"], result["baseline"]
        assert _sha256([[sw.samples_absent, sw.samples_present],
                        [base.samples_absent, base.samples_present]]) == \
            "0250f73285e290ec94a463def925cbfb6687e83e828ea8426b3c77c145efb594"

    def test_leader_aggregation_ablation(self):
        assert aggregation_ablation(aggregations=("leader",), duration=2.0,
                                    seed=7) == [("leader", 410)]

    def test_delta_offsets(self):
        result = delta_offset_translation(duration=2.0, seed=5)
        assert len(result["net_delays"]) == 140
        assert len(result["disk_delays"]) == 38
        assert _sha256([result["net_delays"], result["disk_delays"]]) == \
            "914e3e4b4b5eebd5468744210ec88cccffd77122dc9d1250ec5ef9ef2b5b1298"
