"""Tests for the coresidence side channel and the covert channel.

These use reduced durations; the full-scale versions live in
``benchmarks/``.  The assertions are directional (StopWatch makes the
attack strictly and substantially harder), not absolute counts.
"""

import statistics

import pytest

from repro.attacks import run_clock_probe, run_covert_channel
from repro.stats.detection import observations_needed_from_samples


@pytest.fixture(scope="module")
def short_experiments():
    baseline = run_clock_probe("none", duration=12.0)
    stopwatch = run_clock_probe("stopwatch", duration=12.0)
    return baseline, stopwatch


class TestCoresidenceDetection:
    def test_baseline_victim_shifts_distribution(self, short_experiments):
        baseline, _ = short_experiments
        mean_victim = statistics.mean(baseline.samples_present)
        mean_control = statistics.mean(baseline.samples_absent)
        assert abs(mean_victim - mean_control) / mean_control > 0.05

    def test_stopwatch_hides_the_shift(self, short_experiments):
        _, stopwatch = short_experiments
        mean_victim = statistics.mean(stopwatch.samples_present)
        mean_control = statistics.mean(stopwatch.samples_absent)
        assert abs(mean_victim - mean_control) / mean_control < 0.02

    def test_stopwatch_needs_many_more_observations(self,
                                                    short_experiments):
        baseline, stopwatch = short_experiments
        base_curve = dict(baseline.detection_curve([0.9]))
        sw_curve = dict(stopwatch.detection_curve([0.9]))
        assert sw_curve[0.9] >= 4 * base_curve[0.9]

    def test_curves_monotone_in_confidence(self, short_experiments):
        baseline, _ = short_experiments
        curve = baseline.detection_curve([0.7, 0.9, 0.99])
        counts = [n for _, n in curve]
        assert counts == sorted(counts)

    def test_no_divergences_during_attack(self, short_experiments):
        _, stopwatch = short_experiments
        assert stopwatch.meta["divergences"] == 0


class TestObservationsFromSamples:
    def test_identical_samples_need_max_observations(self):
        samples = [0.01 * i for i in range(1, 300)]
        curve = observations_needed_from_samples(samples, samples, [0.9])
        assert curve[0][1] >= 10**6

    def test_disjoint_samples_detected_immediately(self):
        null = [1.0 + 0.001 * i for i in range(200)]
        alt = [5.0 + 0.001 * i for i in range(200)]
        curve = observations_needed_from_samples(null, alt, [0.9])
        assert curve[0][1] <= 3


class TestCovertChannel:
    def test_baseline_channel_decodes(self):
        result = run_covert_channel(mediated=False, n_bits=12)
        assert result.bit_error_rate <= 0.25

    def test_stopwatch_destroys_channel(self):
        result = run_covert_channel(mediated=True, n_bits=12)
        assert result.bit_error_rate >= 0.25

    def test_result_shape(self):
        result = run_covert_channel(mediated=False, n_bits=6)
        assert len(result.bits_sent) == 6
        assert len(result.bits_decoded) == 6
        assert set(result.bits_sent) <= {0, 1}
