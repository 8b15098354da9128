"""The shared summaries in ``repro.analysis.report``: the nearest-rank
percentile and the first-divergence search behind every determinism
check."""

from types import SimpleNamespace

import repro.analysis.chaos as chaos
from repro.analysis.report import (divergence_note, first_divergence,
                                   percentile)


class TestPercentile:
    def test_empty_sample_has_no_percentile(self):
        assert percentile([], 95) is None

    def test_nearest_rank_over_unsorted_values(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 3.0
        assert percentile(values, 95) == 5.0
        assert percentile(values, 100) == 5.0

    def test_rank_matches_the_unit_scale(self):
        # p on 0-100 picks the same rank as q = p/100 on 0-1
        for n in range(1, 500):
            values = list(range(n))
            for p, q in ((50, 0.50), (95, 0.95), (99, 0.99)):
                assert percentile(values, p) == values[round(q * (n - 1))]


R0, R1, EXTRA = ("r0",), ("r1",), ("extra",)


class TestFirstDivergence:
    def test_equal_sequences(self):
        assert first_divergence([R0, R1], [R0, R1]) is None
        assert first_divergence([], []) is None
        assert divergence_note([R0], [R0]) is None

    def test_difference_mid_list(self):
        assert first_divergence([R0, R1, R0], [R0, EXTRA, R0]) == \
            (1, R1, EXTRA)
        assert divergence_note([R0, R1], [R0, EXTRA]) == \
            f"record 1: {R1!r} != {EXTRA!r}"

    def test_first_sequence_longer(self):
        assert first_divergence([R0, EXTRA], [R0]) == (1, EXTRA, None)
        assert divergence_note([R0, EXTRA], [R0]) == "lengths differ: 2 vs 1"

    def test_second_sequence_longer(self):
        assert first_divergence([R0], [R0, EXTRA]) == (1, None, EXTRA)
        assert divergence_note([R0], [R0, EXTRA]) == "lengths differ: 1 vs 2"


class TestDeterminismCheckBlame:
    """``repro chaos --check-determinism`` prints ``divergence[1]``
    under "run 1" and ``divergence[2]`` under "run 2"."""

    @staticmethod
    def check(monkeypatch, run1, run2):
        runs = [run1, run2]
        monkeypatch.setattr(
            chaos, "run_chaos_experiment",
            lambda **kwargs: {"sim": SimpleNamespace(trace=runs.pop(0))})
        monkeypatch.setattr(chaos, "chaos_signature", lambda trace: trace)
        return chaos.determinism_check(seed=1, duration=1.0)

    def test_extra_record_in_run_1(self, monkeypatch):
        check = self.check(monkeypatch, [R0, EXTRA], [R0])
        assert not check["identical"]
        assert check["divergence"] == (1, EXTRA, None)

    def test_extra_record_in_run_2(self, monkeypatch):
        check = self.check(monkeypatch, [R0], [R0, EXTRA])
        assert check["divergence"] == (1, None, EXTRA)

    def test_difference_mid_list(self, monkeypatch):
        check = self.check(monkeypatch, [R0, R1, R0], [R0, EXTRA, R0])
        assert check["divergence"] == (1, R1, EXTRA)

    def test_identical_runs(self, monkeypatch):
        check = self.check(monkeypatch, [R0, R1], [R0, R1])
        assert check["identical"] and check["divergence"] is None
