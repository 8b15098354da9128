"""Fig. 4 -- empirical inter-packet delivery times on the simulator.

An attacker VM receives a ping stream; a victim VM continuously serving
files shares one machine with one attacker replica.  Regenerates the
CDF comparison (4a) and the observations-needed curve (4b), plus the
unmodified-Xen comparison line.

Shape expectations (paper): with StopWatch the victim/no-victim CDFs
nearly coincide and detection takes about an order of magnitude more
observations than without StopWatch.
"""

import numpy as np

from repro.analysis import format_table
from repro.attacks import run_clock_probe

CONFIDENCES = (0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.99)
DURATION = 30.0


def _cdf_rows(result, points=12):
    both = sorted(result.samples_absent + result.samples_present)
    xs = [both[int(i * (len(both) - 1) / (points - 1))]
          for i in range(points)]
    control = np.sort(result.samples_absent)
    victim = np.sort(result.samples_present)
    rows = []
    for x in xs:
        rows.append((
            x * 1000.0,
            np.searchsorted(control, x, side="right") / len(control),
            np.searchsorted(victim, x, side="right") / len(victim),
        ))
    return rows


def test_fig4_stopwatch_vs_baseline(benchmark, save_result):
    def run():
        with_sw = run_clock_probe("stopwatch", duration=DURATION)
        without_sw = run_clock_probe("none", duration=DURATION)
        return with_sw, without_sw

    with_sw, without_sw = benchmark.pedantic(run, rounds=1, iterations=1)

    save_result("fig4a_median_cdf_stopwatch.txt", format_table(
        ["inter-packet ms", "CDF no victim (3 baselines)",
         "CDF victim coresident (2 baselines + victim)"],
        _cdf_rows(with_sw)))

    sw_curve = with_sw.detection_curve(CONFIDENCES)
    base_curve = without_sw.detection_curve(CONFIDENCES)
    rows = [(c, base_n, sw_n)
            for (c, base_n), (_, sw_n) in zip(base_curve, sw_curve)]
    save_result("fig4b_observations.txt", format_table(
        ["confidence", "w/o StopWatch", "w/ StopWatch"], rows))

    for _, base_n, sw_n in rows:
        assert sw_n >= 4 * base_n
    assert with_sw.meta["divergences"] == 0
