#!/usr/bin/env python
"""The headline experiment: coresidence detection with and without
StopWatch (paper Fig. 4, shortened).

An attacker VM receives a ping stream and measures inter-packet
delivery times on its (virtual) clock.  A victim VM continuously
serving file downloads is placed so one replica shares a machine with
one attacker replica.  The attacker then tries to tell "victim present"
from "victim absent" with a chi-squared test.

Run:  python examples/side_channel_defense.py   (~1-2 minutes)
"""

import statistics

from repro.analysis import format_table
from repro.attacks import run_clock_probe

DURATION = 20.0
CONFIDENCES = (0.70, 0.80, 0.90, 0.95, 0.99)


def describe(label: str, result) -> None:
    mean_victim = statistics.mean(result.samples_present) * 1000
    mean_control = statistics.mean(result.samples_absent) * 1000
    print(f"\n{label}")
    print("-" * len(label))
    print(f"samples per condition : {len(result.samples_present)}")
    print(f"mean inter-packet time, victim coresident : "
          f"{mean_victim:.3f} ms")
    print(f"mean inter-packet time, no victim         : "
          f"{mean_control:.3f} ms")
    rows = result.detection_curve(CONFIDENCES)
    print(format_table(["confidence", "observations to detect"], rows))


def main() -> None:
    print("Running the unmodified-Xen condition...")
    baseline = run_clock_probe("none", duration=DURATION)
    print("Running the StopWatch condition...")
    stopwatch = run_clock_probe("stopwatch", duration=DURATION)

    describe("Unmodified Xen (attacker directly coresident with victim)",
             baseline)
    describe("StopWatch (median of three replicas, one coresident)",
             stopwatch)

    base_n = dict(baseline.detection_curve([0.95]))[0.95]
    sw_n = dict(stopwatch.detection_curve([0.95]))[0.95]
    print(f"\nAt 95% confidence the attacker needs {base_n} observations "
          f"without StopWatch\nand {sw_n} with it -- a "
          f"{sw_n / base_n:.0f}x increase in attack cost.")


if __name__ == "__main__":
    main()
