"""Cheap module-level runners for campaign executor tests.

These are dispatched by ``module:function`` path through real worker
processes, so they must stay importable and their kwargs picklable.
"""

import os
import time


def add_rows(a: float = 1.0, b: float = 2.0, seed: int = 0) -> list:
    """Deterministic rows keyed by the inputs."""
    return [("sum", a + b + seed * 0.001), ("product", a * b)]


def seeded_rows(x: float = 1.0, seed: int = 0) -> list:
    """Rows whose measurement column varies with the seed."""
    return [(x, x * (1.0 + 0.1 * (seed % 7)))]


def unseeded(scale: float = 2.0) -> list:
    """A runner with no seed parameter."""
    return [("scale", scale)]


def metric_rows(seed: int = 0) -> dict:
    """A runner returning rows plus a MetricSet snapshot -- the
    ``flow_stage_latency`` shape the executor lifts into the manifest."""
    from repro.sim.monitor import MetricSet

    metrics = MetricSet()
    for value in (1.0, 2.0, 3.0):
        metrics.observe("m", value + seed * 0.001)
    return {"rows": [["m", 3, 2.0 + seed * 0.001]],
            "metrics": metrics.snapshot()}


def profiled_rows(seed: int = 0) -> dict:
    """A runner returning rows plus a repro.prof summary -- the shape
    profiled chaos/scale cells hand the executor."""
    return {"rows": [["m", 1.0 + seed]],
            "profile": {"schema": "repro.prof/2",
                        "events": 10 + seed,
                        "samples": 5,
                        "total_seconds": 0.5,
                        "subsystems": {"sim": 0.3, "net": 0.2},
                        "share_errors": {"sim": 0.22, "net": 0.22},
                        "hottest": [], "callbacks": [],
                        "timeline": {"bucket_width": 0.05,
                                     "buckets": []}}}


def boom(seed: int = 0) -> list:
    raise RuntimeError(f"boom (seed={seed})")


def sleepy(duration: float = 30.0, seed: int = 0) -> list:
    time.sleep(duration)
    return [("slept", duration)]


def die(seed: int = 0) -> list:
    """Kill the worker process outright (simulated segfault)."""
    os._exit(13)


def flaky(sentinel: str = "", seed: int = 0) -> list:
    """Fail on the first call, succeed once ``sentinel`` exists --
    exercises a resume that re-executes a failed cell."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8") as handle:
            handle.write("attempted\n")
        raise RuntimeError("first attempt always fails")
    return [("recovered", 1.0)]
