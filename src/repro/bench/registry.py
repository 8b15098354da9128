"""The cell table: one name -> one runner, its benchmark defaults, its
entry producer, its pass/fail gate and its printed report.

Campaign sweeps (``repro campaign``) and benchmarks (``repro bench
run``) both dispatch through :data:`CELLS`.  A runner is a
``"module:function"`` string imported on first use, so loading the
table imports no simulator code.  A campaign calls the runner with its
sweep params.  A benchmark -- a cell with a ``metrics`` producer --
merges ``--set`` overrides over the cell's defaults, derives ``seeds``
from ``seed_base``, runs, and turns the result into one trajectory
entry.

Benchmark ids are dotted: the first segment is the **family** (which
picks the default ``BENCH_<family>.json`` trajectory file), the rest
names the cell.  An id ending in ``<N>`` is parameterised:
``kernel.scale32`` binds 32 to the cell's ``scaled`` param.
"""

import importlib
import inspect
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.bench.schema import make_entry

#: params that change how a cell is measured, never what it simulates;
#: they stay out of an entry's config, so the gate compares across them
MEASUREMENT_KEYS = ("jobs", "repeats", "timeout")

_SCALED = re.compile(r"^(.+?)(\d+)$")


class UnknownBenchmark(KeyError):
    """No cell (or no benchmark cell) matches the requested name."""


@dataclass(frozen=True)
class Cell:
    """One row of the table."""

    runner: str                      # "module:function"
    params: Mapping[str, Any] = field(default_factory=dict)
    metrics: Optional[str] = None    # "module:function": result -> dict
    primary: Optional[str] = None    # primary metric, when produced
    gate: str = "ok"                 # result key holding the verdict
    scaled: Optional[str] = None     # param bound to an id's <N>
    report: Optional[str] = None     # "module:function": result -> lines

    def resolve(self) -> Callable:
        return load(self.runner)


def load(path: str) -> Callable:
    """Import the function named by a ``"module:function"`` path."""
    module_name, _, attr = path.partition(":")
    return getattr(importlib.import_module(module_name), attr)


_EXPERIMENTS = "repro.analysis.experiments:"

CELLS: Dict[str, Cell] = {
    **{name: Cell(_EXPERIMENTS + name) for name in (
        "fig1_median_cdfs", "fig1_observation_curves",
        "fig4_empirical_detection", "fig5_file_download", "fig6_nfs",
        "fig7_parsec", "fig8_noise_comparison", "placement_utilization",
        "delta_offset_translation", "aggregation_ablation",
        "delta_n_ablation", "epoch_resync_ablation")},
    "flow_stage_latency": Cell("repro.analysis.flows:flow_stage_latency"),
    "scale_sweep": Cell("repro.analysis.scale:scale_sweep"),
    "kernel_bench": Cell("repro.analysis.benchkernel:run_kernel_bench"),
    "chaos_cell": Cell("repro.analysis.chaos:run_chaos_cell"),
    "mitigation_cell": Cell(
        "repro.analysis.mitigation:run_mitigation_cell"),
    "mitigation_frontier": Cell(
        "repro.analysis.mitigation:mitigation_frontier"),
    "storage_repair": Cell(
        "repro.analysis.storage:run_storage_repair_cell"),
    # benchmarks: each run appends one trajectory entry
    "kernel.scale<N>": Cell(
        "repro.analysis.benchkernel:run_kernel_bench",
        params={"duration": 2.0, "seed": 1, "request_rate": 30.0,
                "repeats": 2},
        metrics="repro.analysis.benchkernel:kernel_metrics",
        primary="sim_seconds_per_cpu_second", gate="deterministic",
        scaled="tenants"),
    "chaos.storm": Cell(
        "repro.analysis.chaos:run_chaos_campaign",
        params={"seeds": 2, "seed_base": 101, "scenarios": ("single",),
                "duration": 3.0, "rate": 1.2, "jobs": 1},
        metrics="repro.analysis.chaos:chaos_metrics", primary="replies",
        report="repro.analysis.chaos:chaos_report"),
    "mitigation.frontier": Cell(
        "repro.analysis.mitigation:mitigation_frontier",
        params={"policies": ("stopwatch", "none"), "attacks": ("probe",),
                "duration": 3.0, "seeds": 1, "seed_base": 7, "bins": 10,
                "workload": "fileserver", "jobs": 1},
        metrics="repro.analysis.mitigation:mitigation_metrics",
        primary="margin_bits",
        report="repro.analysis.mitigation:frontier_report"),
    "storage.repair": Cell(
        "repro.analysis.storage:run_storage_repair_cell",
        params={"seed": 7, "duration": 6.0, "k": 2, "n": 3,
                "object_size": 8192, "objects": 3, "crash_at": 1.2},
        metrics="repro.analysis.storage:storage_metrics",
        primary="repaired_bytes_per_sim_s",
        report="repro.analysis.storage:storage_report"),
}


def cell_names() -> List[str]:
    return sorted(CELLS)


def benchmark_names() -> List[str]:
    return sorted(name for name, cell in CELLS.items() if cell.metrics)


def default_path(benchmark: str) -> str:
    """The family trajectory file a benchmark appends to by default."""
    return f"BENCH_{benchmark.split('.', 1)[0]}.json"


def lookup(name: str) -> Tuple[Cell, Dict[str, Any]]:
    """The cell called ``name`` and its default params, including the
    number a parameterised id binds (``kernel.scale32``)."""
    cell = CELLS.get(name)
    if cell is not None:
        return cell, dict(cell.params)
    match = _SCALED.match(name)
    cell = CELLS.get(f"{match.group(1)}<N>") if match else None
    if cell is None:
        raise UnknownBenchmark(f"unknown cell {name!r}; choose from "
                               f"{cell_names()}")
    return cell, {**cell.params, cell.scaled: int(match.group(2))}


def bench_plan(benchmark: str,
               overrides: Optional[Dict[str, Any]] = None
               ) -> Tuple[Cell, Dict[str, Any], Dict[str, Any]]:
    """A benchmark's cell, its runner kwargs and its entry config.

    Overrides replace defaults; a comma-separated string replaces a
    tuple default.  The config is every resolved param except
    :data:`MEASUREMENT_KEYS`, taken before ``seed_base`` expands into
    the ``seeds`` list.
    """
    cell, params = lookup(benchmark)
    if cell.metrics is None:
        raise UnknownBenchmark(f"{benchmark!r} is a campaign runner, not "
                               f"a benchmark; choose from "
                               f"{benchmark_names()}")
    if cell.scaled is not None and cell.scaled not in params:
        raise UnknownBenchmark(f"{benchmark!r} needs a number in place "
                               f"of <N>")
    for key, value in (overrides or {}).items():
        if isinstance(params.get(key), tuple) and isinstance(value, str):
            value = tuple(part for part in value.split(",") if part)
        params[key] = value
    config = {key: list(value) if isinstance(value, (list, tuple))
              else value
              for key, value in params.items()
              if key not in MEASUREMENT_KEYS}
    if "seed_base" in params:
        from repro.sim.rng import derive_root_seed

        base = int(params.pop("seed_base"))
        params["seeds"] = [derive_root_seed(base, i)
                           for i in range(int(params["seeds"]))]
    return cell, params, config


def cell_entry(benchmark: str, result: Dict[str, Any],
               config: Optional[Dict[str, Any]] = None,
               label: str = "head") -> Dict[str, Any]:
    """The trajectory entry for one benchmark result: the cell's
    metrics plus its gate verdict as ``ok``."""
    cell, _ = lookup(benchmark)
    metrics = dict(load(cell.metrics)(result))
    metrics["ok"] = bool(result[cell.gate])
    return make_entry(
        benchmark, config, metrics,
        primary_metric=cell.primary if cell.primary in metrics else None,
        label=label, egress_signature=result.get("egress_signature"),
        profile=result.get("profile"))


def run_benchmark(benchmark: str, label: str = "head",
                  profile: bool = False,
                  overrides: Optional[Dict[str, Any]] = None
                  ) -> Dict[str, Any]:
    """Run the named benchmark and return its trajectory entry."""
    cell, kwargs, config = bench_plan(benchmark, overrides)
    runner = cell.resolve()
    if profile and "profile" in inspect.signature(runner).parameters:
        kwargs["profile"] = True
    return cell_entry(benchmark, runner(**kwargs), config=config,
                      label=label)
