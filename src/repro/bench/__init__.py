"""The unified benchmark registry: versioned trajectory artifacts, the
cell table, and the regression gate.

- :mod:`repro.bench.schema` -- entry/trajectory schemas, append-only
  IO and the compare gate.
- :mod:`repro.bench.registry` -- the cell table that campaigns and
  benchmarks (``kernel.scale<N>``, ``chaos.storm``,
  ``mitigation.frontier``, ``storage.repair``) both dispatch through.
- :mod:`repro.bench.cli` -- ``repro bench run/compare/history/list``.
"""

from repro.bench.registry import (CELLS, BadOverride, Cell,
                                  UnknownBenchmark, bench_plan,
                                  benchmark_names, cell_entry, cell_names,
                                  default_path, lookup, run_benchmark)
from repro.bench.schema import (DEFAULT_TOLERANCE, ENTRY_SCHEMA,
                                TRAJECTORY_SCHEMA, BenchSchemaError,
                                append_entry, best_entry,
                                comparable_entries, compare_entry,
                                empty_trajectory, history_rows,
                                load_trajectory, make_entry,
                                validate_entry, write_trajectory)

__all__ = [
    "CELLS", "BadOverride", "BenchSchemaError", "Cell", "DEFAULT_TOLERANCE",
    "ENTRY_SCHEMA", "TRAJECTORY_SCHEMA", "UnknownBenchmark",
    "append_entry", "bench_plan", "benchmark_names", "best_entry",
    "cell_entry", "cell_names", "comparable_entries", "compare_entry",
    "default_path", "empty_trajectory", "history_rows",
    "load_trajectory", "lookup", "make_entry", "run_benchmark",
    "validate_entry", "write_trajectory",
]
