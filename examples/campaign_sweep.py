#!/usr/bin/env python
"""Campaign API demo: sweep fig. 5 over file sizes and seeds.

Equivalent to ``repro campaign run examples/fig5_sweep.toml`` but built
from Python, which is handy when the grid is computed rather than
written out by hand. Results are cached under ``.campaigns/`` so a
second invocation is free, and an interrupted run resumes from where
it stopped.

Run from the repo root:

    PYTHONPATH=src python examples/campaign_sweep.py
"""

from repro.campaign import (CampaignExecutor, CampaignSpec, ResultCache,
                            ResultStore, SweepSpec)

SIZES = [1_000 * 10 ** i for i in range(3)]        # 1 kB .. 100 kB


def main() -> None:
    spec = CampaignSpec(
        name="fig5-api-demo",
        seeds={"base": 1, "count": 4},     # SHA-256-derived seed sweep
        timeout=120.0,
        retries=1,
        sweeps=[
            SweepSpec(
                runner="fig5_file_download",
                params={"trials": 1, "sim_until": 10.0},
                grid={"sizes": [[size] for size in SIZES]},
            ),
        ],
    )

    cache = ResultCache(".campaigns/fig5-api-demo/cache")
    executor = CampaignExecutor(
        spec, cache,
        jobs=0,                            # 0 = one worker per core
        manifest_path=".campaigns/fig5-api-demo/manifest.jsonl",
    )
    report = executor.run()

    print(f"\n{report.executed} executed, {report.cache_hits} cached, "
          f"{len(report.failures)} failed "
          f"({report.tasks_per_second:.2f} tasks/s)")

    store = ResultStore(report.results)
    print("\nAggregate over seeds (mean/stdev/p50/p95):\n")
    print(store.render_aggregate())


if __name__ == "__main__":
    main()
