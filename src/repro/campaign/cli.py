"""The ``repro campaign`` subcommand family.

::

    repro campaign run       SPEC [--jobs N] [--timeout S] [--no-cache]
                                  [--state-dir D] [--quiet]
                                  [--expect-all-cached]
    repro campaign resume    SPEC [same flags; requires prior state]
    repro campaign status    SPEC [--state-dir D]
    repro campaign aggregate SPEC [--state-dir D] [--out PATH]

Campaign state lives under ``<state-dir>/<campaign name>/``::

    cache/          one JSON record per completed cell (content-addressed)
    manifest.jsonl  append-only audit log of every finished cell
    spec.json       resolved spec snapshot of the last run
    summary.txt     the final summary table
    aggregate.txt   cross-seed aggregate table
    events.jsonl    the orchestrator's campaign.* trace
"""

import os
import sys
from typing import Dict, List, Optional

from repro.analysis.report import format_table
from repro.campaign.cache import ResultCache
from repro.campaign.executor import (CampaignExecutor, CampaignReport,
                                     CellResult)
from repro.campaign.results import ResultStore
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.core.errors import BadOverride
from repro.ioutil import atomic_write_json, atomic_write_text


def _load_spec(args) -> CampaignSpec:
    """The spec at ``args.spec``; one ``error:`` line and exit 2 when it
    cannot be read or checked."""
    try:
        return CampaignSpec.from_file(args.spec)
    except (OSError, CampaignError, BadOverride) as exc:
        print(f"error: cannot load spec {args.spec}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)


def _state_dir(args, spec: CampaignSpec) -> str:
    return os.path.join(args.state_dir, spec.name)


def _open_cache(args, spec: CampaignSpec) -> Optional[ResultCache]:
    if getattr(args, "no_cache", False):
        return None
    return ResultCache(os.path.join(_state_dir(args, spec), "cache"))


def _print_report(spec: CampaignSpec, report: CampaignReport,
                  store: ResultStore) -> None:
    print(f"\nCampaign {spec.name}: {len(report.results)} cells, "
          f"{report.executed} executed, {report.cache_hits} cached, "
          f"{len(report.failures)} failed "
          f"in {report.wall_seconds:.1f}s")
    print(format_table(["metric", "value"], report.summary_rows()))
    aggregate = store.render_aggregate()
    if aggregate.count("\n") >= 2:      # more than headers + rule
        print("\nAggregate over seeds (mean/stdev/p50/p95):")
        print(aggregate)
    if store.metric_rollup():
        print("\nMetric rollup (per-seed snapshots averaged):")
        print(store.render_metric_rollup())
    skipped = store.unaggregated()
    if skipped:
        print(f"\n({skipped} cells returned non-tabular results and "
              f"were not aggregated; see the cache records.)")
    for failure in report.failures:
        print(f"\nFAILED {failure.cell.label()} [{failure.status}]: "
              f"{failure.error}")


def _write_artifacts(args, spec: CampaignSpec, report: CampaignReport,
                     store: ResultStore) -> None:
    state = _state_dir(args, spec)
    os.makedirs(state, exist_ok=True)
    atomic_write_json(os.path.join(state, "spec.json"), spec.to_dict(),
                      indent=2)
    atomic_write_text(os.path.join(state, "summary.txt"),
                      format_table(["metric", "value"],
                                   report.summary_rows()) + "\n")
    store.save_aggregate(os.path.join(state, "aggregate.txt"))
    report.trace.export(os.path.join(state, "events.jsonl"))


def _execute(args, require_state: bool) -> None:
    spec = _load_spec(args)
    state = _state_dir(args, spec)
    if require_state and not os.path.isdir(state):
        raise SystemExit(
            f"error: no campaign state at {state}; "
            f"run 'repro campaign run {args.spec}' first")
    os.makedirs(state, exist_ok=True)
    cache = _open_cache(args, spec)
    progress = None if args.quiet else print
    executor = CampaignExecutor(
        spec, cache, jobs=args.jobs, timeout=args.timeout,
        manifest_path=os.path.join(state, "manifest.jsonl"),
        progress=progress)
    report = executor.run()
    store = ResultStore(report.results)
    _write_artifacts(args, spec, report, store)
    _print_report(spec, report, store)
    if args.expect_all_cached and report.executed > 0:
        raise SystemExit(
            f"error: --expect-all-cached but {report.executed} cells "
            f"executed (cache hits: {report.cache_hits})")
    if report.failures:
        raise SystemExit(1)


def cmd_campaign_run(args) -> None:
    _execute(args, require_state=False)


def cmd_campaign_resume(args) -> None:
    _execute(args, require_state=True)


def _cached_results(args, spec: CampaignSpec):
    """(cell, record-or-None) for every cell of the spec."""
    cache = ResultCache(os.path.join(_state_dir(args, spec), "cache"))
    return [(cell, cache.get(cache.key(cell)))
            for cell in spec.expand()]


def cmd_campaign_status(args) -> None:
    spec = _load_spec(args)
    state = _state_dir(args, spec)
    if not os.path.isdir(state):
        print(f"Campaign {spec.name}: no state at {state} "
              f"({len(spec.expand())} cells pending)")
        return
    per_runner: Dict[str, Dict[str, int]] = {}
    for cell, record in _cached_results(args, spec):
        counts = per_runner.setdefault(
            cell.runner, {"cells": 0, "ok": 0, "failed": 0, "missing": 0})
        counts["cells"] += 1
        if record is None:
            counts["missing"] += 1
        elif record.get("status") == "ok":
            counts["ok"] += 1
        else:
            counts["failed"] += 1
    rows = [(runner, c["cells"], c["ok"], c["failed"], c["missing"])
            for runner, c in sorted(per_runner.items())]
    total = {key: sum(c[key] for c in per_runner.values())
             for key in ("cells", "ok", "failed", "missing")}
    print(f"Campaign {spec.name} ({state}):")
    print(format_table(["runner", "cells", "ok", "failed", "missing"],
                       rows))
    done = total["ok"]
    print(f"\n{done}/{total['cells']} cells complete, "
          f"{total['failed']} failed, {total['missing']} missing"
          + ("" if total["missing"] or total["failed"]
             else " -- campaign is complete"))


def cmd_campaign_aggregate(args) -> None:
    spec = _load_spec(args)
    store = ResultStore()
    missing = 0
    for cell, record in _cached_results(args, spec):
        if record is None or record.get("status") != "ok":
            missing += 1
            continue
        store.add(CellResult(cell=cell, status="ok",
                             value=record.get("value"),
                             duration=record.get("duration", 0.0),
                             cached=True,
                             metrics=record.get("metrics")))
    if len(store) == 0:
        raise SystemExit(f"error: no completed cells for {spec.name}; "
                         f"run the campaign first")
    print(f"Campaign {spec.name}: aggregate over {len(store)} cells"
          + (f" ({missing} missing/failed)" if missing else ""))
    print(store.render_aggregate())
    if store.metric_rollup():
        print("\nMetric rollup (per-seed snapshots averaged):")
        print(store.render_metric_rollup())
    out = args.out or os.path.join(_state_dir(args, spec),
                                   "aggregate.txt")
    store.save_aggregate(out)
    print(f"\nSaved to {out}")


def add_campaign_parser(subparsers) -> None:
    """Register ``campaign`` and its nested subcommands on the main
    ``repro`` parser."""
    from repro.cli import _positive_float

    campaign = subparsers.add_parser(
        "campaign", help="parallel, resumable experiment campaigns "
                         "with result caching")
    nested = campaign.add_subparsers(dest="campaign_command",
                                     required=True)

    def _common(p, execution: bool) -> None:
        p.add_argument("spec", help="campaign spec (.toml or .json)")
        p.add_argument("--state-dir", default=".campaigns",
                       help="root for per-campaign state "
                            "(default: .campaigns)")
        if not execution:
            return
        p.add_argument("--jobs", type=int, default=0,
                       help="worker processes (0 = one per CPU, "
                            "1 = run cells in this process)")
        p.add_argument("--timeout", type=_positive_float, default=None,
                       help="per-cell timeout seconds "
                            "(default: from the spec)")
        p.add_argument("--no-cache", action="store_true",
                       help="execute every cell, read/write no cache")
        p.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress lines")
        p.add_argument("--expect-all-cached", action="store_true",
                       help="exit non-zero if any cell actually "
                            "executed (CI resume check)")

    p = nested.add_parser("run", help="execute a campaign spec")
    _common(p, execution=True)
    p.set_defaults(fn=cmd_campaign_run)

    p = nested.add_parser("resume", help="re-run a campaign; cached "
                                         "cells are skipped")
    _common(p, execution=True)
    p.set_defaults(fn=cmd_campaign_resume)

    p = nested.add_parser("status", help="per-runner completion counts "
                                         "from the cache")
    _common(p, execution=False)
    p.set_defaults(fn=cmd_campaign_status)

    p = nested.add_parser("aggregate", help="render the cross-seed "
                                            "aggregate table from "
                                            "cached results")
    _common(p, execution=False)
    p.add_argument("--out", default=None,
                   help="write the table here (default: "
                        "<state>/aggregate.txt)")
    p.set_defaults(fn=cmd_campaign_aggregate)
