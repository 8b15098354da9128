"""Parallel, resumable experiment-campaign orchestration.

Turns the one-shot runners in :mod:`repro.analysis.experiments` into
declarative campaigns: a :class:`CampaignSpec` (TOML/JSON/Python)
describes a runner, a parameter grid and a seed sweep; the
:class:`CampaignExecutor` fans the expanded cells out over a process
pool and runs each deterministic cell once, with a per-task timeout,
a crash blamed only on the cell that kills a worker alone, and every
failure recorded; the :class:`ResultCache` content-addresses every
completed cell so interrupted or re-run campaigns execute only missing
work; and :class:`ResultStore` aggregates rows across seeds into the
same table format the benchmark artifacts use.  The ``repro campaign``
CLI wires it all together.
"""

from repro.campaign.spec import (CampaignError, CampaignSpec, SweepSpec,
                                 TaskCell, canonical_params,
                                 resolve_runner)
from repro.campaign.cache import ResultCache, cell_key, code_fingerprint
from repro.campaign.executor import (CampaignExecutor, CampaignReport,
                                     CellResult, TaskTimeout,
                                     execute_cell, normalize_result,
                                     run_campaign)
from repro.campaign.results import AggregateRow, ResultStore

__all__ = [
    "CampaignError",
    "CampaignSpec",
    "SweepSpec",
    "TaskCell",
    "canonical_params",
    "resolve_runner",
    "ResultCache",
    "cell_key",
    "code_fingerprint",
    "CampaignExecutor",
    "CampaignReport",
    "CellResult",
    "TaskTimeout",
    "execute_cell",
    "normalize_result",
    "run_campaign",
    "AggregateRow",
    "ResultStore",
]
