"""PARSEC-representative compute kernels (Fig. 7).

Five workloads mirroring the paper's selection from PARSEC 2.1, each a
real (small-scale) computation with a calibrated compute budget and
disk-I/O plan:

- :class:`Ferret` -- feature-vector similarity search (next-gen search).
- :class:`BlackScholes` -- closed-form option pricing (financial).
- :class:`Canneal` -- simulated-annealing routing-cost minimisation.
- :class:`Dedup` -- content-chunking deduplicating "backup" pipeline.
- :class:`StreamCluster` -- online k-median clustering (data mining).

Calibration targets the paper's measured baseline runtimes and disk
interrupt counts (Fig. 7(a,b)); the computations themselves are genuine
and replica-deterministic, so the determinism tests can compare results
across replicas.
"""

from repro.workloads.parsec.base import (ParsecWorkload, RunCollector,
                                         scale_problem)
from repro.workloads.parsec.kernels import (
    BlackScholes,
    Canneal,
    Dedup,
    Ferret,
    StreamCluster,
    PARSEC_KERNELS,
)
from repro.workloads.parsec.parallel import BlackScholesParallel

__all__ = [
    "ParsecWorkload",
    "RunCollector",
    "Ferret",
    "BlackScholes",
    "Canneal",
    "Dedup",
    "StreamCluster",
    "BlackScholesParallel",
    "PARSEC_KERNELS",
    "scale_problem",
]
