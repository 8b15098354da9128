"""Shared fixtures for the observability tests.

The traced workload is deterministic per seed, so one run serves every
read-only assertion in the module set -- session scope keeps the suite
fast.
"""

import pytest

from repro.analysis.observe import run_observed_workload


@pytest.fixture(scope="session")
def traced_sim():
    """One seeded echo+compute run with flow tracking on."""
    sim, _, _ = run_observed_workload(duration=1.0, seed=5, flows=True)
    return sim
