"""The regression gate for the policy extraction: a cloud running the
``stopwatch`` policy must be *byte-identical* to the pre-subsystem
pipeline.  The committed ``BENCH_kernel.json`` pins the 32-tenant bench
cell's egress signature from before the refactor; reproducing it here
proves the extracted hooks changed nothing -- not one event, not one
float.  Every other policy's client-visible timeline is pinned the same
way."""

import json
from pathlib import Path

import pytest

from repro.analysis.benchkernel import run_kernel_bench
from repro.analysis.mitigation import policy_signature
from repro.mitigation import POLICIES

#: the bench cell's egress signature from before the policy extraction
PRE_EXTRACTION_SIGNATURE = (
    "856f2d6a2abdc5975c087548448394e55210557b6e8cea27be67c528d49a6563")

#: ``policy_signature(name, seed=5, duration=2.0)`` of every registered
#: policy, recorded under CPython 3.11; CI's other interpreter versions
#: check that the timelines do not depend on the interpreter
POLICY_SIGNATURES = {
    "stopwatch":
        "b8f42cf2e280a7d3a72b70f39d92d294ee0662e2ebe722068f3449eaca975614",
    "none":
        "7d8fa0c552dff7fb39260c408d61c8371039cf6f608d597f1454bb012548dc18",
    "deterland":
        "cce8de04592921456f9ec30b3f03b258966d56c163672c1f73d5e472892a35d1",
    "uniform-noise":
        "33c6ebfe11781618acb603c77eaf1f70afed44ced4601f5b58e5f8d40aacf27d",
}

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_bench_artifact_still_pins_the_same_signature():
    """Guard the constant itself: if someone regenerates the artifact,
    this test points at the mismatch instead of silently gating against
    a moved target."""
    artifact = REPO_ROOT / "BENCH_kernel.json"
    data = json.loads(artifact.read_text())
    signatures = {entry["egress_signature"]
                  for entry in data["entries"]
                  if entry.get("egress_signature")}
    assert signatures == {PRE_EXTRACTION_SIGNATURE}


def test_stopwatch_policy_reproduces_pre_extraction_bench_signature():
    report = run_kernel_bench(tenants=32, duration=2.0, seed=1,
                              request_rate=30.0, repeats=1)
    assert report["egress_signature"] == PRE_EXTRACTION_SIGNATURE
    assert report["events_fired"] == 321622


def test_explicit_stopwatch_equals_derived_default():
    """Passing ``policy="stopwatch"`` explicitly must be byte-identical
    to the config-derived default (policy=None on a mediated config)."""
    assert policy_signature("stopwatch", seed=5, duration=2.0) == \
        policy_signature(None, seed=5, duration=2.0)


def test_every_policy_is_pinned():
    assert set(POLICY_SIGNATURES) == set(POLICIES)


@pytest.mark.parametrize("name", sorted(POLICY_SIGNATURES))
def test_policy_signature_is_pinned(name):
    """Each policy's client-visible timeline, byte for byte: a refactor
    of any policy's path must leave it unchanged."""
    assert policy_signature(name, seed=5, duration=2.0) == \
        POLICY_SIGNATURES[name]
