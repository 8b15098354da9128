"""Short runs of every workload: each declared metric comes out."""

import pytest

import run
import worker

#: small enough for a test, large enough that every stage is exercised
SCALES = {"fleet-echo": 0.2, "web-download": 0.1, "nfs-fs": 0.1,
          "parsec-batch": 0.1}


@pytest.fixture(scope="module")
def bench():
    return run.load_benchmark()


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_short_run_reports_every_declared_metric(workload, bench,
                                                 monkeypatch):
    # a short run has too few samples for the workload's fixed tail
    monkeypatch.setattr(worker, "TAIL_MIN_BEYOND", 0)
    seed = worker.WORKLOADS[workload]["seed"]
    timed, baseline, traced = (
        worker.measure(workload, seed, mode, SCALES[workload])
        for mode in ("timed", "baseline", "traced"))

    e2e = run.end_to_end(bench, [timed], baseline)
    assert list(e2e) == [metric["name"] for metric in bench["end_to_end"]]
    assert all(metric["value"] > 0 for metric in e2e.values())
    layer = run.per_layer(bench, [timed], traced)
    assert list(layer) == [metric["name"] for metric in bench["per_layer"]]

    assert timed["completed"] == timed["attempted"] > 0
    assert traced["signature"] == timed["signature"]
    covered = sum(row["self_s"] for row in traced["layers"].values())
    assert covered == pytest.approx(traced["cpu_s"],
                                    rel=run.LAYER_SUM_TOLERANCE)
