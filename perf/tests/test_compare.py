"""``--compare`` marking on synthetic results, and the command's exits."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

LOWER = {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.1}
HIGHER = {"name": "sim_s_per_cpu_s", "unit": "sim_s/s", "better": "higher",
          "bound": 0.1}


def metric(*samples):
    ordered = sorted(samples)
    return {"value": ordered[len(ordered) // 2], "unit": "s",
            "samples": list(samples)}


@pytest.mark.parametrize("spec, a, b, expected", [
    (LOWER, metric(10.0, 10.1, 10.2), metric(10.5, 10.6, 10.7), "ok"),
    (LOWER, metric(10.0, 10.1, 10.2), metric(11.5, 11.6, 11.7), "worse"),
    (LOWER, metric(10.0, 10.1, 10.2), metric(7.0, 7.1, 7.2), "ok"),
    (HIGHER, metric(10.0, 10.1, 10.2), metric(8.0, 8.1, 8.2), "worse"),
    (HIGHER, metric(10.0, 10.1, 10.2), metric(10.0, 9.7, 9.5), "ok"),
    # a spread wider than the bound leaves the verdict open ...
    (LOWER, metric(8.0, 10.0, 12.0), metric(8.5, 10.0, 12.0), "unresolved"),
    (LOWER, metric(8.0, 10.0, 12.0), metric(10.0, 11.5, 13.0),
     "unresolved"),
    # ... unless every run of B reads better than every run of A
    (LOWER, metric(8.0, 10.0, 12.0), metric(5.0, 6.0, 7.9), "ok"),
    # single values (simulated metrics) have no spread
    (LOWER, {"value": 3.0}, {"value": 3.0}, "ok"),
    (LOWER, {"value": 3.0}, {"value": 3.5}, "worse"),
])
def test_mark(spec, a, b, expected):
    assert run.mark(spec, a, b) == expected


def result(**workloads):
    return {"schema": run.RESULT_SCHEMA, "trace": 0,
            "workloads": {name: {"metrics": metrics}
                          for name, metrics in workloads.items()}}


def test_compare_rows_cover_every_shared_workload_and_metric():
    bench = {"end_to_end": [LOWER, HIGHER]}
    a = result(w1={"cpu_s": metric(1.0, 1.01, 1.02),
                   "sim_s_per_cpu_s": metric(4.0, 4.0, 4.1)},
               w2={"cpu_s": metric(2.0), "sim_s_per_cpu_s": metric(2.0)})
    b = result(w1={"cpu_s": metric(1.3, 1.31, 1.32),
                   "sim_s_per_cpu_s": metric(4.0, 4.1, 4.1)})
    rows = run.compare(bench, a, b)
    assert [(r["workload"], r["metric"], r["mark"]) for r in rows] == [
        ("w1", "cpu_s", "worse"), ("w1", "sim_s_per_cpu_s", "ok")]
    assert rows[0]["bound"] == 0.1
    assert rows[0]["spread"] == pytest.approx(0.02 / 1.01)


def test_compare_command_exits_nonzero_on_a_worse_row(tmp_path, capsys):
    bench = run.load_benchmark()
    names = [m["name"] for m in bench["end_to_end"]]
    same = {name: metric(1.0, 1.0, 1.0) for name in names}
    slower = dict(same, cpu_s=metric(2.0, 2.0, 2.0))
    paths = []
    for label, metrics in (("a", same), ("b", same), ("c", slower)):
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(result(w=metrics)))
        paths.append(str(path))
    assert run.main(["--compare", paths[0], paths[1]]) == 0
    assert run.main(["--compare", paths[0], paths[2]]) == 1
    assert "worse" in capsys.readouterr().out


def test_without_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "results",
                                                  "tests"))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "fleet-echo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode != 0
    assert "correct" not in done.stdout
