"""The tail-percentile rule, the layer map and the correctness gates."""

import os

import pytest

import layers
import run
import worker


def test_tail_refuses_percentile_with_fewer_than_ten_beyond():
    samples = list(range(1, 101))            # 100 samples
    assert worker.tail_percentile(samples, 90) == 90   # 10 beyond
    with pytest.raises(ValueError, match="9 beyond"):
        worker.tail_percentile(samples, 91)
    with pytest.raises(ValueError):
        worker.tail_percentile(samples, 99)
    assert worker.tail_percentile(list(range(1000)), 99) == 989


def test_latency_summary_uses_the_fixed_tail_or_the_maximum():
    samples = [i / 1000.0 for i in range(1, 1001)]
    summary = worker.latency_summary(samples, 99)
    assert summary["n"] == 1000
    assert summary["tail"] == "p99"
    assert summary["tail_ms"] == pytest.approx(990.0)
    assert summary["p50_ms"] == pytest.approx(500.0)
    batch = worker.latency_summary([0.3, 0.1, 0.2], None)
    assert batch["tail"] == "max"
    assert batch["tail_ms"] == pytest.approx(300.0)
    with pytest.raises(ValueError):
        worker.latency_summary(samples[:50], 99)


@pytest.mark.parametrize("module, layer", [
    ("repro.sim.kernel", "sim"),
    ("repro.vmm.hypervisor", "vmm.hypervisor"),
    ("repro.vmm.replay", "vmm.hypervisor"),
    ("repro.vmm", "vmm.hypervisor"),
    ("repro.vmm.coordination", "vmm.coordination"),
    ("repro.net.link", "net"),
    ("repro.net.tcp", "net.tcp"),
    ("repro.net.pgm", "net.pgm"),
    ("repro.cloud.fabric", "cloud"),
    ("repro.cloud.egress", "cloud.egress"),
    ("repro.machine.fs", "machine.fs"),
    ("repro.machine.dom0", "machine"),
    ("repro.workloads.parsec.kernels", "workloads"),
    ("repro.placement.scheduler", "other"),
    ("repro.simulation", "other"),          # a prefix is whole components
    ("repro", "other"),
    ("json.decoder", "other"),
])
def test_longest_prefix_layer(module, layer):
    assert layers.layer_of(module) == layer


def test_group_by_layer_sums_self_time_and_calls(tmp_path):
    src = str(tmp_path)
    path = lambda *parts: os.path.join(src, "repro", *parts)  # noqa: E731
    stats = {
        (path("net", "tcp.py"), 1, "send"): (3, 4, 0.5, 0.9, {}),
        (path("net", "link.py"), 1, "send"): (1, 1, 0.25, 0.3, {}),
        (path("net", "__init__.py"), 1, "<module>"): (1, 1, 0.125, 0.1, {}),
        (path("vmm", "replay.py"), 9, "replay"): (2, 2, 1.0, 1.0, {}),
        ("~", 0, "<method 'append' of 'list' objects>"):
            (7, 7, 0.0625, 0.0625, {}),
        ("/usr/lib/python3/json/decoder.py", 1, "decode"):
            (1, 1, 2.0, 2.0, {}),
    }
    grouped = layers.group_by_layer(stats, src)
    assert set(grouped) == set(layers.LAYER_NAMES)
    assert grouped["net.tcp"] == {"self_s": 0.5, "calls": 4}
    assert grouped["net"] == {"self_s": 0.375, "calls": 2}
    assert grouped["vmm.hypervisor"] == {"self_s": 1.0, "calls": 2}
    assert grouped["other"] == {"self_s": 2.0625, "calls": 8}
    assert grouped["sim"] == {"self_s": 0.0, "calls": 0}
    assert sum(row["self_s"] for row in grouped.values()) == \
        pytest.approx(sum(row[2] for row in stats.values()))


def fake_run(mode, signature="s1", mean_ms=30.0, jobs=None, disk=None,
             **checks):
    paper = {"k": (100, 200, 31)} if jobs else None
    run_checks = {"outputs_agree": True, "divergences": 0,
                  "placement_ok": True, **checks}
    if disk is not None:
        run_checks["disk_interrupts"] = {"k": disk}
    return {"mode": mode, "signature": signature, "jobs": jobs,
            "paper_jobs": paper, "latency": {"mean_ms": mean_ms},
            "checks": run_checks}


def test_gates_pass_a_correct_run():
    timed = [fake_run("timed"), fake_run("timed")]
    assert run.gates("web-download", timed, fake_run("baseline",
                                                     mean_ms=10.0)) == []


@pytest.mark.parametrize("timed, baseline, expected", [
    ([fake_run("timed"), fake_run("timed", signature="s2")], None,
     "signatures differ"),
    ([fake_run("timed", divergences=2)], None, "2 divergences"),
    ([fake_run("timed", outputs_agree=False)], None, "output counts"),
    ([fake_run("timed", placement_ok=False)], None, "placement"),
    ([fake_run("timed", mean_ms=50.0)], fake_run("baseline", mean_ms=10.0),
     "outside [2.0, 4.0]"),
])
def test_gates_name_each_failure(timed, baseline, expected):
    failures = run.gates("web-download", timed, baseline)
    assert len(failures) == 1 and expected in failures[0]


def test_batch_gates_check_disk_interrupts_and_job_overhead():
    timed = [fake_run("timed", jobs={"k": 0.5}, disk=30)]
    baseline = fake_run("baseline", jobs={"k": 0.2}, disk=31)
    failures = run.gates("parsec-batch", timed, baseline)
    assert len(failures) == 2
    assert "took 30 disk interrupts, the paper's is 31" in failures[0]
    assert "k overhead 2.500x > 2.3x" in failures[1]
