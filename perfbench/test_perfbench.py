"""Tests of the benchmark's own arithmetic: quartiles, self time, output
checks, failure counting and the derived per-layer metrics.

    python3 -m pytest perfbench
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import worker
from tracer import Tracer, summarize
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

TINY = {
    "algorithm": "hfmds_fl",
    "dataset": {"classes": 4, "dim": 8, "per_class": 40, "spread": 0.25},
    "partition": {"scheme": "label_skew", "clients": 4, "classes_per_client": 1},
    "rounds": 4,
    "syn_interval": 2,
    "syn_per_client": 8,
    "syn_steps": 15,
    "seed": 11,
}

HEADER = "round,accuracy,train_loss,syn_size,psnr,loss_drop,alignment,ms"


def test_summary_uses_statistics_quartiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    s = harness.summary(values)
    assert (s["median"], s["q1"], s["q3"], s["n"]) == (statistics.median(values), q1, q3, 10)
    assert harness.relative_spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert harness.summary([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}
    with pytest.raises(ValueError):
        harness.summary([])


def test_self_time_subtracts_nested_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    root = tracer.open("runner.run_experiment")  # 0 .. 10
    child = tracer.open("engine.run_round")  # 1 .. 5
    grandchild = tracer.open("autodiff.forward")  # 2 .. 4
    tracer.close(grandchild)
    tracer.close(child)
    second = tracer.open("engine.aggregate")  # 6 .. 8
    tracer.close(second)
    tracer.close(root)
    out = summarize(tracer, root)
    assert out["spans"]["runner.run_experiment"] == {"busy_s": 10.0, "self_s": 4.0, "calls": 1}
    assert out["spans"]["engine.run_round"]["self_s"] == 2.0
    assert out["spans"]["autodiff.forward"]["self_s"] == 2.0
    assert out["layers"] == {"runner": 4.0, "engine": 4.0, "autodiff": 2.0}
    assert sum(out["layers"].values()) == 10.0


def test_only_outermost_call_of_a_name_is_a_span():
    tracer = Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap(inner, "autodiff.forward")
    wrapped_outer = tracer.wrap(lambda x: wrapped_inner(x) * 2, "autodiff.forward")
    assert wrapped_outer(1) == 4
    assert tracer.names == ["autodiff.forward"]
    assert wrapped_inner(1) == 2
    assert tracer.names == ["autodiff.forward", "autodiff.forward"]


def _csv(rows):
    return "\n".join([HEADER] + rows) + "\n"


def test_metrics_csv_check():
    good = _csv(["1,0.5,1.2,0,,,,3.1", "2,0.6,1.1,8,7.5,2.5,0.1,2.9"])
    errors, deterministic, rows = harness.check_metrics_csv(good, 2)
    assert errors == []
    assert deterministic.splitlines()[0] == HEADER.rsplit(",", 1)[0]
    assert deterministic.splitlines()[1] == "1,0.5,1.2,0,,,"
    assert rows[1]["psnr"] == 7.5 and rows[0]["psnr"] is None

    assert "expected 3" in harness.check_metrics_csv(good, 3)[0][0]
    assert "not a finite number" in harness.check_metrics_csv(_csv(["1,nan,1.2,0,,,,3.1"]), 1)[0][0]
    assert "not a finite number" in harness.check_metrics_csv(_csv(["1,0.5,inf,0,,,,3.1"]), 1)[0][0]
    assert "accuracy is empty" in harness.check_metrics_csv(_csv(["1,,1.2,0,,,,3.1"]), 1)[0][0]
    assert "fields" in harness.check_metrics_csv(_csv(["1,0.5,1.2"]), 1)[0][0]

    # wall-clock differences do not reach the deterministic text
    slower = _csv(["1,0.5,1.2,0,,,,9.9", "2,0.6,1.1,8,7.5,2.5,0.1,8.8"])
    assert harness.check_metrics_csv(slower, 2)[1] == deterministic


def test_artifact_check(tmp_path):
    (tmp_path / "metrics.csv").write_text("x\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"artifacts": ["metrics.csv", "features.csv"]}))
    assert harness.check_artifacts(tmp_path) == ["artifact features.csv listed in manifest.json is missing"]
    (tmp_path / "features.csv").write_text("y\n")
    assert harness.check_artifacts(tmp_path) == []
    assert harness.written(tmp_path) == (3, len("x\n") + len("y\n") + (tmp_path / "manifest.json").stat().st_size)


def test_layer_sum_check():
    layers = {"engine": 2.0, "synthesis": 0.999, "runner": 0.0005}
    assert harness.check_layer_sum(layers, 3.0) == []
    assert "sum to 2.999500 s, not the run's 3.100000 s" in harness.check_layer_sum(layers, 3.1)[0]
    assert harness.check_layer_sum({**layers, "config": 0.0}, 3.0) == ["spans of unknown layer 'config' under the run"]


def test_failure_counting():
    records = [
        {"errors": ["worker exited 1: boom"], "deterministic": ""},
        {"errors": [], "deterministic": "a"},
        {"errors": [], "deterministic": "a"},
        {"errors": [], "deterministic": "b"},
    ]
    assert harness.judge(records) == (4, 2)
    assert records[3]["errors"] == ["metrics.csv differs from the first run outside the ms column"]
    assert records[1]["errors"] == records[2]["errors"] == []


def test_derived_per_step_metrics():
    trace = {
        "spans": {
            "synthesis.synthesize": {"busy_s": 2.0, "self_s": 0.5, "calls": 4},
            "engine.local_update": {"busy_s": 0.3, "self_s": 0.1, "calls": 10},
        },
        "layers": {"synthesis": 0.5, "engine": 0.1},
        "counts": {"adam_steps": 4000, "syn_rows": 40, "syn_row_steps": 40000, "syn_improved": 30, "sgd_steps": 150},
        "config_s": 0.001,
        "zero_cam_rows": 2,
    }
    rows = [{"accuracy": 0.5, "loss_drop": None, "psnr": None}] * 5 + [
        {"accuracy": 1.0, "loss_drop": 1.5, "psnr": 6.0}
    ] * 10
    measured = {"run_s": 3.0, "overhead_s": 0.2, "files": 3, "bytes": 100, "rss_growth_mb": 1.5}
    values = harness.per_layer(trace, measured, rows)
    assert values["synthesis.step_us"] == pytest.approx(500.0)
    assert values["synthesis.row_step_ns"] == pytest.approx(50000.0)
    assert values["synthesis.improved_ratio"] == pytest.approx(0.75)
    assert values["engine.sgd_step_us"] == pytest.approx(2000.0)
    assert values["metrics.acc_last10"] == 1.0
    assert (values["synthesis.loss_drop"], values["synthesis.psnr_db"]) == (1.5, 6.0)
    assert values["autodiff.forward.busy_s"] == 0 and values["autodiff.self_s"] == 0.0
    assert (values["trace.run_s"], values["runner.rss_growth_mb"], values["runner.write.files"]) == (3.0, 1.5, 3)
    assert set(values) == {name for name, _, _ in harness.PER_LAYER}

    # a workload that never synthesizes reads 0 rather than dividing by zero
    idle = {**trace, "spans": {}, "counts": {}}
    values = harness.per_layer(idle, measured, rows[:5])
    assert values["synthesis.step_us"] == values["synthesis.row_step_ns"] == values["engine.sgd_step_us"] == 0.0
    assert (values["synthesis.loss_drop"], values["synthesis.psnr_db"]) == (0.0, 0.0)


def test_traced_tiny_run_partitions_its_time(tmp_path):
    fedsynth = worker.load_fedsynth()
    original = fedsynth.engine.local_update
    tracer = Tracer()
    result = worker.run_once(fedsynth, TINY, tmp_path / "run", tracer)
    assert fedsynth.engine.local_update is original  # instrumentation is undone

    trace = result["trace"]
    assert harness.check_layer_sum(trace["layers"], result["run_s"]) == []
    assert result["rss_before_run_mb"] > 0
    spans, counts = trace["spans"], trace["counts"]
    assert spans["synthesis.synthesize"]["calls"] == 4 * 2  # 4 clients, events at rounds 2 and 4
    assert counts["adam_steps"] == 8 * TINY["syn_steps"]
    assert counts["syn_row_steps"] == counts["syn_rows"] * TINY["syn_steps"]
    assert spans["engine.run_round"]["calls"] == TINY["rounds"]
    assert counts["sgd_steps"] > 0 and spans["runner.write"]["calls"] > 0
    assert trace["config_s"] > 0

    text = (tmp_path / "run" / "metrics.csv").read_text()
    errors, _, rows = harness.check_metrics_csv(text, TINY["rounds"])
    assert errors == [] and harness.check_artifacts(tmp_path / "run") == []
    files, size = harness.written(tmp_path / "run")
    measured = {"run_s": result["run_s"], "overhead_s": 0.0, "files": files, "bytes": size, "rss_growth_mb": 0.0}
    values = harness.per_layer(trace, measured, rows)
    assert values["synthesis.adam_steps"] == 120 and values["synthesis.step_us"] > 0


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in harness.SPEC["workloads"]] == list(WORKLOADS)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_fedavg", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench").exists()
