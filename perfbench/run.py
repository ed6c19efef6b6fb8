"""fedsynth benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload desk_hfmds [--seed 1] [--seconds N] [--trace 0|1]

Runs are made one after another, each in its own worker process with BLAS
pinned to one thread, until the time budget is spent (at least two runs, so
the byte-identity check always has a pair). With --trace 1 the first half of
the budget goes to untraced runs and one traced run follows; its spans give
the per-layer metrics and the difference in run time gives the tracing
overhead. Every metric is printed by name and unit; the last line of
standard output is one JSON object with the end-to-end metrics (--trace 0)
or the per-layer metrics (--trace 1). The exit status is 1 when any run
fails or fails its output check, and 2 when the fedsynth sources are absent.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
# each invocation must finish well inside three minutes
HARD_LIMIT_S = 150.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_worker(config_path: Path, out_dir: Path, spans_path: Path | None, timeout: float) -> dict:
    """One run in a fresh process; returns the record the checks fill in."""
    command = [sys.executable, str(HERE / "worker.py"), "--config", str(config_path), "--out", str(out_dir)]
    if spans_path is not None:
        command += ["--trace", str(spans_path)]
    record = {"errors": [], "deterministic": "", "rows": [], "result": None}
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            command, env={**os.environ, **PINNED_ENV}, capture_output=True, text=True, timeout=timeout, check=False
        )
    except subprocess.TimeoutExpired:
        record["errors"].append(f"run exceeded {timeout:.0f} s")
        record["wall_s"] = time.perf_counter() - started
        return record
    record["wall_s"] = time.perf_counter() - started
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        record["errors"].append(f"worker exited {proc.returncode}: {tail[0]}")
        return record
    record["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    return record


def check(record: dict, out_dir: Path, rounds: int) -> None:
    """Fill in a completed run's output-check errors, rows and written sizes."""
    if record["result"] is None:
        return
    try:
        text = (out_dir / "metrics.csv").read_text(encoding="utf-8")
    except OSError as exc:
        record["errors"].append(f"metrics.csv unreadable: {exc}")
        return
    errors, record["deterministic"], record["rows"] = harness.check_metrics_csv(text, rounds)
    record["errors"] += errors + harness.check_artifacts(out_dir)
    record["files"], record["bytes"] = harness.written(out_dir)


def measure(work: Path, raw: dict, seconds: float, traced: bool) -> tuple[list[dict], dict | None]:
    """Untraced runs for the budget (half of it when traced), then the traced run."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")

    start = time.perf_counter()

    def one(index: int, spans_path: Path | None) -> dict:
        out_dir = work / f"run{index}"
        timeout = max(10.0, HARD_LIMIT_S - (time.perf_counter() - start))
        record = run_worker(config_path, out_dir, spans_path, timeout)
        check(record, out_dir, raw["rounds"])
        shutil.rmtree(out_dir, ignore_errors=True)
        return record

    budget = seconds / 2 if traced else seconds
    minimum = 1 if traced else 2
    records: list[dict] = []
    while True:
        records.append(one(len(records), None))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in records)
        if elapsed > HARD_LIMIT_S / 2 or (len(records) >= minimum and elapsed + typical > budget):
            break
    traced_record = one(len(records), work / "spans.csv") if traced else None
    return records, traced_record


def end_to_end(passed: list[dict]) -> dict:
    return {
        "run_s": [r["result"]["run_s"] for r in passed],
        "setup_s": [s for r in passed for s in r["result"]["setup_s"]],
        "peak_rss_mb": [r["result"]["peak_rss_mb"] for r in passed],
    }


def print_report(workload, seed, records, attempted, failed, samples, traced_metrics) -> None:
    passed = [r for r in records if not r["errors"]]
    print(f"workload {workload} seed {seed}: {attempted} runs, {failed} failed")
    for number, record in enumerate(records):
        for error in record["errors"]:
            print(f"  run {number} FAILED: {error}")
    if passed:
        print("env: " + json.dumps(passed[0]["result"]["env"], sort_keys=True))
    units = {name: unit for name, unit, _ in harness.END_TO_END + harness.QUALITY + harness.PER_LAYER}
    for name, values in samples.items():
        s = harness.summary(values)
        print(f"{name}: median {s['median']:.6g} {units[name]} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    if passed:
        rows = passed[0]["rows"]
        for name, value in harness.quality(rows).items():
            shown = "undefined (no synthesis event)" if value is None else f"{value:.6g} {units[name]}"
            print(f"{name}: {shown}")
        print(f"trajectory digest: {harness.digest(passed[0]['deterministic'])}")
    print(f"fail_rate: {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if traced_metrics:
        print("traced run, per layer:")
        for name, unit, _ in harness.PER_LAYER:
            print(f"  {name}: {traced_metrics[name]:.6g} {unit}")
        layer_sum = sum(traced_metrics[f"{layer}.self_s"] for layer in harness.LAYERS)
        print(f"  layer self times sum to {layer_sum:.6f} s of the traced run's {traced_metrics['trace.run_s']:.6f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=harness.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fedsynth" / "__init__.py").is_file():
        print(f"error: fedsynth sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2

    raw = WORKLOADS[args.workload](args.seed)
    work = SCRATCH / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    records, traced_record = measure(work, raw, args.seconds, bool(args.trace))
    everything = records + ([traced_record] if traced_record else [])
    attempted, failed = harness.judge(everything)
    passed = [r for r in records if not r["errors"]]

    traced_metrics = None
    if traced_record is not None and not traced_record["errors"] and passed:
        trace, run_s = traced_record["result"]["trace"], traced_record["result"]["run_s"]
        measured = {
            "run_s": run_s,
            "overhead_s": run_s - statistics.median(r["result"]["run_s"] for r in passed),
            "files": traced_record["files"],
            "bytes": traced_record["bytes"],
            "rss_growth_mb": statistics.median(
                r["result"]["peak_rss_mb"] - r["result"]["rss_before_run_mb"] for r in passed
            ),
        }
        traced_metrics = harness.per_layer(trace, measured, traced_record["rows"])
        errors = harness.check_layer_sum(trace["layers"], run_s)
        if errors:
            traced_record["errors"] += errors
            failed += 1

    samples = end_to_end(passed) if passed else {}
    print_report(args.workload, args.seed, everything, attempted, failed, samples, traced_metrics)

    correct = failed == 0 and bool(passed) and (traced_metrics is not None or not args.trace)
    if args.trace:
        chosen = harness.PER_LAYER
        values = traced_metrics or {}
    else:
        chosen = harness.END_TO_END
        values = {name: harness.summary(v)["median"] for name, v in samples.items()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in chosen if name in values}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": attempted,
        "failed": failed,
        "env": passed[0]["result"]["env"] if passed else None,
        "samples": samples,
        "quality": harness.quality(passed[0]["rows"]) if passed else None,
        "digest": harness.digest(passed[0]["deterministic"]) if passed else None,
        "per_layer": traced_metrics,
    }
    (work / "result.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
