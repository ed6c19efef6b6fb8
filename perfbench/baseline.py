"""Run every workload over seeds 1-10 and summarize, as BASELINE.json records it.

    python3 perfbench/baseline.py [--out FILE]

For each workload, run.py is started once per seed untraced, then once
traced at seed 1, each for BENCHMARK.json's run_seconds. Every end-to-end
and quality metric is printed by name and unit as median, quartiles, sample
count and quartile spread over the seeds' medians. The summary is written to
--out when given. The exit status is 1 when any run failed or failed its
output check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SCRATCH = HERE.parent / ".perfbench"
SEEDS = range(1, 11)


def invoke(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(harness.RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=200, check=False)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((SCRATCH / f"{workload}-seed{seed}-trace{trace}" / "result.json").read_text(encoding="utf-8"))
    return {**detail, "exit": proc.returncode, "correct": last["correct"], "metrics": last["metrics"]}


def summarize_workload(runs: list[dict]) -> dict:
    units = {name: unit for name, unit, _ in harness.END_TO_END + harness.QUALITY}
    out = {}
    for name, _, _ in harness.END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        out[name] = {**harness.summary(values), "spread": harness.relative_spread(values), "unit": units[name]}
    for name in ("acc_last10", "syn_loss_drop", "syn_psnr"):
        values = [r["quality"][name] for r in runs if r["quality"][name] is not None]
        out[name] = {**harness.summary(values), "unit": units[name]} if values else None
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    out["fail_rate"] = {"value": failed / attempted, "failed": failed, "attempted": attempted, "unit": "ratio"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    report = {"seeds": len(SEEDS), "seconds": harness.RUN_SECONDS, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            run = invoke(workload, seed, 0)
            ok &= run["exit"] == 0 and run["correct"]
            runs.append(run)
            shown = ", ".join(f"{k} {v['value']:.6g}" for k, v in run["metrics"].items())
            print(f"{workload} seed {seed}: {shown}, digest {run['digest']}", flush=True)
        traced = invoke(workload, 1, 1)
        ok &= traced["exit"] == 0 and traced["correct"]
        summary = summarize_workload(runs)
        for name, entry in summary.items():
            if entry is None:
                print(f"  {name}: undefined (no synthesis event)")
            elif "median" in entry:
                spread = f", spread {entry['spread']:.3f}" if "spread" in entry else ""
                print(
                    f"  {name}: median {entry['median']:.6g} {entry['unit']} "
                    f"(q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']}{spread})"
                )
            else:
                print(f"  {name}: {entry['value']:.6g} ({entry['failed']} of {entry['attempted']} runs)")
        report["env"] = runs[0]["env"]
        report["workloads"][workload] = {
            **summary,
            "digests": {r["seed"]: r["digest"] for r in runs},
            "traced_seed_1": traced["per_layer"],
        }
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
