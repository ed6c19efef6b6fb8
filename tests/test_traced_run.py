"""A traced benchmark run, end to end in its own process, as `perfbench/run.py --trace 1` starts it."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TINY_HFMDS = {
    "algorithm": "hfmds_fl",
    "dataset": {"classes": 4, "dim": 8, "per_class": 40, "spread": 0.25},
    "partition": {"scheme": "label_skew", "clients": 4, "classes_per_client": 1},
    "rounds": 2,
    "syn_interval": 2,
    "syn_per_client": 8,
    "syn_steps": 5,
    "seed": 11,
}


def ancestors(spans, index):
    """Names of every span enclosing span `index`, innermost first."""
    names = []
    parent = int(spans[index]["parent"])
    while parent >= 0:
        names.append(spans[parent]["name"])
        parent = int(spans[parent]["parent"])
    return names


def test_traced_worker_reports_json_and_nests_the_walk_in_both_hot_loops(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(TINY_HFMDS), encoding="utf-8")
    spans_path = tmp_path / "spans.csv"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--config", str(config), "--out", str(tmp_path / "run"),
         "--trace", str(spans_path)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"},
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])  # the counters went through json.dumps
    assert result["trace"]["counts"]["adam_steps"] == 4 * 5 and result["trace"]["counts"]["sgd_steps"] > 0

    with spans_path.open(encoding="utf-8") as handle:
        spans = list(csv.DictReader(handle))
    for loop in ("synthesis.synthesize", "engine.local_update"):
        for name in ("autodiff.forward", "autodiff.backward"):
            assert any(s["name"] == name and loop in ancestors(spans, i) for i, s in enumerate(spans)), (name, loop)
