"""The benchmark's own arithmetic: quartiles, output checks, failure counting
and the per-layer metrics derived from a traced run.

Nothing here imports fedsynth; it reads the artifacts a run leaves on disk.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

# metrics.csv columns that stay empty until a synthesis event defines them
OPTIONAL_COLUMNS = {"psnr", "loss_drop", "alignment"}
WALL_CLOCK_COLUMNS = {"ms"}

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = SPEC["run_seconds"]
# (name, unit, better) in the order BENCHMARK.json lists them
END_TO_END = [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]

# reported next to the end-to-end metrics; see README.md for why they are not gated
QUALITY = [
    ("acc_last10", "ratio", "higher"),
    ("syn_loss_drop", "loss", "higher"),
    ("syn_psnr", "dB", "lower"),
    ("fail_rate", "ratio", "lower"),
]

# the layers whose self times partition a traced run
LAYERS = ("data", "autodiff", "synthesis", "engine", "metrics", "runner")
# share of run_s by which the layer self times may miss it
LAYER_SUM_TOLERANCE = 1e-3


def summary(values) -> dict:
    """Median, first and third quartile (statistics.quantiles, n=4) and count."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("summary of no values")
    median = statistics.median(values)
    if len(values) == 1:
        return {"median": median, "q1": median, "q3": median, "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def relative_spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    s = summary(values)
    return (s["q3"] - s["q1"]) / abs(s["median"])


def check_metrics_csv(text: str, rounds: int) -> tuple[list[str], str, list[dict]]:
    """Check one run's metrics.csv; returns (errors, deterministic text, rows).

    A run passes when it has exactly `rounds` rows, every field parses as a
    finite number, and only the optional columns are empty. The
    deterministic text is the file without its wall-clock column.
    """
    lines = text.splitlines()
    if not lines:
        return ["metrics.csv is empty"], "", []
    header = lines[0].split(",")
    errors = []
    if len(lines) - 1 != rounds:
        errors.append(f"metrics.csv has {len(lines) - 1} rows, expected {rounds}")
    keep = [i for i, col in enumerate(header) if col not in WALL_CLOCK_COLUMNS]
    deterministic = [",".join(header[i] for i in keep)]
    rows = []
    for number, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != len(header):
            errors.append(f"metrics.csv row {number} has {len(fields)} fields, expected {len(header)}")
            continue
        row = {}
        for col, field in zip(header, fields):
            if field == "":
                if col not in OPTIONAL_COLUMNS:
                    errors.append(f"metrics.csv row {number}: {col} is empty")
                row[col] = None
                continue
            try:
                value = float(field)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                errors.append(f"metrics.csv row {number}: {col}={field!r} is not a finite number")
            row[col] = value
        rows.append(row)
        deterministic.append(",".join(fields[i] for i in keep))
    return errors, "\n".join(deterministic) + "\n", rows


def check_artifacts(out_dir: Path) -> list[str]:
    """Every artifact the manifest lists must exist below the run directory."""
    out_dir = Path(out_dir)
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    return [f"artifact {name} listed in manifest.json is missing" for name in manifest["artifacts"] if not (out_dir / name).is_file()]


def written(out_dir: Path) -> tuple[int, int]:
    """Number of files and total bytes below a run directory."""
    files = [p for p in Path(out_dir).rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def quality(rows: list[dict]) -> dict:
    """Accuracy over the final 10 rounds, and the last synthesis event's loss drop and PSNR."""
    last = rows[-10:]
    return {
        "acc_last10": sum(r["accuracy"] for r in last) / len(last),
        "syn_loss_drop": rows[-1].get("loss_drop"),
        "syn_psnr": rows[-1].get("psnr"),
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def judge(records: list[dict]) -> tuple[int, int]:
    """Mark and count failed runs; returns (attempted, failed).

    Each record carries `errors` (a list, empty when the run completed and
    passed its own checks) and `deterministic` (metrics.csv without the
    wall-clock column). A passing run whose deterministic text differs from
    the first passing run of the same workload and seed fails too.
    """
    reference = None
    for record in records:
        if record["errors"]:
            continue
        if reference is None:
            reference = record["deterministic"]
        elif record["deterministic"] != reference:
            record["errors"].append("metrics.csv differs from the first run outside the ms column")
    return len(records), sum(1 for r in records if r["errors"])


def _per(numerator: float, denominator: float, scale: float) -> float:
    return numerator / denominator * scale if denominator else 0.0


def check_layer_sum(layers: dict, run_s: float) -> list[str]:
    """The layers' self times under the run's root span must account for the
    run's independently timed `run_s`, and every span must belong to a layer
    in LAYERS. The tolerance covers the root wrapper's own entry and exit."""
    errors = [f"spans of unknown layer {layer!r} under the run" for layer in sorted(set(layers) - set(LAYERS))]
    total = sum(layers.values())
    if abs(total - run_s) > LAYER_SUM_TOLERANCE * run_s:
        errors.append(f"layer self times sum to {total:.6f} s, not the run's {run_s:.6f} s")
    return errors


def per_layer(trace: dict, measured: dict, rows: list[dict]) -> dict:
    """Every PER_LAYER metric from one traced run's summary.

    `trace` holds the worker's span summary of the run (`spans`, `layers`),
    its counters, the config parse time and the number of all-zero CAM rows.
    `measured` holds what the benchmark timed and counted around the run:
    the traced `run_s`, the tracing overhead, the files and bytes written and
    the resident memory the untraced runs added. Quantities a workload never
    exercises read 0.
    """
    spans, counts = trace["spans"], trace["counts"]

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    syn_busy = span("synthesis.synthesize", "busy_s")
    quality_now = quality(rows)
    values = {
        "synthesis.synthesize.busy_s": syn_busy,
        "synthesis.synthesize.self_s": span("synthesis.synthesize", "self_s"),
        "synthesis.synthesize.calls": span("synthesis.synthesize", "calls"),
        "synthesis.rows": counts.get("syn_rows", 0),
        "synthesis.adam_steps": counts.get("adam_steps", 0),
        "synthesis.step_us": _per(syn_busy, counts.get("adam_steps", 0), 1e6),
        "synthesis.row_step_ns": _per(syn_busy, counts.get("syn_row_steps", 0), 1e9),
        "synthesis.improved_ratio": _per(counts.get("syn_improved", 0), counts.get("syn_rows", 0), 1.0),
        "synthesis.zero_cam_rows": trace["zero_cam_rows"],
        "synthesis.loss_drop": quality_now["syn_loss_drop"] or 0.0,
        "synthesis.psnr_db": quality_now["syn_psnr"] or 0.0,
        "engine.local_update.busy_s": span("engine.local_update", "busy_s"),
        "engine.local_update.self_s": span("engine.local_update", "self_s"),
        "engine.local_update.calls": span("engine.local_update", "calls"),
        "engine.sgd_steps": counts.get("sgd_steps", 0),
        "engine.sgd_step_us": _per(span("engine.local_update", "busy_s"), counts.get("sgd_steps", 0), 1e6),
        "engine.aggregate.busy_s": span("engine.aggregate", "busy_s"),
        "engine.aggregate.self_s": span("engine.aggregate", "self_s"),
        "engine.run_round.busy_s": span("engine.run_round", "busy_s"),
        "engine.run_round.self_s": span("engine.run_round", "self_s"),
        "autodiff.forward.busy_s": span("autodiff.forward", "busy_s"),
        "autodiff.forward.self_s": span("autodiff.forward", "self_s"),
        "autodiff.backward.busy_s": span("autodiff.backward", "busy_s"),
        "autodiff.backward.self_s": span("autodiff.backward", "self_s"),
        "autodiff.backward.calls": span("autodiff.backward", "calls"),
        "autodiff.optimizer.busy_s": span("autodiff.optimizer", "busy_s"),
        "autodiff.optimizer.self_s": span("autodiff.optimizer", "self_s"),
        "metrics.accuracy.busy_s": span("metrics.accuracy", "busy_s"),
        "metrics.accuracy.self_s": span("metrics.accuracy", "self_s"),
        "metrics.alignment.busy_s": span("metrics.alignment", "busy_s"),
        "metrics.alignment.self_s": span("metrics.alignment", "self_s"),
        "metrics.psnr.calls": span("metrics.psnr", "calls"),
        "metrics.acc_last10": quality_now["acc_last10"],
        "data.busy_s": span("data", "busy_s"),
        "config.busy_s": trace["config_s"],
        "runner.write.busy_s": span("runner.write", "busy_s"),
        "runner.write.self_s": span("runner.write", "self_s"),
        "runner.write.files": measured["files"],
        "runner.write.bytes": measured["bytes"],
        "runner.rss_growth_mb": measured["rss_growth_mb"],
        "trace.run_s": measured["run_s"],
        "trace.overhead_s": measured["overhead_s"],
        "trace.spans": sum(entry["calls"] for entry in spans.values()),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = trace["layers"].get(layer, 0.0)
    return values
