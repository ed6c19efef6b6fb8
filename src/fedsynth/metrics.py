"""Accuracy, PSNR privacy metric, cross-client feature alignment, CSV export."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Model
from .data import Dataset

if TYPE_CHECKING:
    from .synthesis import SyntheticDataset

Array = np.ndarray

PSNR_CAP_DB = 100.0
_PSNR_MSE_FLOOR = 1e-10

METRICS_HEADER = "round,accuracy,train_loss,syn_size,psnr,loss_drop,alignment,ms"


@dataclass
class MetricsRow:
    """One emitted row per communication round; optional fields may be None."""

    round_index: int
    accuracy: float
    train_loss: float
    syn_size: int
    psnr: float | None
    loss_drop: float | None
    alignment: float | None
    wall_ms: float


def accuracy(model: Model, data: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties resolve to the lowest class."""
    if len(data) == 0:
        raise ValueError("accuracy requires a nonempty dataset")
    _, logits = model.forward(data.inputs)
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == data.labels))


def psnr(candidate, reference) -> float:
    """Peak signal-to-noise ratio in dB for inputs in [0, 1]; capped at 100 dB."""
    a = np.asarray(candidate, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr operands must share shape, got {a.shape} and {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse < _PSNR_MSE_FLOOR:
        return PSNR_CAP_DB
    return 10.0 * math.log10(1.0 / mse)


def dataset_psnr(syn: "SyntheticDataset", shard: Dataset) -> float:
    """Mean per-pair PSNR of synthetic rows against their paired reals in `shard`.

    Reads the rows' `psnr` column, which `synthetic_rows` computed against the
    shard they were built from.
    """
    rows = syn.samples
    if not len(rows):
        raise ValueError("dataset_psnr requires a nonempty synthetic dataset")
    paired = rows["paired_index"]
    dangling = paired[(paired < 0) | (paired >= len(shard))]
    if dangling.size:
        raise ValueError(f"paired index {dangling[0]} outside shard of size {len(shard)}")
    return float(np.mean(rows["psnr"]))


def class_feature_means(model: Model, data: Dataset) -> Array:
    """Per-class mean extractor feature over a dataset, under the given model.

    One row per class present in `data`, in ascending class order: a
    (classes, width) array, or (models, classes, width) for a stack, whose
    models each run their own forward pass.
    """
    classes = np.unique(data.labels)
    means = []
    for flat in np.atleast_2d(model.flat):
        features = Model(model.architecture, flat).extract(data.inputs)
        means.append([features[data.labels == c].mean(axis=0) for c in classes])
    return np.array(means if model.flat.ndim == 2 else means[0])


def alignment_score(means: Array) -> float | None:
    """Mean pairwise distance between the models' feature centroids, averaged over classes.

    `means` is a (models, classes, width) array; lower means the models'
    representations agree, and fewer than two models give None. Each model's
    centroids must come from its own forward pass over inputs common to all
    of them (`class_feature_means` of a stack of local models on one probe
    set). Centroids taken under one shared model over each client's own
    shard measure only how a class was split among the clients that hold it.
    """
    if len(means) < 2:
        return None
    per_class = []
    for centroids in np.swapaxes(means, 0, 1):
        dists = [
            float(np.linalg.norm(centroids[i] - centroids[j]))
            for i in range(len(centroids))
            for j in range(i + 1, len(centroids))
        ]
        per_class.append(float(np.mean(dists)))
    return float(np.mean(per_class))


def export_features(model: Model, inputs, labels, origins, path: Path) -> Path:
    """Write extractor features as CSV rows of (f0..f{F-1}, label, origin)."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("export_features requires a nonempty (N, dim) input matrix")
    labels = [int(v) for v in labels]
    origins = [str(v) for v in origins]
    if len(labels) != x.shape[0] or len(origins) != x.shape[0]:
        raise ValueError("inputs, labels, and origins must have matching lengths")
    features = model.extract(x)
    width = features.shape[1]
    lines = [",".join([f"f{i}" for i in range(width)] + ["label", "origin"])]
    for row, label, origin in zip(features, labels, origins):
        lines.append(",".join([repr(float(v)) for v in row] + [str(label), origin]))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_metrics_csv(rows, path: Path) -> Path:
    """One row per round; optional fields render as empty strings; LF endings."""
    lines = [METRICS_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r.round_index),
                    _fmt(r.accuracy),
                    _fmt(r.train_loss),
                    str(r.syn_size),
                    _fmt(r.psnr),
                    _fmt(r.loss_drop),
                    _fmt(r.alignment),
                    _fmt(r.wall_ms),
                ]
            )
        )
    path = Path(path)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
