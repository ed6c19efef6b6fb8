"""Accuracy, PSNR privacy metric, cross-client feature alignment, CSV export."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .autodiff import Model
from .data import Dataset

Array = np.ndarray

PSNR_CAP_DB = 100.0
_PSNR_MSE_FLOOR = 1e-10

METRICS_HEADER = ("round", "accuracy", "train_loss", "syn_size", "psnr", "loss_drop", "alignment", "ms")


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
    """Fraction of a stack of one's argmax-correct predictions; ties resolve to the lowest class."""
    if len(data) == 0:
        raise ValueError("accuracy requires a nonempty dataset")
    _, logits = model.forward(data.inputs[None])
    predictions = np.argmax(logits[0], axis=1)
    return float(np.mean(predictions == data.labels))


def psnr(candidate, reference) -> float | Array:
    """Peak signal-to-noise ratio in dB for inputs in [0, 1]; capped at 100 dB.

    Reduces over the last axis: two vectors give a float, two (n, dim)
    arrays give one value per row.
    """
    a = np.asarray(candidate, dtype=np.float64)
    b = np.asarray(reference, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"psnr operands must share shape, got {a.shape} and {b.shape}")
    mse = np.mean((a - b) ** 2, axis=-1)
    # math.log10 per value: np.log10 differs from it in the last bit on some rows
    db = [PSNR_CAP_DB if m < _PSNR_MSE_FLOOR else 10.0 * math.log10(1.0 / m) for m in np.ravel(mse).tolist()]
    return db[0] if mse.ndim == 0 else np.reshape(db, mse.shape)


def class_feature_means(model: Model, data: Dataset) -> Array:
    """Per-class mean extractor feature over a dataset, under the given model.

    A (models, classes, width) array: per model of the stack, one row per
    class present in `data`, in ascending class order. The models each see
    the same inputs in one stacked forward pass, and one product of the
    one-hot labels with the features sums every class's rows in row order.
    """
    features = model.extract(np.broadcast_to(data.inputs, (len(model.flat),) + data.inputs.shape))
    _, labels, counts = np.unique(data.labels, return_inverse=True, return_counts=True)
    onehot = np.eye(len(counts))[labels]
    return onehot.T @ features / counts[:, None]


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
    first, second = np.triu_indices(len(means), 1)
    gaps = means[first] - means[second]  # (pairs, classes, width)
    # one dot product per contiguous gap row, as np.linalg.norm takes it;
    # einsum and norm(axis=-1) sum in another order and move the last bit
    dists = np.sqrt(gaps[..., None, :] @ gaps[..., :, None])[..., 0, 0]
    return float(np.mean(np.ascontiguousarray(dists.T).mean(axis=1)))


def write_csv(path: Path, header, rows) -> Path:
    """Write a header and rows of cells as CSV with LF endings.

    A float is written as `repr(float(v))`, so a numpy float reads like a
    Python one, None as an empty cell, anything else with `str`. Each line
    goes straight to the open file; the whole text is never held at once.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as out:
        out.write(",".join(header) + "\n")
        for row in rows:
            cells = ["" if v is None else repr(float(v)) if isinstance(v, float) else str(v) for v in row]
            out.write(",".join(cells) + "\n")
    return path


def export_features(model: Model, test: Dataset, pool: Array, path: Path) -> Path:
    """Write a stack of one's extractor features as CSV rows of (f0..f{F-1}, label, origin).

    The test set's rows come first with origin `real`, then the synthetic
    pool's (`synthetic_rows`) in pool order with origin `synthetic`.
    """
    features = model.extract(np.concatenate([test.inputs, pool["x"]])[None])[0]
    labels = np.concatenate([test.labels, pool["label"]]).tolist()
    origins = ["real"] * len(test) + ["synthetic"] * len(pool)
    header = [f"f{i}" for i in range(features.shape[1])] + ["label", "origin"]
    rows = (row.tolist() + [label, origin] for row, label, origin in zip(features, labels, origins))
    return write_csv(path, header, rows)


def write_metrics_csv(rows, path: Path) -> Path:
    """One row per round; optional fields render as empty strings; LF endings."""
    return write_csv(path, METRICS_HEADER, (astuple(r) for r in rows))
