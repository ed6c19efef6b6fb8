"""Synthetic data generation by class-relevant feature matching.

A synthetic input starts as Gaussian noise and is optimized so that its
CAM-masked features match those of a paired real sample, optionally pushed
away from the class prototype ("hardened") before matching.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Adam, Model, backward_input, log_softmax_rows
from .data import Dataset, largest_remainder
from .errors import ConfigError
from .metrics import psnr, write_csv

logger = logging.getLogger(__name__)

Array = np.ndarray


@dataclass
class SynthesisConfig:
    """Knobs for one synthesis job.

    `scale` controls how far real features are pushed past their prototype
    before matching (0 disables the push).
    """

    count: int = 100
    steps: int = 500
    adam_lr: float = 0.02
    scale: float = 0.5
    kl_eps: float = 1e-8

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"count must be at least 1, got {self.count}")
        if self.steps < 1:
            raise ConfigError(f"steps must be at least 1, got {self.steps}")
        if self.adam_lr <= 0:
            raise ConfigError(f"adam_lr must be positive, got {self.adam_lr}")
        if self.scale < -1:
            raise ConfigError(f"scale must be at least -1, got {self.scale}")
        if self.kl_eps <= 0:
            raise ConfigError(f"kl_eps must be positive, got {self.kl_eps}")


class SyntheticRow(np.record):
    """One row of `synthetic_rows`; its scalar fields read as Python numbers.

    `row.final_loss < row.initial_loss` is then a Python bool, so a count
    summed over rows is a plain, JSON-serialisable int.
    """

    def __getattribute__(self, attr):
        value = super().__getattribute__(attr)
        return value.item() if isinstance(value, np.generic) else value


@functools.lru_cache(maxsize=None)
def _row_dtype(dim: int) -> np.dtype:
    # one dtype object per width: concatenating rows promotes equal but
    # distinct structured dtypes to plain void rows, dropping `SyntheticRow`
    fields = [
        ("x", np.float64, (dim,)),
        ("label", np.int64),
        ("paired_index", np.int64),
        ("initial_loss", np.float64),
        ("final_loss", np.float64),
        ("psnr", np.float64),
    ]
    return np.dtype((SyntheticRow, fields))


def synthetic_rows(shard: Dataset, paired_index, x, initial_loss=0.0, final_loss=0.0) -> Array:
    """The one row format of synthetic data, from synthesis to local training.

    A numpy record array with columns `x` (n, dim), `label` (the hard label
    of the paired real `shard` row, which the row trains on), `psnr` (against
    that row), `paired_index`, `initial_loss` and `final_loss`. Columns read
    as arrays (`rows["x"]`) and rows as records (`rows[i].x`).
    """
    paired_index = np.asarray(paired_index, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    n, dim = len(paired_index), shard.inputs.shape[1]
    if x.shape != (n, dim):
        raise ValueError(f"inputs must have shape ({n}, {dim}), got {x.shape}")
    rows = np.empty(n, dtype=_row_dtype(dim))
    rows["x"] = x
    rows["label"] = shard.labels[paired_index]
    rows["paired_index"] = paired_index
    rows["initial_loss"] = initial_loss
    rows["final_loss"] = final_loss
    rows["psnr"] = psnr(x, shard.inputs[paired_index])
    return rows


@dataclass
class SyntheticDataset:
    """Rows produced by one client in one synthesis event (`synthetic_rows`)."""

    samples: Array
    client_id: int = 0

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class SynthesisEvent:
    """One synthesis round: every client's rows plus summary stats.

    Every client inverts the same global model, so its fingerprint and
    extractor width are recorded once, here, for all of them.
    """

    round_index: int
    model_fingerprint: str
    feature_dim: int
    datasets: list[SyntheticDataset]
    mean_psnr: float
    mean_loss_drop: float
    improved_fraction: float


def model_fingerprint(model: Model) -> str:
    digest = hashlib.sha256()
    for name, p in model.params.items():
        digest.update(name.encode())
        digest.update(p.tobytes())
    return digest.hexdigest()[:16]


def update_prototypes(means, previous, momentum: float) -> Array:
    """Fold a round's per-class feature means, a (classes, width) array, into prototypes.

    With no `previous` prototypes (a client's first update) the means are
    adopted outright; afterwards the prototypes move as
    (1-momentum)*means + momentum*previous.
    """
    if not 0.0 <= momentum <= 1.0:
        raise ValueError(f"prototype momentum must lie in [0, 1], got {momentum}")
    if previous is None:
        return np.array(means, dtype=np.float64)
    return (1.0 - momentum) * means + momentum * previous


def hard_feature(feature, prototype, scale: float) -> Array:
    """Push a feature away from its class prototype: (1+s)*z - s*prototype.

    Exact affine map, no clamping; the pushed feature sits (1+s) times as far
    from the prototype as the original.
    """
    z = np.asarray(feature, dtype=np.float64)
    p = np.asarray(prototype, dtype=np.float64)
    if z.shape != p.shape:
        raise ValueError(f"feature shape {z.shape} and prototype shape {p.shape} differ")
    return (1.0 + scale) * z - scale * p


def _softmax_np(v: Array, axis: int = -1) -> Array:
    e = v - v.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _stratified_indices(shard: Dataset, n: int, rng: np.random.Generator) -> Array:
    """Sample n pair indices, stratified to the shard's class histogram."""
    hist = shard.class_histogram()
    counts = largest_remainder(hist * (n / len(shard)), n)
    chosen = []
    for c in range(shard.class_count):
        take = int(counts[c])
        if take == 0:
            continue
        pool = np.flatnonzero(shard.labels == c)
        picked = rng.choice(pool, size=min(take, pool.size), replace=False)
        chosen.append(np.sort(picked))
    return np.concatenate(chosen).astype(np.int64)


def _matching_targets(
    model: Model, reals: Array, labels: Array, prototypes, scale: float
) -> tuple[Array, Array]:
    """Per-row matching distribution p = softmax(target * mask) and the mask.

    The target is each real's feature, hardened against its class prototype
    (row `label` of the (classes, width) `prototypes`) unless `prototypes`
    is None; the mask is ReLU of the CAM at the row's label. The CAM
    of class y is the gradient of logit y w.r.t. the features (Grad-CAM,
    arXiv:1610.02391); the classifier is exactly the last dense layer, so it
    is column y of that layer's weight, whatever the features are.
    """
    z = model.extract(reals)
    targets = z if prototypes is None else hard_feature(z, prototypes[labels], scale)
    weight = model._plan[model._split][0]
    masks = np.maximum(weight[:, labels].T, 0.0)
    return _softmax_np(targets * masks, axis=1), masks


def _input_grad(
    model: Model,
    x: Array,
    target_probs: Array,
    masks: Array,
    onehot: Array,
    cfg: SynthesisConfig,
) -> Array:
    """Gradient w.r.t. x of the rows' summed synthesis loss, in closed form.

    Cross entropy enters at the logits as softmax - onehot. The masked KL
    enters at the features: with q the softmax of the masked features,
    d/dq of -sum p*log(q+eps) is -p/(q+eps), followed by the softmax and mask
    backward passes. An all-zero mask gives the row no matching gradient.
    """
    cache = []
    features, logits = model.forward(x, cache)
    q = _softmax_np(features * masks, axis=1)
    # d_features = q * (g - sum(g * q)) * masks with g = -p / (q + eps), in place
    g = q + cfg.kl_eps
    np.divide(target_probs, g, out=g)
    np.negative(g, out=g)
    g -= (g * q).sum(axis=1, keepdims=True)
    g *= q
    g *= masks
    d_logits = _softmax_np(logits, axis=1)
    d_logits -= onehot
    return backward_input(model, cache, d_logits, g)


def _row_losses(
    model: Model,
    x: Array,
    target_probs: Array,
    masks: Array,
    labels: Array,
    cfg: SynthesisConfig,
) -> Array:
    """Per-sample synthesis loss: masked KL + cross entropy."""
    features, logits = model.forward(x)
    q = _softmax_np(features * masks, axis=1)
    kl_rows = (target_probs * (np.log(target_probs + cfg.kl_eps) - np.log(q + cfg.kl_eps))).sum(axis=1)
    ce_rows = -log_softmax_rows(logits)[np.arange(len(labels)), labels]
    return kl_rows + ce_rows


def synthesize(
    model: Model,
    shard: Dataset,
    prototypes,
    cfg: SynthesisConfig,
    rng: np.random.Generator,
    client_id: int = 0,
) -> SyntheticDataset:
    """Optimize a batch of Gaussian-initialized inputs against paired reals.

    Pairs are drawn stratified to the shard's class histogram; all pairs are
    optimized jointly for `cfg.steps` Adam steps, clamping inputs into [0, 1]
    after every step. Labels are copied from the paired reals and the loss of
    each sample is recorded at initialization and after the final step.
    """
    if len(shard) == 0:
        raise ValueError("cannot synthesize from an empty shard")
    n = min(cfg.count, len(shard))
    pair_idx = _stratified_indices(shard, n, rng)
    reals = shard.inputs[pair_idx]
    labels = shard.labels[pair_idx]

    target_probs, masks = _matching_targets(model, reals, labels, prototypes, cfg.scale)
    zero_rows = int((~masks.any(axis=1)).sum())
    if zero_rows:
        logger.warning("synthesize: %d of %d samples have all-zero CAM masks", zero_rows, n)
    onehot = np.eye(model.class_count)[labels]

    x_hat = rng.standard_normal(reals.shape)
    initial = _row_losses(model, x_hat, target_probs, masks, labels, cfg)
    optimizer = Adam(cfg.adam_lr)
    for _ in range(cfg.steps):
        optimizer.step(x_hat, _input_grad(model, x_hat, target_probs, masks, onehot, cfg))
        np.clip(x_hat, 0.0, 1.0, out=x_hat)
    final = _row_losses(model, x_hat, target_probs, masks, labels, cfg)

    return SyntheticDataset(synthetic_rows(shard, pair_idx, x_hat, initial, final), client_id)


def dump_synthetic_dataset(
    event: SynthesisEvent,
    scale: float,
    proto_momentum: float,
    out_dir: Path,
) -> list[Path]:
    """Write one synthesis event: per client, JSON metadata plus a CSV of rows."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for syn in event.datasets:
        stem = f"client_{syn.client_id:02d}"
        rows = syn.samples
        initial, final = rows["initial_loss"].tolist(), rows["final_loss"].tolist()
        meta = {
            "client_id": syn.client_id,
            "round": event.round_index,
            "count": len(rows),
            "mu": scale,
            "lambda": proto_momentum,
            "feature_dim": event.feature_dim,
            "model_fingerprint": event.model_fingerprint,
            "initial_loss": initial,
            "final_loss": final,
            "psnr": rows["psnr"].tolist(),
        }
        json_path = out_dir / f"{stem}.json"
        json_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")

        header = [f"x{i}" for i in range(rows["x"].shape[1])] + ["label", "paired_index", "initial_loss", "final_loss"]
        cells = zip(rows["x"], rows["label"].tolist(), rows["paired_index"].tolist(), initial, final)
        paths += [json_path, write_csv(out_dir / f"{stem}.csv", header, (x.tolist() + rest for x, *rest in cells))]
    return paths
