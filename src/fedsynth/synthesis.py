"""Synthetic data generation by class-relevant feature matching.

A synthetic input starts as Gaussian noise and is optimized so that its
CAM-masked features match those of a paired real sample, optionally pushed
away from the class prototype ("hardened") before matching. A two-sample
mixup generator is included as the privacy baseline.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import (
    Adam,
    Model,
    Tensor,
    add,
    backward_input,
    log,
    mlp_backward,
    mlp_forward,
    mul,
    no_grad,
    reduce_sum,
    reshape,
    softmax,
    softmax_cross_entropy,
)
from .data import Dataset, largest_remainder
from .errors import ConfigError
from .metrics import psnr

logger = logging.getLogger(__name__)

Array = np.ndarray


@dataclass
class SynthesisConfig:
    """Knobs for one synthesis job.

    `scale` controls how far real features are pushed past their prototype
    before matching (0 disables the push); `match_weight` is the fixed weight
    of the feature-matching term relative to the classification term.
    """

    count: int = 100
    steps: int = 500
    adam_lr: float = 0.02
    scale: float = 0.5
    kl_eps: float = 1e-8
    match_weight: float = 1.0

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


@dataclass
class SyntheticSample:
    """One optimized input with its hard label and provenance."""

    x: Array
    label: int
    source_client: int
    round_index: int
    paired_index: int
    initial_loss: float = 0.0
    final_loss: float = 0.0
    soft_label: Array | None = None


@dataclass
class SyntheticDataset:
    """Samples produced by one client in one synthesis event.

    `feature_dim` is the extractor width used during synthesis (0 for the
    mixup baseline, which never touches feature space).
    """

    samples: list[SyntheticSample] = field(default_factory=list)
    feature_dim: int = 0
    client_id: int = 0
    round_index: int = 0
    model_fingerprint: str = ""

    def __len__(self) -> int:
        return len(self.samples)


def model_fingerprint(model: Model) -> str:
    digest = hashlib.sha256()
    for name, p in model.params.items():
        digest.update(name.encode())
        digest.update(p.data.tobytes())
    return digest.hexdigest()[:16]


def compute_cam(model: Model, features, class_index: int) -> Array:
    """Gradient of the pre-softmax logit of `class_index` w.r.t. the features.

    Runs a backward pass through the classifier head only. Positive entries
    mark feature coordinates that support the class.
    """
    if not 0 <= class_index < model.class_count:
        raise ValueError(f"class index {class_index} out of range for {model.class_count} classes")
    z = np.asarray(features.data if isinstance(features, Tensor) else features, dtype=np.float64)
    flat = z.ndim == 1
    leaf = Tensor(z.reshape(1, -1) if flat else z, requires_grad=True)
    logits = model.classify(leaf)
    onehot = np.zeros(logits.data.shape)
    onehot[:, class_index] = 1.0
    picked = reduce_sum(mul(logits, onehot))
    grad = backward_input(picked, leaf)
    return grad.reshape(z.shape).copy()


def update_prototypes(sums, counts, previous, momentum: float) -> dict[int, Array]:
    """Fold per-class epoch means into prototypes.

    The first observation of a class adopts its mean outright; afterwards the
    prototype moves as (1-momentum)*mean + momentum*previous. Classes with no
    observations this round keep their previous prototype.
    """
    if not 0.0 <= momentum <= 1.0:
        raise ValueError(f"prototype momentum must lie in [0, 1], got {momentum}")
    prototypes = dict(previous)
    for c in sorted(counts):
        n = counts[c]
        if n <= 0:
            continue
        mean = np.asarray(sums[c], dtype=np.float64) / n
        if c in previous:
            prototypes[c] = (1.0 - momentum) * mean + momentum * previous[c]
        else:
            prototypes[c] = mean
    return prototypes


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
    shifted = v - v.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def masked_kl(synthetic_features, target_features, cam, eps: float = 1e-8) -> Tensor:
    """KL divergence between softmax-normalized, CAM-masked feature vectors.

    Both vectors are multiplied by ReLU(cam), softmax-normalized over the
    feature axis, and compared with `eps` inside each log. Differentiable with
    respect to `synthetic_features` only; an all-zero mask yields a constant 0.
    """
    feats = synthetic_features if isinstance(synthetic_features, Tensor) else Tensor(synthetic_features)
    target = np.asarray(
        target_features.data if isinstance(target_features, Tensor) else target_features, dtype=np.float64
    )
    g = np.asarray(cam.data if isinstance(cam, Tensor) else cam, dtype=np.float64)
    if feats.data.shape != target.shape or target.shape != g.shape or target.ndim != 1:
        raise ValueError("masked_kl expects three equal-length vectors")
    mask = np.maximum(g, 0.0)
    if not mask.any():
        logger.warning("masked_kl: CAM mask is all zero; no class-relevant features at this sample")
        return Tensor(0.0)
    p = _softmax_np(target * mask)
    q = softmax(mul(feats, mask), axis=-1)
    cross = reduce_sum(mul(log(add(q, float(eps))), p))
    entropy = float(np.sum(p * np.log(p + eps)))
    return add(mul(cross, -1.0), entropy)


def synthesis_loss(
    model: Model,
    synthetic_input: Tensor,
    real_input,
    label: int,
    prototype,
    scale: float,
    eps: float = 1e-8,
    match_weight: float = 1.0,
) -> Tensor:
    """Loss driving one synthetic sample: masked feature KL plus classification.

    The real feature is computed without gradient tracking, hardened against
    the prototype when one is available (falling back to plain matching
    otherwise), and masked by its own CAM; the synthetic input is the only
    optimization variable.
    """
    x = np.asarray(real_input, dtype=np.float64)
    x_hat = synthetic_input if isinstance(synthetic_input, Tensor) else Tensor(synthetic_input, requires_grad=True)
    if x_hat.data.shape != x.shape:
        raise ValueError(f"synthetic shape {x_hat.data.shape} and real shape {x.shape} differ")
    with no_grad():
        z = model.extract(x.reshape(1, -1)).data[0]
    target = hard_feature(z, prototype, scale) if prototype is not None else z
    cam = compute_cam(model, target, int(label))
    flat = x_hat.data.ndim == 1
    batch = reshape(x_hat, (1, x.size)) if flat else x_hat
    features = model.extract(batch)
    kl = masked_kl(reshape(features, (model.feature_dim,)), target, cam, eps)
    ce = softmax_cross_entropy(model.classify(features), [int(label)])
    return add(mul(kl, float(match_weight)), ce)


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
    when one exists; the mask is ReLU of the CAM at the row's label, as in
    `synthesis_loss`. The classifier is exactly the last dense layer, so the
    CAM of class y (`compute_cam`) is column y of its weight, whatever the
    features are.
    """
    z, _, _ = mlp_forward(model, reals)
    targets = np.empty_like(z)
    for i, y in enumerate(labels):
        proto = prototypes.get(int(y)) if prototypes else None
        targets[i] = hard_feature(z[i], proto, scale) if proto is not None else z[i]
    weight = model.params[f"dense{model._dense_count() - 1}.weight"].data
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
    features, logits, cache = mlp_forward(model, x)
    q = _softmax_np(features * masks, axis=1)
    g = -target_probs / (q + cfg.kl_eps)
    d_features = cfg.match_weight * (q * (g - (g * q).sum(axis=1, keepdims=True)) * masks)
    return mlp_backward(model, cache, _softmax_np(logits, axis=1) - onehot, d_features, wrt="input")


def _row_losses(
    model: Model,
    x: Array,
    target_probs: Array,
    masks: Array,
    labels: Array,
    cfg: SynthesisConfig,
) -> Array:
    """Per-sample synthesis loss: match_weight * masked KL + cross entropy."""
    features, logits, _ = mlp_forward(model, x)
    q = _softmax_np(features * masks, axis=1)
    kl_rows = (target_probs * (np.log(target_probs + cfg.kl_eps) - np.log(q + cfg.kl_eps))).sum(axis=1)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    ce_rows = -log_probs[np.arange(len(labels)), labels]
    return cfg.match_weight * kl_rows + ce_rows


def synthesize(
    model: Model,
    shard: Dataset,
    prototypes,
    cfg: SynthesisConfig,
    rng: np.random.Generator,
    client_id: int = 0,
    round_index: int = 0,
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

    x_hat = Tensor(rng.standard_normal(reals.shape))
    initial = _row_losses(model, x_hat.data, target_probs, masks, labels, cfg)
    optimizer = Adam(cfg.adam_lr)
    for _ in range(cfg.steps):
        optimizer.step({"x": x_hat}, {"x": _input_grad(model, x_hat.data, target_probs, masks, onehot, cfg)})
        np.clip(x_hat.data, 0.0, 1.0, out=x_hat.data)
    final = _row_losses(model, x_hat.data, target_probs, masks, labels, cfg)

    samples = [
        SyntheticSample(
            x=x_hat.data[i].copy(),
            label=int(labels[i]),
            source_client=client_id,
            round_index=round_index,
            paired_index=int(pair_idx[i]),
            initial_loss=float(initial[i]),
            final_loss=float(final[i]),
        )
        for i in range(len(pair_idx))
    ]
    return SyntheticDataset(samples, model.feature_dim, client_id, round_index, model_fingerprint(model))


def mixup_generate(
    shard: Dataset,
    count: int,
    rng: np.random.Generator,
    client_id: int = 0,
    round_index: int = 0,
) -> SyntheticDataset:
    """Two-sample input averaging with 50/50 soft labels (privacy baseline).

    The first parent serves as the paired real sample; same-class parents
    collapse to a hard label.
    """
    if len(shard) < 2:
        raise ValueError("mixup requires at least two real samples")
    samples = []
    for _ in range(count):
        i, j = (int(v) for v in rng.choice(len(shard), size=2, replace=False))
        x = 0.5 * (shard.inputs[i] + shard.inputs[j])
        yi, yj = int(shard.labels[i]), int(shard.labels[j])
        soft = None
        if yi != yj:
            soft = np.zeros(shard.class_count)
            soft[yi] = 0.5
            soft[yj] = 0.5
        samples.append(
            SyntheticSample(
                x=x,
                label=yi,
                source_client=client_id,
                round_index=round_index,
                paired_index=i,
                soft_label=soft,
            )
        )
    return SyntheticDataset(samples, 0, client_id, round_index, "")


def dump_synthetic_dataset(
    syn: SyntheticDataset,
    shard: Dataset,
    scale: float,
    proto_momentum: float,
    out_dir: Path,
) -> list[Path]:
    """Write one client's synthesis output: JSON metadata plus a CSV of rows."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"client_{syn.client_id:02d}"
    psnr_values = [psnr(s.x, shard.inputs[s.paired_index]) for s in syn.samples]
    meta = {
        "client_id": syn.client_id,
        "round": syn.round_index,
        "count": len(syn.samples),
        "mu": scale,
        "lambda": proto_momentum,
        "feature_dim": syn.feature_dim,
        "model_fingerprint": syn.model_fingerprint,
        "initial_loss": [s.initial_loss for s in syn.samples],
        "final_loss": [s.final_loss for s in syn.samples],
        "psnr": psnr_values,
    }
    json_path = out_dir / f"{stem}.json"
    json_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    dim = syn.samples[0].x.shape[0] if syn.samples else 0
    header = [f"x{i}" for i in range(dim)] + ["label", "paired_index", "initial_loss", "final_loss"]
    lines = [",".join(header)]
    for s in syn.samples:
        lines.append(
            ",".join(
                [repr(float(v)) for v in s.x]
                + [str(s.label), str(s.paired_index), repr(s.initial_loss), repr(s.final_loss)]
            )
        )
    csv_path = out_dir / f"{stem}.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [json_path, csv_path]
