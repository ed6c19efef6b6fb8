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
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Adam, Model, Tape, backward_input, log_softmax
from .config import ExperimentConfig, derive_seed
from .data import Dataset, largest_remainder
from .metrics import psnr, write_csv

logger = logging.getLogger(__name__)

Array = np.ndarray


@dataclass
class SynthesisConfig:
    """Knobs for one synthesis job, taken from a validated `ExperimentConfig`.

    `scale` controls how far real features are pushed past their prototype
    before matching (0 disables the push).
    """

    count: int = 100
    steps: int = 500
    adam_lr: float = 0.02
    scale: float = 0.5
    kl_eps: float = 1e-8


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
        ("client", np.int64),
    ]
    return np.dtype((SyntheticRow, fields))


def synthetic_rows(shard: Dataset, paired_index, x, initial_loss=0.0, final_loss=0.0, client=0) -> Array:
    """The one row format of synthetic data, from synthesis to local training.

    A numpy record array with columns `x` (n, dim), `label` (the hard label
    of the paired real `shard` row, which the row trains on), `psnr` (against
    that row), `paired_index`, `initial_loss`, `final_loss` and `client` (the
    id of the client that made the row). Columns read as arrays
    (`rows["x"]`) and rows as records (`rows[i].x`).
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
    rows["client"] = client
    return rows


@dataclass
class SyntheticDataset:
    """The rows (`synthetic_rows`) of one `synthesize` job."""

    samples: Array


@dataclass
class SynthesisEvent:
    """One synthesis round: the pool of every client's rows, in client order.

    Every client inverts the same global model, so its fingerprint and
    extractor width are recorded once, here, for all of them. Summaries of
    the rows, such as a metrics row's mean PSNR, are computed from the rows.
    """

    round_index: int
    model_fingerprint: str
    feature_dim: int
    pool: Array


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


@functools.lru_cache(maxsize=None)
def _ones(width: int) -> Array:
    """A read-only ones vector: `_ones(width) @ m` sums the columns of a feature-major (..., width, n) array.

    One BLAS product is faster than a reduction over axis -2, and it sums
    more exactly than that reduction's row-by-row adds: the softmax stays
    within 4 ulp of an exactly summed one at width 32, which the adds miss
    by one ulp. Cached: allocating the vector costs about as much as the
    product.
    """
    ones = np.ones(width)
    ones.flags.writeable = False
    return ones


def _softmax(v: Array, out: Array | None = None) -> Array:
    """Softmax over the width axis (-2) of a feature-major (..., width, n) array: one distribution per sample."""
    out = np.subtract(v, v.max(axis=-2, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= (_ones(out.shape[-2]) @ out)[..., None, :]
    return out


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


def _cam_masks(model: Model, labels: Array) -> Array:
    """ReLU of the CAM at each label, a (1, width, n) mask.

    The CAM of class y is the gradient of logit y w.r.t. the features
    (Grad-CAM, arXiv:1610.02391); the classifier is exactly the last dense
    layer, so it is column y of that layer's weight, whatever the features
    are. A label whose column has no positive entry gets an all-zero mask.
    """
    return np.maximum(model._plan[model._split][0][..., labels], 0.0)


def _matching_targets(
    model: Model, reals: Array, labels: Array, prototypes, scale: float
) -> tuple[Array, Array]:
    """Per-sample matching distribution p = softmax(target * mask) and the mask.

    `reals` is a feature-major (1, dim, n) batch for the stack of one
    `model`, and both results are (1, width, n). The target is each real's
    feature, hardened against its class prototype (row `label` of the
    (classes, width) `prototypes`) unless `prototypes` is None; the mask is
    `_cam_masks` at the sample's label.
    """
    z = model.extract(reals)
    targets = z if prototypes is None else hard_feature(z, prototypes[labels].T[None], scale)
    masks = _cam_masks(model, labels)
    return _softmax(targets * masks), masks


def _masked_walk(model: Model, x: Array, masks: Array, tape: Tape) -> tuple[Array, Array]:
    """Walk a (1, dim, n) batch on `tape`: q, the softmax of the masked features, and the tape's logits.

    The synthesis loss (`_row_losses`) and its gradient (`_input_grad`)
    are both taken from one such walk.
    """
    features, logits = model.forward(x, tape)
    q = features * masks
    return _softmax(q, out=q), logits


def _row_losses(q: Array, logits: Array, target_probs: Array, labels: Array, cfg: SynthesisConfig) -> Array:
    """Per-sample synthesis loss, masked KL + cross entropy, from a `_masked_walk`'s (q, logits): (1, n)."""
    kl = (target_probs * (np.log(target_probs + cfg.kl_eps) - np.log(q + cfg.kl_eps))).sum(axis=-2)
    ce = -log_softmax(logits)[:, labels, np.arange(len(labels))]
    return kl + ce


def _input_grad(
    model: Model,
    tape: Tape,
    q: Array,
    logits: Array,
    target_probs: Array,
    masks: Array,
    onehot: Array,
    cfg: SynthesisConfig,
) -> Array:
    """Gradient w.r.t. the walked batch of the samples' summed synthesis loss, in closed form.

    (q, logits) is the `_masked_walk` last taken on `tape`; the gradient
    is the tape's. Cross entropy enters at the logits as softmax - onehot.
    The masked KL enters at the features: d/dq of -sum p*log(q+eps) is
    -p/(q+eps), followed by the softmax and mask backward passes. An
    all-zero mask gives the sample no matching gradient.
    """
    # d_features = q * (s - r) * masks with r = p / (q + eps) and s = sum(r * q), in place
    g = np.add(q, cfg.kl_eps, out=tape.d_features)
    np.divide(target_probs, g, out=g)
    np.subtract((_ones(q.shape[-2]) @ (g * q))[..., None, :], g, out=g)
    g *= q
    g *= masks
    d_logits = _softmax(logits, out=tape.d_logits)
    d_logits -= onehot
    return backward_input(model, tape, d_logits, g)


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
    optimized jointly, as one feature-major (1, dim, n) batch against the
    stack of one `model`, for `cfg.steps` Adam steps on one tape, clamping inputs into [0, 1] after
    every step. Labels are copied from the paired reals and the loss of
    each sample is recorded at initialization and after the final step,
    from the walks the steps take: one before the first step and one
    after each, all on the job's tape.
    """
    if len(shard) == 0:
        raise ValueError("cannot synthesize from an empty shard")
    n = min(cfg.count, len(shard))
    pair_idx = _stratified_indices(shard, n, rng)
    labels = shard.labels[pair_idx]

    target_probs, masks = _matching_targets(model, shard.inputs[pair_idx].T[None], labels, prototypes, cfg.scale)
    onehot = np.eye(model.class_count)[:, labels][None]

    # the job's one tape; the inputs live in it, where its first dense layer reads them
    tape = Tape(model, n)
    x_hat = tape.input
    x_hat[0] = rng.standard_normal((n, shard.inputs.shape[1])).T
    walk = _masked_walk(model, x_hat, masks, tape)
    initial = _row_losses(*walk, target_probs, labels, cfg)
    optimizer = Adam(cfg.adam_lr)
    for _ in range(cfg.steps):
        optimizer.step(x_hat, _input_grad(model, tape, *walk, target_probs, masks, onehot, cfg))
        x_hat.clip(0.0, 1.0, out=x_hat)
        walk = _masked_walk(model, x_hat, masks, tape)
    final = _row_losses(*walk, target_probs, labels, cfg)

    return SyntheticDataset(synthetic_rows(shard, pair_idx, x_hat[0].T, initial[0], final[0], client_id))


# An event of at least this many row-steps (its rows times `syn_steps`) runs its
# jobs on forked worker processes. Below it the workers' start and stop, 20-25 ms
# on a 2-CPU box, costs more than the second CPU saves: 10-job events on the
# desk data break even at 15,000-20,000 row-steps with BLAS on one thread.
POOL_ROW_STEPS = 20_000

# the (job, clients) of the event a forked worker runs, set once in each worker
_worker_event = None


def _job(model: Model, cfg: SynthesisConfig, seed: int, round_index: int, client) -> Array:
    """One client's rows of a synthesis event, from its own round stream."""
    rng = np.random.default_rng(derive_seed(seed, f"synthesis/round={round_index}/client={client.client_id}"))
    return synthesize(model, client.shard, client.prototypes, cfg, rng, client.client_id).samples


def _start_worker(*event) -> None:
    """Worker initializer: hold the event's arguments, which arrive by fork."""
    global _worker_event
    _worker_event = event


def _worker_job(index: int) -> Array:
    """Client `index`'s rows, made in a worker."""
    job, clients = _worker_event
    return job(clients[index])


def _pool_size(clients, cfg: SynthesisConfig) -> int:
    """Worker processes for an event; 0 (in-process) below POOL_ROW_STEPS, on one CPU, or without the OS calls."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 0
    if sum(min(cfg.count, len(client.shard)) for client in clients) * cfg.steps < POOL_ROW_STEPS:
        return 0
    workers = min(len(os.sched_getaffinity(0)), len(clients))
    return workers if workers > 1 else 0


def _pooled_jobs(workers: int, job, clients) -> list:
    """Every client's rows, `job(client)` on `workers` forked processes, as the in-process loop makes them.

    The workers inherit numpy's error state with the fork. Results are
    taken in client order, so the first failing client raises its error,
    and the jobs not yet started are then cancelled. A worker that dies
    mid-job raises `BrokenProcessPool` instead of leaving the event
    waiting. A job sends back its rows only, so no log record crosses the
    fork. No worker outlives the call.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a worker takes the model and clients as they are, with no
    # pickling and no fresh import; with fork the executor starts every worker
    # before its own manager thread
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _start_worker, (job, clients)) as executor:
        return list(executor.map(_worker_job, range(len(clients))))


def run_event(model: Model, clients, config: ExperimentConfig, round_index: int) -> SynthesisEvent:
    """One synthesis event: each client's rows against `model`, from its own round stream, pooled in client order.

    The jobs are independent, so an event of POOL_ROW_STEPS or more runs
    them on the CPUs the process may use; the pool is byte-identical to
    the in-process loop's. Once every job has made its rows, each client
    with rows of an all-zero CAM mask gets one warning, in client order,
    counted here from its rows' labels; an event whose job raises warns
    of none.
    """
    cfg = SynthesisConfig(
        count=config.syn_per_client,
        steps=config.syn_steps,
        adam_lr=config.adam_lr,
        scale=config.mu,
        kl_eps=config.kl_eps,
    )
    job = functools.partial(_job, model, cfg, config.seed, round_index)
    workers = _pool_size(clients, cfg)
    rows = _pooled_jobs(workers, job, clients) if workers else [job(client) for client in clients]
    for samples in rows:
        zero_rows = int((~_cam_masks(model, samples["label"]).any(axis=-2)).sum())
        if zero_rows:
            logger.warning("synthesize: %d of %d samples have all-zero CAM masks", zero_rows, len(samples))
    # rows back from a worker carry an equal but distinct dtype, which concatenates to plain void rows
    pool = np.concatenate(rows, dtype=_row_dtype(model.input_dim))
    return SynthesisEvent(round_index, model_fingerprint(model), model.feature_dim, pool)


def dump_synthetic_dataset(
    event: SynthesisEvent,
    scale: float,
    proto_momentum: float,
    out_dir: Path,
) -> list[Path]:
    """Write one synthesis event: per client in its pool, JSON metadata plus a CSV of rows."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    clients = event.pool["client"]
    # the distinct ids in pool order; a first `np.unique` call would import numpy.ma (~1 MB)
    for client in dict.fromkeys(clients.tolist()):
        stem = f"client_{client:02d}"
        rows = event.pool[clients == client]
        initial, final = rows["initial_loss"].tolist(), rows["final_loss"].tolist()
        meta = {
            "client_id": client,
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
