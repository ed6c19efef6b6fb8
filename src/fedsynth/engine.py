"""FedAvg round orchestration with optional synthetic-data regularization."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Model, Sgd, Tensor, cross_entropy_grad, mlp_backward, mlp_forward
from .config import ExperimentConfig, derive_seed
from .data import Dataset
from .errors import ConfigError
from .metrics import MetricsRow, accuracy, alignment_score, class_feature_means, psnr
from .synthesis import (
    SynthesisConfig,
    SyntheticDataset,
    SyntheticSample,
    synthesize,
    update_prototypes,
)

Array = np.ndarray


@dataclass
class ClientState:
    """One client's local shard, prototypes, round accumulators, and RNG stream."""

    client_id: int
    shard: Dataset
    rng: np.random.Generator
    prototypes: dict[int, Array] = field(default_factory=dict)
    feature_sums: dict[int, Array] = field(default_factory=dict)
    feature_counts: dict[int, int] = field(default_factory=dict)


@dataclass
class SynthesisEvent:
    """Record of one synthesis round: per-client outputs plus summary stats."""

    round_index: int
    datasets: list[SyntheticDataset]
    mean_psnr: float
    mean_loss_drop: float
    improved_fraction: float


@dataclass
class GlobalState:
    """Everything the server tracks across rounds."""

    model: Model
    clients: list[ClientState]
    test_data: Dataset
    server_rng: np.random.Generator
    round_index: int = 0
    syn_samples: list[SyntheticSample] = field(default_factory=list)
    rows: list[MetricsRow] = field(default_factory=list)
    events: list[SynthesisEvent] = field(default_factory=list)
    # the last round's post-update models, keyed by active client id
    local_models: dict[int, Model] = field(default_factory=dict)
    syn_psnr: float | None = None
    syn_loss_drop: float | None = None


def sample_clients(total: int, active_count: int, rng: np.random.Generator) -> list[int]:
    """Uniform sample without replacement, returned in ascending order."""
    if not 1 <= active_count <= total:
        raise ConfigError(f"active client count {active_count} outside [1, {total}]")
    picked = rng.choice(total, size=active_count, replace=False)
    return sorted(int(k) for k in picked)


def _syn_targets(syn_samples, indices, class_count: int) -> Array:
    targets = np.zeros((len(indices), class_count))
    for row, j in enumerate(indices):
        sample = syn_samples[int(j)]
        if sample.soft_label is not None:
            targets[row] = sample.soft_label
        else:
            targets[row, sample.label] = 1.0
    return targets


def _accumulate_features(state: ClientState, features: Array, labels: Array) -> None:
    for c in np.unique(labels):
        rows = features[labels == c]
        key = int(c)
        if key in state.feature_sums:
            state.feature_sums[key] += rows.sum(axis=0)
            state.feature_counts[key] += rows.shape[0]
        else:
            state.feature_sums[key] = rows.sum(axis=0)
            state.feature_counts[key] = rows.shape[0]


def local_update(
    model: Model,
    shard: Dataset,
    syn_samples,
    alpha: float,
    epochs: int,
    batch_size: int,
    optimizer: Sgd,
    state: ClientState,
    proto_momentum: float,
) -> tuple[Model, float]:
    """Run epochs * ceil(|shard| / batch) SGD steps on the blended objective.

    Each step draws a real mini-batch (shuffled without replacement per epoch)
    and, when alpha < 1, a synthetic mini-batch (with replacement if the pool
    is smaller than the batch); the step loss is
    alpha * CE(real) + (1 - alpha) * CE(synthetic). Real-sample features are
    accumulated per class along the way and folded into the client's
    prototypes after the last step. Returns the model and the mean step loss.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    use_syn = alpha < 1.0
    if use_syn and not syn_samples:
        raise ValueError("synthetic samples are required when alpha < 1")
    if epochs < 1 or batch_size < 1:
        raise ConfigError(f"epochs {epochs} and batch_size {batch_size} must be positive")

    state.feature_sums = {}
    state.feature_counts = {}
    n = len(shard)
    steps = math.ceil(n / batch_size)
    losses = []
    for _ in range(epochs):
        order = state.rng.permutation(n)
        for s in range(steps):
            idx = order[s * batch_size : (s + 1) * batch_size]
            batch_labels = shard.labels[idx]
            features, logits, cache = mlp_forward(model, shard.inputs[idx])
            # alpha is 1 without the synthetic branch, which keeps the real-only
            # step bitwise equal to the graph's
            loss, d_logits = cross_entropy_grad(logits, batch_labels, alpha)
            grads = mlp_backward(model, cache, d_logits)
            if use_syn:
                syn_idx = state.rng.choice(
                    len(syn_samples), size=batch_size, replace=len(syn_samples) < batch_size
                )
                batch_x = np.stack([syn_samples[int(j)].x for j in syn_idx])
                _, syn_logits, syn_cache = mlp_forward(model, batch_x)
                syn_targets = _syn_targets(syn_samples, syn_idx, model.class_count)
                syn_loss, d_syn_logits = cross_entropy_grad(syn_logits, syn_targets, 1.0 - alpha)
                syn_grads = mlp_backward(model, syn_cache, d_syn_logits)
                grads = {name: grads[name] + syn_grads[name] for name in grads}
                loss = loss + syn_loss
            _accumulate_features(state, features, batch_labels)
            optimizer.step(model.params, grads)
            losses.append(float(loss))
    state.prototypes = update_prototypes(state.feature_sums, state.feature_counts, state.prototypes, proto_momentum)
    return model, float(np.mean(losses))


def aggregate(models) -> Model:
    """Unweighted parameter mean, summed in the given (ascending client) order."""
    models = list(models)
    if not models:
        raise ValueError("aggregate requires at least one model")
    first = models[0]
    for m in models[1:]:
        if m.architecture != first.architecture:
            raise ValueError("cannot aggregate models with differing architectures")
    averaged: dict[str, Tensor] = {}
    for name, p in first.params.items():
        total = p.data.copy()
        for m in models[1:]:
            q = m.params.get(name)
            if q is None or q.data.shape != p.data.shape:
                raise ValueError(f"parameter {name!r} mismatch during aggregation")
            total += q.data
        averaged[name] = Tensor(total / len(models), requires_grad=True)
    return Model(first.architecture, averaged)


def _run_synthesis(state: GlobalState, config: ExperimentConfig, round_index: int) -> None:
    """Every client synthesizes against the current global model; the pooled
    result replaces the previous shared synthetic dataset."""
    syn_cfg = SynthesisConfig(
        count=config.syn_per_client,
        steps=config.syn_steps,
        adam_lr=config.adam_lr,
        scale=config.mu,
        kl_eps=config.kl_eps,
    )
    datasets = []
    for client in state.clients:
        rng = np.random.default_rng(
            derive_seed(config.seed, f"synthesis/round={round_index}/client={client.client_id}")
        )
        datasets.append(
            synthesize(state.model, client.shard, client.prototypes, syn_cfg, rng, client.client_id, round_index)
        )
    psnr_values = []
    drops = []
    improved = 0
    for ds, client in zip(datasets, state.clients):
        for s in ds.samples:
            psnr_values.append(psnr(s.x, client.shard.inputs[s.paired_index]))
            drops.append(s.initial_loss - s.final_loss)
            improved += s.final_loss < s.initial_loss
    total = sum(len(ds) for ds in datasets)
    state.syn_samples = [s for ds in datasets for s in ds.samples]
    state.syn_psnr = float(np.mean(psnr_values))
    state.syn_loss_drop = float(np.mean(drops))
    state.events.append(
        SynthesisEvent(round_index, datasets, state.syn_psnr, state.syn_loss_drop, improved / total)
    )


def run_round(state: GlobalState, config: ExperimentConfig) -> GlobalState:
    """Advance the simulation by one communication round.

    Synthesis fires first whenever the round index is a multiple of the
    synthesis interval (never at round 0 and never for plain FedAvg); then the
    active set trains locally on the downloaded global model, the local models
    are kept on the state and averaged. Before the first synthesis event the
    blend weight is forced to 1 (the shared pool is still empty). One metrics
    row is emitted.
    """
    start = time.perf_counter()
    t = state.round_index + 1
    synthesis_due = config.algorithm != "fedavg" and t % config.syn_interval == 0
    if synthesis_due:
        _run_synthesis(state, config, t)
    active = sample_clients(len(state.clients), config.active_clients, state.server_rng)

    alpha = config.alpha if state.syn_samples else 1.0
    state.local_models = {}
    mean_losses = []
    for k in active:
        client = state.clients[k]
        local = state.model.copy()
        optimizer = Sgd(config.learning_rate, config.momentum, config.weight_decay)
        local, mean_loss = local_update(
            local,
            client.shard,
            state.syn_samples,
            alpha,
            config.local_epochs,
            config.batch_size,
            optimizer,
            client,
            config.lam,
        )
        state.local_models[k] = local
        mean_losses.append(mean_loss)
    state.model = aggregate(state.local_models.values())
    state.round_index = t

    # alignment of the clients' own representations: every local model embeds
    # the same probe inputs, so centroid gaps are drift, not shard sampling
    align = None
    if config.algorithm != "fedavg":
        means = {k: class_feature_means(m, state.test_data) for k, m in state.local_models.items()}
        align = alignment_score(means)
    wall_ms = (time.perf_counter() - start) * 1000.0
    state.rows.append(
        MetricsRow(
            round_index=t,
            accuracy=accuracy(state.model, state.test_data),
            train_loss=float(np.mean(mean_losses)),
            syn_size=len(state.syn_samples),
            psnr=state.syn_psnr,
            loss_drop=state.syn_loss_drop,
            alignment=align,
            wall_ms=wall_ms,
        )
    )
    return state
