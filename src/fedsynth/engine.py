"""FedAvg round orchestration with optional synthetic-data regularization."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Model, Sgd, backward_params, cross_entropy_grad
from .config import ExperimentConfig, derive_seed
from .data import Dataset
from .errors import ConfigError
from .metrics import MetricsRow, accuracy, alignment_score, class_feature_means
from .synthesis import SynthesisConfig, SyntheticDataset, synthesize, update_prototypes

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
    # the shared pool: the last synthesis event's rows (`synthetic_rows`)
    syn_samples: Array
    round_index: int = 0
    rows: list[MetricsRow] = field(default_factory=list)
    events: list[SynthesisEvent] = field(default_factory=list)
    # the last round's post-update models, keyed by active client id
    local_models: dict[int, Model] = field(default_factory=dict)


def sample_clients(total: int, active_count: int, rng: np.random.Generator) -> list[int]:
    """Uniform sample without replacement, returned in ascending order."""
    if not 1 <= active_count <= total:
        raise ConfigError(f"active client count {active_count} outside [1, {total}]")
    picked = rng.choice(total, size=active_count, replace=False)
    return sorted(int(k) for k in picked)


def _accumulate_features(state: ClientState, features: Array, labels: Array) -> None:
    for c in np.flatnonzero(np.bincount(labels)).tolist():
        rows = features[labels == c]
        if c in state.feature_sums:
            state.feature_sums[c] += rows.sum(axis=0)
            state.feature_counts[c] += rows.shape[0]
        else:
            state.feature_sums[c] = rows.sum(axis=0)
            state.feature_counts[c] = rows.shape[0]


def local_update(
    model: Model,
    shard: Dataset,
    syn_samples: Array,
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
    alpha * CE(real) + (1 - alpha) * CE(synthetic). A blended step runs both
    batches as one forward/backward pass, each row's logit gradient weighted
    by alpha / (real rows) or (1 - alpha) / batch_size. Real-sample features
    are accumulated per class along the way and folded into the client's
    prototypes after the last step. Returns the model and the mean step loss.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    use_syn = alpha < 1.0
    if use_syn and not len(syn_samples):
        raise ValueError("synthetic samples are required when alpha < 1")
    if epochs < 1 or batch_size < 1:
        raise ConfigError(f"epochs {epochs} and batch_size {batch_size} must be positive")

    state.feature_sums = {}
    state.feature_counts = {}
    n = len(shard)
    steps = math.ceil(n / batch_size)
    onehot = np.eye(model.class_count)[shard.labels]
    if use_syn:
        replace = len(syn_samples) < batch_size
        # logit-gradient weights of a blended batch of k real rows: a full batch, and each epoch's last one
        row_weights = {
            k: np.repeat((alpha / k, (1.0 - alpha) / batch_size), (k, batch_size))
            for k in (batch_size, n - (steps - 1) * batch_size)
        }
    losses = []
    for _ in range(epochs):
        order = state.rng.permutation(n)
        for s in range(steps):
            idx = order[s * batch_size : (s + 1) * batch_size]
            batch_labels = shard.labels[idx]
            if use_syn:
                syn_idx = state.rng.choice(len(syn_samples), size=batch_size, replace=replace)
                syn = syn_samples[syn_idx]
                inputs = np.concatenate((shard.inputs[idx], syn["x"]))
                targets = np.concatenate((onehot[idx], syn["target"]))
                weight = row_weights[len(idx)]
            else:
                inputs, targets, weight = shard.inputs[idx], onehot[idx], alpha
            cache = []
            features, logits = model.forward(inputs, cache)
            loss, d_logits = cross_entropy_grad(logits, targets, weight)
            _accumulate_features(state, features[: len(idx)], batch_labels)
            optimizer.step(model, backward_params(model, cache, d_logits))
            losses.append(float(loss))
    state.prototypes = update_prototypes(state.feature_sums, state.feature_counts, state.prototypes, proto_momentum)
    return model, float(np.mean(losses))


def aggregate(models) -> Model:
    """Unweighted parameter mean, summed in the given (ascending client) order."""
    models = list(models)
    if not models:
        raise ValueError("aggregate requires at least one model")
    first = models[0]
    total = first.flat.copy()
    for m in models[1:]:
        if m.architecture != first.architecture:
            raise ValueError("cannot aggregate models with differing architectures")
        total += m.flat
    return Model(first.architecture, total / len(models))


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
    state.syn_samples = pool = np.concatenate([ds.samples for ds in datasets])
    mean_psnr = float(np.mean(pool["psnr"]))
    mean_drop = float(np.mean(pool["initial_loss"] - pool["final_loss"]))
    improved = np.count_nonzero(pool["final_loss"] < pool["initial_loss"]) / len(pool)
    state.events.append(SynthesisEvent(round_index, datasets, mean_psnr, mean_drop, improved))


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

    alpha = config.alpha if len(state.syn_samples) else 1.0
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
    event = state.events[-1] if state.events else None
    wall_ms = (time.perf_counter() - start) * 1000.0
    state.rows.append(
        MetricsRow(
            round_index=t,
            accuracy=accuracy(state.model, state.test_data),
            train_loss=float(np.mean(mean_losses)),
            syn_size=len(state.syn_samples),
            psnr=event.mean_psnr if event else None,
            loss_drop=event.mean_loss_drop if event else None,
            alignment=align,
            wall_ms=wall_ms,
        )
    )
    return state
