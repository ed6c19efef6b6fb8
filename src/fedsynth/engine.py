"""FedAvg round orchestration with optional synthetic-data regularization."""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Model, Sgd, backward_params, cross_entropy_grad
from .config import ExperimentConfig, derive_seed
from .data import Dataset
from .errors import ConfigError
from .metrics import MetricsRow, accuracy, alignment_score, class_feature_means
from .synthesis import SynthesisConfig, SynthesisEvent, model_fingerprint, synthesize, update_prototypes

Array = np.ndarray


@dataclass
class ClientState:
    """One client's local shard, RNG stream and class prototypes.

    `prototypes` is a (classes, width) array, None until the client first
    trains; rows of classes absent from the shard are never read.
    """

    client_id: int
    shard: Dataset
    rng: np.random.Generator
    prototypes: Array | None = None


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
    # the last round's post-update models: a stack, one row per active client in ascending id order
    local_models: Model | None = None


def sample_clients(total: int, active_count: int, rng: np.random.Generator) -> list[int]:
    """Uniform sample without replacement, returned in ascending order."""
    if not 1 <= active_count <= total:
        raise ConfigError(f"active client count {active_count} outside [1, {total}]")
    picked = rng.choice(total, size=active_count, replace=False)
    return sorted(int(k) for k in picked)


def _draw_batches(clients, sizes: Array, pad: int, pool: int, epochs: int, batch_size: int) -> Array:
    """Every client's batches as rows of one gather table, drawn up front.

    Client i's shard occupies the table rows after the shards before it,
    `pad` is an all-zero row, and a synthetic pool of `pool` rows follows
    it. Each client draws from its own generator in the order of a
    one-client loop: per epoch one permutation of its shard, then one pool
    choice per step when `pool` is nonzero. Returns (clients, steps, width)
    indices: per step a batch of real rows filled up with `pad`, then the
    synthetic rows.
    """
    per_epoch = -(-sizes // batch_size)
    index = np.full((len(clients), epochs * int(per_epoch.max()), 2 * batch_size if pool else batch_size), pad)
    replace = pool < batch_size
    for i, (client, n, k, offset) in enumerate(zip(clients, sizes, per_epoch, np.cumsum(sizes) - sizes)):
        for e in range(epochs):
            real = np.full(k * batch_size, pad)
            real[:n] = client.rng.permutation(n) + offset
            index[i, e * k : (e + 1) * k, :batch_size] = real.reshape(k, batch_size)
            if pool:
                for s in range(e * k, (e + 1) * k):
                    index[i, s, batch_size:] = pad + 1 + client.rng.choice(pool, size=batch_size, replace=replace)
    return index


def local_update(
    model: Model,
    clients: Sequence[ClientState],
    syn_samples: Array,
    alpha: float,
    epochs: int,
    batch_size: int,
    optimizer: Sgd,
    proto_momentum: float,
) -> tuple[Model, Array]:
    """Train every client from `model` on its blended objective, all of them as one stack.

    A client runs epochs * ceil(|shard| / batch) SGD steps. Each step draws
    a real mini-batch (shuffled without replacement per epoch) and, when
    alpha < 1, a synthetic mini-batch (with replacement if the pool is
    smaller than the batch); the step loss is
    alpha * CE(real) + (1 - alpha) * CE(synthetic). A blended step runs both
    batches as one forward/backward pass, each row's logit gradient weighted
    by alpha / (real rows) or (1 - alpha) / batch_size.

    The clients train as a stack of models: one stack step is one forward,
    one backward and one SGD step for every client still training. The
    stack holds the largest shard first, so those clients are a prefix of
    it, and the others keep their parameters and velocity. A short batch is
    padded to full size with rows that get no gradient and stay out of the
    loss and the prototypes. Real-row features are summed per class, per
    step in row order; their per-class means are folded into each client's
    prototypes at the end.

    Returns the trained stack, one row per client, and the mean step loss of
    each client, both in the order of `clients`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    use_syn = alpha < 1.0
    if use_syn and not len(syn_samples):
        raise ValueError("synthetic samples are required when alpha < 1")
    if epochs < 1 or batch_size < 1:
        raise ConfigError(f"epochs {epochs} and batch_size {batch_size} must be positive")

    order = sorted(range(len(clients)), key=lambda c: -len(clients[c].shard))  # the stack's rows
    stacked = [clients[c] for c in order]
    shards = [client.shard for client in stacked]
    sizes = np.array([len(shard) for shard in shards])
    classes, width = model.class_count, model.feature_dim
    # the gather table: every shard's rows, one all-zero padding row labelled
    # `classes` (an all-zero target), then the synthetic pool
    pad = int(sizes.sum())
    parts = [(s.inputs, s.labels) for s in shards] + [(np.zeros((1, model.input_dim)), [classes])]
    if use_syn:
        parts.append((syn_samples["x"], syn_samples["label"]))
    inputs, labels = (np.concatenate(column) for column in zip(*parts))
    targets = np.eye(classes + 1, classes)[labels]
    index = _draw_batches(stacked, sizes, pad, len(syn_samples) if use_syn else 0, epochs, batch_size)
    real = np.count_nonzero(index[..., :batch_size] != pad, axis=-1)
    if use_syn:
        real_weight = np.where(np.arange(batch_size) < real[..., None], alpha / np.maximum(real, 1)[..., None], 0.0)
        weights = np.concatenate((real_weight, np.full(real_weight.shape, (1.0 - alpha) / batch_size)), axis=-1)
    # a real row's features sum into its stack row's class slot, padding into one extra slot
    slots = (np.arange(len(stacked))[:, None, None] * (classes + 1) + labels[index[..., :batch_size]]) * width
    per_row = (classes + 1) * width

    stack = Model(model.architecture, np.tile(model.flat, (len(stacked), 1)))
    ids = [client.client_id for client in stacked]
    steps = np.count_nonzero(real, axis=1)
    sums = np.zeros(len(stacked) * per_row)
    losses = np.zeros(real.shape)
    live = stack
    for t in range(real.shape[1]):
        size = int(np.count_nonzero(steps > t))
        if len(live.flat) != size:
            live = Model(model.architecture, stack.flat[:size])
        rows = index[:size, t]
        cache = []
        features, logits = live.forward(inputs[rows], cache)
        if use_syn:
            loss, d_logits = cross_entropy_grad(logits, targets[rows], weights[:size, t])
        else:
            loss, d_logits = cross_entropy_grad(logits, targets[rows], alpha, real[:size, t])
        bins = (slots[:size, t, :, None] + np.arange(width)).ravel()
        sums[: size * per_row] += np.bincount(bins, features[:, :batch_size].ravel(), size * per_row)
        optimizer.step(live, backward_params(live, cache, d_logits), ids[:size])
        losses[:size, t] = loss

    # every shard row is seen once per epoch; an absent class's row stays a finite zero
    seen = epochs * np.stack([np.bincount(s.labels, minlength=classes) for s in shards])
    means = sums.reshape(len(stacked), classes + 1, width)[:, :classes] / np.maximum(seen, 1)[..., None]
    mean_losses = np.array([losses[row, :n].mean() for row, n in enumerate(steps)])
    back = np.argsort(order)  # stack rows back into client order
    for client, client_means in zip(clients, means[back]):
        client.prototypes = update_prototypes(client_means, client.prototypes, proto_momentum)
    return Model(model.architecture, stack.flat[back]), mean_losses[back]


def aggregate(stack: Model) -> Model:
    """Unweighted parameter mean of a stack, summed in row (ascending client) order."""
    if not len(stack.flat):
        raise ValueError("aggregate requires at least one model")
    return Model(stack.architecture, stack.flat.sum(axis=0) / len(stack.flat))


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
        datasets.append(synthesize(state.model, client.shard, client.prototypes, syn_cfg, rng, client.client_id))
    state.syn_samples = pool = np.concatenate([ds.samples for ds in datasets])
    mean_psnr = float(np.mean(pool["psnr"]))
    mean_drop = float(np.mean(pool["initial_loss"] - pool["final_loss"]))
    improved = np.count_nonzero(pool["final_loss"] < pool["initial_loss"]) / len(pool)
    fingerprint = model_fingerprint(state.model)
    state.events.append(
        SynthesisEvent(round_index, fingerprint, state.model.feature_dim, datasets, mean_psnr, mean_drop, improved)
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

    alpha = config.alpha if len(state.syn_samples) else 1.0
    state.local_models = None  # the last round's stack is not needed while this one trains
    state.local_models, mean_losses = local_update(
        state.model,
        [state.clients[k] for k in active],
        state.syn_samples,
        alpha,
        config.local_epochs,
        config.batch_size,
        Sgd(config.learning_rate, config.momentum, config.weight_decay),
        config.lam,
    )
    state.model = aggregate(state.local_models)
    state.round_index = t

    # alignment of the clients' own representations: every local model embeds
    # the same probe inputs, so centroid gaps are drift, not shard sampling
    align = None
    if config.algorithm != "fedavg":
        align = alignment_score(class_feature_means(state.local_models, state.test_data))
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
