"""FedAvg round orchestration with optional synthetic-data regularization."""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Model, Sgd, Tape, backward_params, cross_entropy_grad
from .config import ExperimentConfig
from .data import Dataset
from .metrics import MetricsRow, accuracy, alignment_score, class_feature_means
from .synthesis import SynthesisEvent, run_event, update_prototypes

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

    model: Model  # the global model, a stack of one
    clients: list[ClientState]
    test_data: Dataset
    server_rng: np.random.Generator
    # the shared pool: the last synthesis event's `pool`, the same array (`synthetic_rows`)
    syn_samples: Array
    rows: list[MetricsRow] = field(default_factory=list)
    events: list[SynthesisEvent] = field(default_factory=list)
    # the last round's post-update models: a stack, one row per active client in ascending id order
    local_models: Model | None = None


def sample_clients(total: int, active_count: int, rng: np.random.Generator) -> list[int]:
    """Uniform sample without replacement, returned in ascending order."""
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
    """Train every client from the stack of one `model` on its blended objective, all of them as one stack.

    A client runs epochs * ceil(|shard| / batch) SGD steps. Each step draws
    a real mini-batch (shuffled without replacement per epoch) and, when
    alpha < 1, a synthetic mini-batch (with replacement if the pool is
    smaller than the batch); the step loss is
    alpha * CE(real) + (1 - alpha) * CE(synthetic). Every step is one
    `cross_entropy_grad` call: a real-only step weights its real rows 1 and
    divides by their count; a blended step runs both batches as one
    forward/backward pass, each row weighted alpha / (real rows) or
    (1 - alpha) / batch_size.

    The clients train as a stack of models: one stack step is one forward,
    one backward and one SGD step for every client still training. The
    stack holds the largest shard first, so those clients are a prefix of
    it, and the others keep their parameters and velocity. A short batch is
    padded to full size with rows of weight 0 and an all-zero target, so
    they stay out of the loss, the gradient and the prototypes. The whole
    update walks one `Tape`, and the shrinking stack its prefix. Each
    step's one-hot real targets sum its real-row features per class, in row
    order; the per-class means are folded into each client's prototypes at
    the end.

    Returns the trained stack, one row per client, and the mean step loss of
    each client, both in the order of `clients`.
    """
    use_syn = alpha < 1.0
    if use_syn and not len(syn_samples):
        raise ValueError("synthetic samples are required when alpha < 1")

    order = sorted(range(len(clients)), key=lambda c: -len(clients[c].shard))  # the stack's rows
    stacked = [clients[c] for c in order]
    shards = [client.shard for client in stacked]
    sizes = np.array([len(shard) for shard in shards])
    classes = model.class_count
    # the gather table: every shard's rows, one all-zero padding row labelled
    # `classes` (an all-zero target), then the synthetic pool
    pad = int(sizes.sum())
    parts = [(s.inputs, s.labels) for s in shards] + [(np.zeros((1, model.input_dim)), [classes])]
    if use_syn:
        parts.append((syn_samples["x"], syn_samples["label"]))
    inputs, labels = (np.concatenate(column) for column in zip(*parts))
    index = _draw_batches(stacked, sizes, pad, len(syn_samples) if use_syn else 0, epochs, batch_size)
    is_real = index[..., :batch_size] != pad
    real = np.count_nonzero(is_real, axis=-1)
    if use_syn:
        real_weight = np.where(is_real, alpha / np.maximum(real, 1)[..., None], 0.0)
        weights = np.concatenate((real_weight, np.full(real_weight.shape, (1.0 - alpha) / batch_size)), axis=-1)
        counts = np.ones(real.shape)
    else:
        weights, counts = is_real.astype(np.float64), real

    stack = Model(model.architecture, np.tile(model.flat, (len(stacked), 1)))
    steps = np.count_nonzero(real, axis=1)
    sums = np.zeros((len(stacked), classes, model.feature_dim))
    losses = np.zeros(real.shape)
    # one tape for the update; a step's one-hot targets are feature-major, like its logits
    live, tape = stack, Tape(stack, index.shape[-1])
    targets, class_column = np.empty_like(tape.logits), np.arange(classes)[:, None]
    for t in range(real.shape[1]):
        size = int(np.count_nonzero(steps > t))
        if len(live.flat) != size:
            live, tape, targets = Model(model.architecture, stack.flat[:size]), tape.prefix(size), targets[:size]
        rows = index[:size, t]
        features, logits = live.forward(inputs[rows].swapaxes(-1, -2), tape)
        np.equal(labels[rows][:, None], class_column, out=targets)
        loss, d_logits = cross_entropy_grad(logits, targets, weights[:size, t], counts[:size, t], tape.d_logits)
        sums[:size] += targets[..., :batch_size] @ features[..., :batch_size].swapaxes(-1, -2)
        optimizer.step(live, backward_params(live, tape, d_logits))
        losses[:size, t] = loss

    # every shard row is seen once per epoch; an absent class's row stays a finite zero
    seen = epochs * np.stack([shard.class_histogram() for shard in shards])
    means = sums / np.maximum(seen, 1)[..., None]
    mean_losses = np.array([losses[row, :n].mean() for row, n in enumerate(steps)])
    back = np.argsort(order)  # stack rows back into client order
    for client, client_means in zip(clients, means[back]):
        client.prototypes = update_prototypes(client_means, client.prototypes, proto_momentum)
    return Model(model.architecture, stack.flat[back]), mean_losses[back]


def aggregate(stack: Model) -> Model:
    """Unweighted parameter mean of a stack, summed in row (ascending client) order; a stack of one."""
    if not len(stack.flat):
        raise ValueError("aggregate requires at least one model")
    return Model(stack.architecture, stack.flat.sum(axis=0, keepdims=True) / len(stack.flat))


def run_round(state: GlobalState, config: ExperimentConfig) -> GlobalState:
    """Advance the simulation by one communication round.

    Synthesis fires first whenever the round index is a multiple of the
    synthesis interval (never at round 0 and never for plain FedAvg); then the
    active set trains locally on the downloaded global model, the local models
    are kept on the state and averaged. Before the first synthesis event the
    blend weight is forced to 1 (the shared pool is still empty). One metrics
    row is emitted; its `psnr` and `loss_drop` are means over the shared pool,
    None while the pool is empty.
    """
    start = time.perf_counter()
    t = len(state.rows) + 1
    synthesis_due = config.algorithm != "fedavg" and t % config.syn_interval == 0
    if synthesis_due:
        state.events.append(run_event(state.model, state.clients, config, t))
        state.syn_samples = state.events[-1].pool
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

    # alignment of the clients' own representations: every local model embeds
    # the same probe inputs, so centroid gaps are drift, not shard sampling
    align = None
    if config.algorithm != "fedavg":
        align = alignment_score(class_feature_means(state.local_models, state.test_data))
    pool = state.syn_samples
    wall_ms = (time.perf_counter() - start) * 1000.0
    state.rows.append(
        MetricsRow(
            round_index=t,
            accuracy=accuracy(state.model, state.test_data),
            train_loss=float(np.mean(mean_losses)),
            syn_size=len(pool),
            psnr=float(np.mean(pool["psnr"])) if len(pool) else None,
            loss_drop=float(np.mean(pool["initial_loss"] - pool["final_loss"])) if len(pool) else None,
            alignment=align,
            wall_ms=wall_ms,
        )
    )
    return state
