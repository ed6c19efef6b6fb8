"""The per-client local update, one client at a time: the reference the
stacked `engine.local_update` is pinned against.

It runs each step of one client as its own forward, backward and SGD step on
a single `Model`, with the draws, row order and loss formulas the stacked
update reproduces.
"""

import math

import numpy as np

from fedsynth.autodiff import backward_params, cross_entropy_grad
from fedsynth.synthesis import update_prototypes


def _accumulate_features(sums, counts, features, labels):
    for c in np.flatnonzero(np.bincount(labels)).tolist():
        rows = features[labels == c]
        if c in sums:
            sums[c] += rows.sum(axis=0)
            counts[c] += rows.shape[0]
        else:
            sums[c] = rows.sum(axis=0)
            counts[c] = rows.shape[0]


def local_update_one(model, shard, syn_samples, alpha, epochs, batch_size, optimizer, state, proto_momentum):
    """Train `model` in place on one client's blended objective; returns (model, mean step loss).

    The real rows' features are summed per class in row order, and their
    per-class means (zero for a class the shard lacks) are folded into
    `state.prototypes`.
    """
    use_syn = alpha < 1.0
    sums, counts = {}, {}
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
                targets = np.concatenate((onehot[idx], np.eye(model.class_count)[syn["label"]]))
                weight = row_weights[len(idx)]
            else:
                inputs, targets, weight = shard.inputs[idx], onehot[idx], alpha
            cache = []
            features, logits = model.forward(inputs, cache)
            loss, d_logits = cross_entropy_grad(logits, targets, weight)
            _accumulate_features(sums, counts, features[: len(idx)], batch_labels)
            optimizer.step(model, backward_params(model, cache, d_logits))
            losses.append(float(loss))
    means = np.zeros((model.class_count, model.feature_dim))
    for c in counts:
        means[c] = sums[c] / counts[c]
    state.prototypes = update_prototypes(means, state.prototypes, proto_momentum)
    return model, float(np.mean(losses))
