"""The MLP, its closed-form forward and backward passes, and the optimizers.

Gradients are written out by hand: `backward` walks the model's layers in
reverse over the layer inputs a forward pass cached, with cross entropy
entering at the logits (`cross_entropy_grad`) and any feature-space loss at
the extractor/classifier split. A `Model` is one MLP or a stack of them
(local training runs a round's clients as one stack); the walks run over
the leading stack axis, so one forward and one backward serve both.
Everything is float64 so gradient checks can run at tight tolerances.
Models are value-semantic and may be copied across threads freely. The
tests keep a graph autodiff as the reference these closed forms are pinned
against.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

Array = np.ndarray


def log_softmax_rows(z: Array) -> Array:
    """Row-wise log-softmax over the last axis, stabilized by max subtraction.

    The one definition behind every cross entropy here: `cross_entropy_grad`
    and the per-row synthesis losses.
    """
    shifted = z - z.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def cross_entropy_grad(logits: Array, target: Array, weight=1.0, rows: Array | None = None) -> tuple:
    """Weighted mean cross entropy of row-wise softmax(logits) against a target matrix.

    `target` is a (batch, classes) matrix: one-hot rows for hard labels,
    soft rows otherwise. Returns the weighted loss value and its gradient
    w.r.t. the logits. A vector `weight` holds one weight per row and
    replaces the mean: the loss is then sum_r weight[r] * CE(row r), so one
    call can blend rows from different batches.

    For a stack of models the logits and targets are (models, batch,
    classes), a `weight` array is (models, batch), and the loss is one value
    per model. `rows`, with a scalar weight, holds each model's count of
    real rows: its mean runs over them, and the rows past it are padding,
    which must carry all-zero targets and get a zero gradient.
    Target rows are not checked to sum to one here: local training passes
    one-hot rows, built once per update from the real and synthetic rows'
    labels.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim not in (2, 3):
        raise ValueError("logits must be a (batch, classes) matrix or a (models, batch, classes) stack")
    batch = z.shape[-2]
    target = np.asarray(target, dtype=np.float64)
    if target.shape != z.shape:
        raise ValueError(f"targets must have shape {z.shape}, got {target.shape}")
    log_probs = log_softmax_rows(z)
    if np.ndim(weight) == 0:
        d_logits = np.exp(log_probs)
        d_logits -= target
        d_logits *= weight
        if rows is None:
            count = batch
            d_logits /= batch
        else:
            count = np.asarray(rows)
            d_logits /= count[:, None, None]
            d_logits[np.arange(batch) >= count[:, None]] = 0.0
        return -(target * log_probs).sum(axis=(-2, -1)) / count * weight, d_logits
    row_weight = np.asarray(weight, dtype=np.float64)
    if row_weight.shape != z.shape[:-1]:
        expected = " x ".join(map(str, z.shape[:-1]))
        raise ValueError(f"expected {expected} row weights, got shape {row_weight.shape}")
    row_weight = row_weight[..., None]
    d_logits = np.exp(log_probs)
    d_logits -= target
    d_logits *= row_weight
    return -(row_weight * target * log_probs).sum(axis=(-2, -1)), d_logits


_DENSE = re.compile(r"^dense\((\d+)\s*,\s*(\d+)\)$")


def parse_architecture(layers: Sequence[str]) -> list[tuple]:
    """Parse layer strings ("dense(in,out)" or "relu") and validate the chain."""
    if not layers:
        raise ConfigError("architecture: at least one dense layer is required")
    parsed: list[tuple] = []
    width: int | None = None
    for i, item in enumerate(layers):
        text = str(item).strip()
        if text == "relu":
            parsed.append(("relu",))
            continue
        m = _DENSE.match(text)
        if m is None:
            raise ConfigError(f"architecture: cannot parse layer {item!r}")
        fan_in, fan_out = int(m.group(1)), int(m.group(2))
        if fan_in < 1 or fan_out < 1:
            raise ConfigError(f"architecture: non-positive width in {item!r}")
        if width is not None and fan_in != width:
            raise ConfigError(f"architecture: layer {i} expects input width {fan_in}, got {width}")
        parsed.append(("dense", fan_in, fan_out))
        width = fan_out
    if parsed[-1][0] != "dense":
        raise ConfigError("architecture: last layer must be dense (it is the classifier)")
    return parsed


class _Layout(NamedTuple):
    """What an architecture fixes for every model built from it."""

    layers: tuple  # parse_architecture's layers
    split: int  # index of the classifier, the last dense layer
    first_dense: int
    params: tuple  # (name, start, stop, shape) of every parameter, in `flat` order


@functools.lru_cache(maxsize=None)
def _architecture_layout(architecture: tuple[str, ...]) -> _Layout:
    # parsed once per architecture: `Model.copy` and `aggregate` build models
    # of a known architecture every round
    layers = tuple(parse_architecture(architecture))
    dense = [i for i, layer in enumerate(layers) if layer[0] == "dense"]
    params = []
    start = 0
    for d, i in enumerate(dense):
        _, fan_in, fan_out = layers[i]
        for suffix, shape in (("weight", (fan_in, fan_out)), ("bias", (fan_out,))):
            stop = start + math.prod(shape)
            params.append((f"dense{d}.{suffix}", start, stop, shape))
            start = stop
    return _Layout(layers, dense[-1], dense[0], tuple(params))


class Model:
    """MLP with value-semantic parameters, split as extractor + final dense classifier.

    All parameters live in one contiguous float64 vector, `flat`, in name
    order (dense0.weight, dense0.bias, dense1.weight, ...); each `params`
    entry is a reshaped view into it. The last dense layer is the
    classifier; everything before it (including any trailing relu) is the
    feature extractor.

    A (models, parameters) `flat` makes a stack of models that train side by
    side: each `params` entry gains a leading models axis, and the forward
    pass maps a (models, batch, width) input to per-model outputs.
    """

    def __init__(self, architecture: Sequence[str], flat: Array):
        self.architecture = [str(s) for s in architecture]
        self._layers, self._split, self._first_dense, self._layout = _architecture_layout(tuple(self.architecture))
        self.input_dim = self._layers[self._first_dense][1]
        self.flat = np.ascontiguousarray(flat, dtype=np.float64)
        size = self._layout[-1][2]
        if self.flat.ndim not in (1, 2) or self.flat.shape[-1] != size:
            raise ValueError(f"{self.architecture} has {size} parameters, got a vector of shape {self.flat.shape}")
        self.params = self.views(self.flat)
        # the layer plan the forward and backward walks follow: None for a
        # relu, (weight view, bias view, weight slice, bias slice) for a
        # dense layer; a stack's biases broadcast over each model's batch
        stacked = self.flat.ndim == 2
        dense = iter(
            (
                self.params[w[0]],
                self.params[b[0]][:, None] if stacked else self.params[b[0]],
                slice(w[1], w[2]),
                slice(b[1], b[2]),
            )
            for w, b in zip(self._layout[::2], self._layout[1::2])
        )
        self._plan = [None if layer[0] == "relu" else next(dense) for layer in self._layers]

    def views(self, vector: Array) -> dict[str, Array]:
        """Named, reshaped views into a vector laid out like `flat` (parameters or gradients)."""
        lead = vector.shape[:-1]
        return {name: vector[..., start:stop].reshape(lead + shape) for name, start, stop, shape in self._layout}

    @classmethod
    def initialize(cls, architecture: Sequence[str], rng: np.random.Generator) -> "Model":
        """Seeded init: every weight and bias uniform in +/- sqrt(1/fan_in)."""
        weights = _architecture_layout(tuple(str(s) for s in architecture)).params[::2]
        draws = []
        for _, _, _, (fan_in, fan_out) in weights:
            bound = math.sqrt(1.0 / fan_in)
            draws.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
            draws.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(architecture, np.concatenate(draws))

    def copy(self) -> "Model":
        return Model(self.architecture, self.flat.copy())

    @property
    def feature_dim(self) -> int:
        return self._layers[self._split][1]

    @property
    def class_count(self) -> int:
        return self._layers[self._split][2]

    def _walk(self, h: Array, start: int, stop: int, cache: list | None) -> Array:
        for layer in self._plan[start:stop]:
            if cache is not None:
                cache.append(h)
            if layer is None:
                h = np.where(h > 0, h, 0.0)
            else:
                h = h @ layer[0]
                h += layer[1]
        return h

    def extract(self, batch, cache: list | None = None) -> Array:
        """Extractor forward pass; returns the features.

        With a `cache` list, appends the input of every layer walked, all
        that `backward` needs. For a single dense layer the features are the
        batch itself.
        """
        h = np.ascontiguousarray(batch, dtype=np.float64)
        if h.ndim != self.flat.ndim + 1 or h.shape[:-2] != self.flat.shape[:-1] or h.shape[-1] != self.input_dim:
            raise ValueError(f"batch shape {h.shape} incompatible with input width {self.input_dim}")
        return self._walk(h, 0, self._split, cache)

    def classify(self, features, cache: list | None = None) -> Array:
        """Classifier forward pass from a feature batch; returns the logits."""
        f = np.ascontiguousarray(features, dtype=np.float64)
        if f.ndim != self.flat.ndim + 1 or f.shape[:-2] != self.flat.shape[:-1] or f.shape[-1] != self.feature_dim:
            raise ValueError(f"feature shape {f.shape} incompatible with classifier width {self.feature_dim}")
        return self._walk(f, self._split, len(self._plan), cache)

    def forward(self, batch, cache: list | None = None) -> tuple[Array, Array]:
        """Full forward pass; returns (features, logits), caching like `extract`."""
        features = self.extract(batch, cache)
        return features, self._walk(features, self._split, len(self._plan), cache)


def backward(
    model: Model,
    cache: list[Array],
    d_logits: Array,
    d_features: Array | None = None,
    grad: Array | None = None,
) -> Array:
    """Backpropagate through the forward pass whose layer inputs are in `cache`.

    `d_logits` is the loss gradient w.r.t. the logits; `d_features`, when
    given, joins at the extractor/classifier split (for a single dense layer
    the features are the input itself). With a `grad` vector laid out like
    `model.flat`, fills it with the parameter gradients and returns it,
    stopping at the first dense layer; without, returns the gradient w.r.t.
    the batch. Neither `d_logits` nor `d_features` is written to.
    """
    plan = model._plan
    g = d_logits
    for i in range(len(plan) - 1, -1, -1):
        layer = plan[i]
        if layer is None:
            g *= cache[i] > 0  # g is never the caller's: the top layer is dense
        else:
            weight, _, w_slice, b_slice = layer
            if grad is not None:
                np.matmul(cache[i].swapaxes(-1, -2), g, out=grad[..., w_slice].reshape(weight.shape))
                np.sum(g, axis=-2, out=grad[..., b_slice])
                if i == model._first_dense:
                    return grad  # nothing below the first dense layer has parameters
            g = g @ weight.swapaxes(-1, -2)
        if i == model._split and d_features is not None:
            g += d_features
    return g


def backward_params(model: Model, cache: list[Array], d_logits: Array, d_features: Array | None = None) -> Array:
    """Gradient w.r.t. the model's parameters, one vector laid out like `model.flat`."""
    return backward(model, cache, d_logits, d_features, np.empty_like(model.flat))


def backward_input(model: Model, cache: list[Array], d_logits: Array, d_features: Array | None = None) -> Array:
    """Gradient w.r.t. the batch the cached forward pass started from."""
    return backward(model, cache, d_logits, d_features)


class Sgd:
    """Mini-batch SGD with classical momentum; weight decay joins the raw gradient."""

    def __init__(self, learning_rate: float, momentum: float = 0.0, weight_decay: float = 0.0):
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity: Array | None = None

    def step(self, model: Model, grad: Array, clients: Sequence[int] | None = None) -> None:
        """Update `model.flat` in place from a gradient laid out like it.

        For a stack, a later step may update a prefix of the stack the first
        step saw (models that finished drop off its end): it then moves the
        first rows of the velocity and leaves the others alone. `clients`
        names the stacked models in a NaN error (default: their row).
        """
        if grad.shape != model.flat.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match the {model.flat.size} parameters")
        nan = np.isnan(grad)
        if nan.any():
            where = ""
            if grad.ndim == 2:
                row = int(nan.any(axis=1).argmax())
                grad, where = grad[row], f" of client {row if clients is None else clients[row]}"
            name = next(name for name, g in model.views(grad).items() if np.isnan(g).any())
            raise ValueError(f"NaN gradient for parameter {name!r}{where}")
        decayed = None
        if self.weight_decay:
            decayed = self.weight_decay * model.flat
            decayed += grad
            grad = decayed
        if self.velocity is None:
            self.velocity = np.zeros_like(model.flat)
        velocity = self.velocity[: len(model.flat)] if model.flat.ndim == 2 else self.velocity
        if velocity.shape != model.flat.shape:
            raise ValueError(f"velocity shape {self.velocity.shape} does not cover parameters {model.flat.shape}")
        velocity *= self.momentum
        velocity += grad
        model.flat -= np.multiply(velocity, self.learning_rate, out=decayed)


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Bias-corrected Adam with the standard betas and epsilon; used here to optimize synthetic inputs."""

    def __init__(self, learning_rate: float):
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self.moment1: Array | None = None
        self.moment2: Array | None = None

    def step(self, x: Array, grad: Array) -> None:
        """Update the float64 array `x` in place."""
        if grad.shape != x.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match {x.shape}")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - ADAM_BETA1**t
        c2 = 1.0 - ADAM_BETA2**t
        if self.moment1 is None:
            self.moment1 = np.zeros_like(x)
            self.moment2 = np.zeros_like(x)
        m, v = self.moment1, self.moment2
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        x -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
