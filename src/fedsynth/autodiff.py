"""The MLP, its closed-form forward and backward passes, and the optimizers.

Gradients are written out by hand: `backward` walks the model's layers in
reverse over what a forward pass cached (each dense layer's input and each
relu's positive mask), with cross entropy entering at the logits
(`cross_entropy_grad`) and any feature-space loss at the extractor/classifier
split. Every `Model` is a stack of MLPs: local training runs a round's
local models as one stack, and the global model is a stack of one. The walks
run over the leading stack axis.
Everything is float64 so gradient checks can run at tight tolerances. The
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


def cross_entropy_grad(logits: Array, target: Array, weight: Array, count: Array) -> tuple:
    """Weighted cross entropy of row-wise softmax(logits) against a target stack, one loss per model.

    `logits` and `target` are (models, batch, classes) stacks: one-hot
    target rows for hard labels, soft rows otherwise. `weight` holds one
    weight per (model, row) and `count` one divisor per model: a model's
    loss is sum_r weight[r] * CE(row r) / count, and the gradient w.r.t.
    its logits is (softmax - target) * weight / count. A mean over a
    model's first k rows is weight 1 on them, 0 on the padding rows after
    them, and count k; a blend of rows from different batches is their
    blend weights with count 1.
    Target rows are not checked to sum to one here: local training passes
    one-hot rows, built once per update from the real and synthetic rows'
    labels.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 3:
        raise ValueError(f"logits must be a (models, batch, classes) stack, got shape {z.shape}")
    target = np.asarray(target, dtype=np.float64)
    if target.shape != z.shape:
        raise ValueError(f"targets must have shape {z.shape}, got {target.shape}")
    row_weight = np.asarray(weight, dtype=np.float64)
    if row_weight.shape != z.shape[:-1]:
        expected = " x ".join(map(str, z.shape[:-1]))
        raise ValueError(f"expected {expected} row weights, got shape {row_weight.shape}")
    count = np.asarray(count)
    if count.shape != z.shape[:1]:
        raise ValueError(f"expected {len(z)} row counts, got shape {count.shape}")
    row_weight = row_weight[..., None]
    log_probs = log_softmax_rows(z)
    d_logits = np.exp(log_probs)
    d_logits -= target
    d_logits *= row_weight
    d_logits /= count[:, None, None]
    return -(row_weight * target * log_probs).sum(axis=(-2, -1)) / count, d_logits


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
def architecture_layout(architecture: tuple[str, ...]) -> _Layout:
    """Parse an architecture and lay out its parameters, once per process.

    `validate_config` checks a config's architecture through this layout, and
    every `Model` built from it later (`local_update` and `aggregate` build
    them every round) reuses the cached result.
    """
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
    """A stack of MLPs with value-semantic parameters, each split as extractor + final dense classifier.

    All parameters live in one contiguous float64 (models, parameters)
    array, `flat`: each row is one model's parameters in name order
    (dense0.weight, dense0.bias, dense1.weight, ...), and each `params`
    entry is a reshaped view into it with a leading models axis. The forward
    pass maps a (models, batch, width) input to per-model outputs; a single
    model, such as the global one, is a stack of one. The last dense layer
    is the classifier; everything before it (including any trailing relu) is
    the feature extractor.
    """

    def __init__(self, architecture: Sequence[str], flat: Array):
        self.architecture = [str(s) for s in architecture]
        self._layers, self._split, self._first_dense, self._layout = architecture_layout(tuple(self.architecture))
        self.input_dim = self._layers[self._first_dense][1]
        self.flat = np.ascontiguousarray(flat, dtype=np.float64)
        size = self._layout[-1][2]
        if self.flat.ndim != 2 or self.flat.shape[1] != size:
            raise ValueError(
                f"{self.architecture} has {size} parameters: need (models, {size}), got shape {self.flat.shape}"
            )
        self.params = self.views(self.flat)
        # the layer plan the forward and backward walks follow: None for a
        # relu, (weight view, bias view, weight slice, bias slice) for a
        # dense layer; the biases broadcast over each model's batch
        dense = iter(
            (
                self.params[w[0]],
                self.params[b[0]][:, None],
                slice(w[1], w[2]),
                slice(b[1], b[2]),
            )
            for w, b in zip(self._layout[::2], self._layout[1::2])
        )
        self._plan = [None if layer[0] == "relu" else next(dense) for layer in self._layers]

    def views(self, vector: Array) -> dict[str, Array]:
        """Named, reshaped views into a (models, parameters) array laid out like `flat` (parameters or gradients)."""
        return {name: vector[:, start:stop].reshape(len(vector), *shape) for name, start, stop, shape in self._layout}

    @classmethod
    def initialize(cls, architecture: Sequence[str], rng: np.random.Generator) -> "Model":
        """Seeded init of a stack of one: every weight and bias uniform in +/- sqrt(1/fan_in)."""
        weights = architecture_layout(tuple(str(s) for s in architecture)).params[::2]
        draws = []
        for _, _, _, (fan_in, fan_out) in weights:
            bound = math.sqrt(1.0 / fan_in)
            draws.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
            draws.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(architecture, np.concatenate(draws)[None])

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
                cache.append(h > 0 if layer is None else h)
            if layer is None:
                h = np.maximum(h, 0.0)  # never in place: a leading relu's input is the caller's batch
            else:
                h = h @ layer[0]
                h += layer[1]
        return h

    def extract(self, batch, cache: list | None = None) -> Array:
        """Extractor forward pass; returns the features.

        With a `cache` list, appends what `backward` needs of every layer
        walked: a dense layer's input, a relu's positive mask. For a single
        dense layer the features are the batch itself.
        """
        h = np.ascontiguousarray(batch, dtype=np.float64)
        if h.ndim != 3 or len(h) != len(self.flat) or h.shape[2] != self.input_dim:
            raise ValueError(
                f"batch shape {h.shape} incompatible with {len(self.flat)} models of input width {self.input_dim}"
            )
        return self._walk(h, 0, self._split, cache)

    def classify(self, features, cache: list | None = None) -> Array:
        """Classifier forward pass from a feature batch; returns the logits."""
        f = np.ascontiguousarray(features, dtype=np.float64)
        if f.ndim != 3 or len(f) != len(self.flat) or f.shape[2] != self.feature_dim:
            raise ValueError(
                f"feature shape {f.shape} incompatible with {len(self.flat)} models of classifier width {self.feature_dim}"
            )
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
    """Backpropagate through the forward pass cached in `cache`.

    The cache holds each dense layer's input and each relu's positive mask
    (`h > 0`), by which a relu's backward multiplies.

    `d_logits` is the loss gradient w.r.t. the logits; `d_features`, when
    given, joins at the extractor/classifier split (for a single dense layer
    the features are the input itself). With a `grad` array laid out like
    `model.flat`, fills it with the parameter gradients and returns it,
    stopping at the first dense layer; without, returns the gradient w.r.t.
    the batch. Neither `d_logits` nor `d_features` is written to.
    """
    plan = model._plan
    g = d_logits
    for i in range(len(plan) - 1, -1, -1):
        layer = plan[i]
        if layer is None:
            g *= cache[i]  # g is never the caller's: the top layer is dense
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
    """Gradient w.r.t. the stack's parameters, one array laid out like `model.flat`."""
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

    def step(self, model: Model, grad: Array) -> None:
        """Update `model.flat` in place from a gradient laid out like it.

        A later step may update a prefix of the stack the first step saw
        (models that finished drop off its end): it then moves the first
        rows of the velocity and leaves the others alone.
        """
        if grad.shape != model.flat.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match parameters {model.flat.shape}")
        decayed = None
        if self.weight_decay:
            decayed = self.weight_decay * model.flat
            decayed += grad
            grad = decayed
        if self.velocity is None:
            self.velocity = np.zeros_like(model.flat)
        velocity = self.velocity[: len(model.flat)]
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
