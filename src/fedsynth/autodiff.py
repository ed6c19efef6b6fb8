"""Reverse-mode automatic differentiation over dense float64 arrays.

A computation graph is built per forward pass and discarded after the
backward call. Leaf tensors (model parameters, optimized inputs) persist
across passes; interior nodes hold a backward closure and references to
their parents. Everything is float64 so gradient checks can run at tight
tolerances. Graphs are confined to a single thread; leaves and models are
value-semantic and may be copied across threads freely.

The hot loops (local training and synthesis) skip the graph: `mlp_forward`
and `mlp_backward` are the closed-form forward/backward of the same MLP,
and the graph is the reference the tests compare them against.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError

Array = np.ndarray

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (forward values only)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


class Tensor:
    """Dense n-dimensional float64 array, optionally part of a computation graph.

    ``data`` is always a C-contiguous (row-major) float64 ndarray; ``grad``
    mirrors its shape once a backward pass has reached the tensor.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backprop")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data: Array = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backprop = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return mul(self, -1.0)


def _lift(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data, parents: tuple[Tensor, ...], backprop) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backprop = backprop
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a gradient back to the shape of a broadcast operand."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)

    def backprop(g: Array) -> None:
        if a.requires_grad:
            a.grad += _unbroadcast(g, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g, b.data.shape)

    return _node(a.data + b.data, (a, b), backprop)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)

    def backprop(g: Array) -> None:
        if a.requires_grad:
            a.grad += _unbroadcast(g * b.data, a.data.shape)
        if b.requires_grad:
            b.grad += _unbroadcast(g * a.data, b.data.shape)

    return _node(a.data * b.data, (a, b), backprop)


def matmul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shapes {a.data.shape} and {b.data.shape} are incompatible")

    def backprop(g: Array) -> None:
        if a.requires_grad:
            a.grad += g @ b.data.T
        if b.requires_grad:
            b.grad += a.data.T @ g

    return _node(a.data @ b.data, (a, b), backprop)


def relu(a) -> Tensor:
    a = _lift(a)
    mask = a.data > 0

    def backprop(g: Array) -> None:
        if a.requires_grad:
            a.grad += g * mask

    return _node(np.where(mask, a.data, 0.0), (a,), backprop)


def log(a) -> Tensor:
    a = _lift(a)

    def backprop(g: Array) -> None:
        if a.requires_grad:
            a.grad += g / a.data

    return _node(np.log(a.data), (a,), backprop)


def reshape(a, shape) -> Tensor:
    a = _lift(a)
    shape = tuple(shape)

    def backprop(g: Array) -> None:
        if a.requires_grad:
            a.grad += g.reshape(a.data.shape)

    return _node(a.data.reshape(shape), (a,), backprop)


def reduce_sum(a, axis: int | None = None) -> Tensor:
    a = _lift(a)

    def backprop(g: Array) -> None:
        if not a.requires_grad:
            return
        if axis is None:
            a.grad += np.broadcast_to(g, a.data.shape)
        else:
            a.grad += np.expand_dims(g, axis)

    return _node(np.asarray(a.data.sum(axis=axis)), (a,), backprop)


def softmax(a, axis: int = -1) -> Tensor:
    a = _lift(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backprop(g: Array) -> None:
        if a.requires_grad:
            inner = (g * s).sum(axis=axis, keepdims=True)
            a.grad += s * (g - inner)

    return _node(s, (a,), backprop)


def _target_matrix(labels, batch: int, classes: int) -> Array:
    arr = np.asarray(labels)
    if arr.ndim == 1:
        idx = arr.astype(np.int64)
        if idx.shape[0] != batch:
            raise ValueError(f"expected {batch} labels, got {idx.shape[0]}")
        if idx.size and (idx.min() < 0 or idx.max() >= classes):
            raise ValueError(f"label index out of range for {classes} classes")
        target = np.zeros((batch, classes))
        target[np.arange(batch), idx] = 1.0
        return target
    if arr.shape != (batch, classes):
        raise ValueError(f"soft labels must have shape ({batch}, {classes}), got {arr.shape}")
    return arr.astype(np.float64)


def log_softmax_rows(z: Array) -> Array:
    """Row-wise log-softmax of a (batch, classes) matrix, stabilized by max subtraction.

    The one definition behind every cross entropy here: the graph op, its
    closed form, and the per-row synthesis losses.
    """
    shifted = z - z.max(axis=1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted


def _cross_entropy_terms(z: Array, target: Array) -> tuple[float, Array]:
    """Mean cross entropy of row-wise softmax(z) against a target matrix, and softmax(z)."""
    log_probs = log_softmax_rows(z)
    return -(target * log_probs).sum() / z.shape[0], np.exp(log_probs)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross entropy between softmax(logits) and hard or soft labels.

    Hard labels are a length-B sequence of class indices; soft labels are a
    (B, Y) matrix whose rows sum to one. Stabilized by max subtraction.
    """
    logits = _lift(logits)
    z = logits.data
    if z.ndim != 2:
        raise ValueError("logits must be a (batch, classes) matrix")
    batch, classes = z.shape
    target = _target_matrix(labels, batch, classes)
    if not np.allclose(target.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("soft label rows must sum to 1")
    value, probs = _cross_entropy_terms(z, target)

    def backprop(g: Array) -> None:
        if logits.requires_grad:
            logits.grad += g * (probs - target) / batch

    return _node(np.asarray(value), (logits,), backprop)


def cross_entropy_grad(logits: Array, labels, weight=1.0) -> tuple[float, Array]:
    """Closed form of `weight * softmax_cross_entropy(logits, labels)`.

    Returns the weighted loss value and its gradient w.r.t. the logits. For a
    scalar `weight` each is computed with the same operations, in the same
    order, as the graph op. A vector `weight` holds one weight per row and
    replaces the mean: the loss is then sum_r weight[r] * CE(row r), so one
    call can blend rows from different batches.
    Soft-label rows are not checked to sum to one here: local training passes
    rows of the synthetic pool, checked once where `synthesis.synthetic_rows`
    builds them.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError("logits must be a (batch, classes) matrix")
    batch, classes = z.shape
    target = _target_matrix(labels, batch, classes)
    if np.ndim(weight) == 0:
        value, probs = _cross_entropy_terms(z, target)
        return value * weight, weight * (probs - target) / batch
    row_weight = np.asarray(weight, dtype=np.float64)
    if row_weight.shape != (batch,):
        raise ValueError(f"expected {batch} row weights, got shape {row_weight.shape}")
    row_weight = row_weight[:, None]
    log_probs = log_softmax_rows(z)
    d_logits = np.exp(log_probs)
    d_logits -= target
    d_logits *= row_weight
    return -(row_weight * target * log_probs).sum(), d_logits


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))
    return order


def _run_backward(loss: Tensor) -> set[int]:
    if loss.data.shape != ():
        raise ValueError("backward requires a scalar (0-d) loss")
    if not loss.requires_grad:
        return set()
    order = _toposort(loss)
    for node in order:
        node.grad = np.zeros_like(node.data)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backprop is not None:
            node._backprop(node.grad)
    return {id(node) for node in order}


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad for every reachable leaf.

    Grads are zeroed at the start of each call, so repeated calls never
    accumulate across passes.
    """
    _run_backward(loss)


def backward_params(loss: Tensor, model: "Model") -> Array:
    """Gradient of a scalar loss w.r.t. the model's parameters, laid out like `model.flat`.

    Parameters the loss does not depend on get an explicit zero gradient.
    """
    reached = _run_backward(loss)
    grad = np.empty_like(model.flat)
    for view, p in zip(model.views(grad).values(), model.params.values()):
        if id(p) not in reached:
            p.grad = np.zeros_like(p.data)
        view[...] = p.grad
    return grad


def backward_input(loss: Tensor, x: Tensor) -> Array:
    """Gradient of a scalar loss w.r.t. an input leaf that fed the graph."""
    if not x.requires_grad:
        raise ValueError("input tensor does not require gradients")
    reached = _run_backward(loss)
    if id(x) not in reached:
        raise ValueError("input did not participate in the loss graph")
    return x.grad


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


class Model:
    """MLP with value-semantic parameters, split as extractor + final dense classifier.

    All parameters live in one contiguous float64 vector, `flat`, in name
    order (dense0.weight, dense0.bias, dense1.weight, ...); each `params`
    leaf's data is a reshaped view into it. The last dense layer is the
    classifier; everything before it (including any trailing relu) is the
    feature extractor.
    """

    def __init__(self, architecture: Sequence[str], flat: Array):
        self.architecture = [str(s) for s in architecture]
        self._layers = parse_architecture(self.architecture)
        self._split = max(i for i, layer in enumerate(self._layers) if layer[0] == "dense")
        self._first_dense = next(i for i, layer in enumerate(self._layers) if layer[0] == "dense")
        self.input_dim = self._layers[self._first_dense][1]
        self._layout = []  # (name, start, stop, shape) of every parameter, in `flat` order
        start = 0
        for d, (_, fan_in, fan_out) in enumerate(layer for layer in self._layers if layer[0] == "dense"):
            for suffix, shape in (("weight", (fan_in, fan_out)), ("bias", (fan_out,))):
                stop = start + math.prod(shape)
                self._layout.append((f"dense{d}.{suffix}", start, stop, shape))
                start = stop
        self.flat = np.ascontiguousarray(flat, dtype=np.float64)
        if self.flat.shape != (start,):
            raise ValueError(f"{self.architecture} has {start} parameters, got a vector of shape {self.flat.shape}")
        self.params = {name: Tensor(view, requires_grad=True) for name, view in self.views(self.flat).items()}
        # the layer plan `mlp_forward`/`mlp_backward` walk, built once: None for a
        # relu, (weight view, bias view, weight slice, bias slice) for a dense layer
        dense = iter(
            (self.params[w[0]].data, self.params[b[0]].data, slice(w[1], w[2]), slice(b[1], b[2]))
            for w, b in zip(self._layout[::2], self._layout[1::2])
        )
        self._plan = [None if layer[0] == "relu" else next(dense) for layer in self._layers]

    def views(self, vector: Array) -> dict[str, Array]:
        """Named, reshaped views into a vector laid out like `flat` (parameters or gradients)."""
        return {name: vector[start:stop].reshape(shape) for name, start, stop, shape in self._layout}

    @classmethod
    def initialize(cls, architecture: Sequence[str], rng: np.random.Generator) -> "Model":
        """Seeded init: every weight and bias uniform in +/- sqrt(1/fan_in)."""
        draws = []
        for layer in parse_architecture(architecture):
            if layer[0] == "dense":
                _, fan_in, fan_out = layer
                bound = math.sqrt(1.0 / fan_in)
                draws.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
                draws.append(rng.uniform(-bound, bound, size=fan_out))
        return cls(architecture, np.concatenate(draws))

    def copy(self) -> "Model":
        return Model(self.architecture, self.flat.copy())

    def _dense_count(self) -> int:
        return len(self._layout) // 2

    @property
    def feature_dim(self) -> int:
        return self._layers[self._split][1]

    @property
    def class_count(self) -> int:
        return self._layers[self._split][2]

    def extractor_params(self) -> dict[str, Tensor]:
        last = f"dense{self._dense_count() - 1}."
        return {k: v for k, v in self.params.items() if not k.startswith(last)}

    def classifier_params(self) -> dict[str, Tensor]:
        last = f"dense{self._dense_count() - 1}."
        return {k: v for k, v in self.params.items() if k.startswith(last)}

    def _apply(self, x: Tensor, start: int, stop: int, dense_offset: int) -> Tensor:
        h = x
        d = dense_offset
        for layer in self._layers[start:stop]:
            if layer[0] == "relu":
                h = relu(h)
            else:
                h = add(matmul(h, self.params[f"dense{d}.weight"]), self.params[f"dense{d}.bias"])
                d += 1
        return h

    def extract(self, batch) -> Tensor:
        """Extractor forward pass; returns the feature node."""
        x = _lift(batch)
        if x.data.ndim != 2 or x.data.shape[1] != self.input_dim:
            raise ValueError(f"batch shape {x.data.shape} incompatible with input width {self.input_dim}")
        return self._apply(x, 0, self._split, 0)

    def classify(self, features) -> Tensor:
        """Classifier forward pass from a feature node or a raw feature batch."""
        f = _lift(features)
        if f.data.ndim != 2 or f.data.shape[1] != self.feature_dim:
            raise ValueError(f"feature shape {f.data.shape} incompatible with classifier width {self.feature_dim}")
        return self._apply(f, self._split, len(self._layers), self._dense_count() - 1)

    def forward(self, batch) -> tuple[Tensor, Tensor]:
        """Full forward pass; returns (features, logits) attached to one graph."""
        features = self.extract(batch)
        return features, self.classify(features)


def mlp_forward(model: Model, batch) -> tuple[Array, Array, list[Array]]:
    """Closed-form forward pass over plain arrays; builds no graph.

    Returns (features, logits, cache) with the values `model.forward` gives;
    `cache[i]` is the input of layer i, all that `mlp_backward` needs.
    """
    h = np.ascontiguousarray(batch, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != model.input_dim:
        raise ValueError(f"batch shape {h.shape} incompatible with input width {model.input_dim}")
    cache = []
    for layer in model._plan:
        cache.append(h)
        if layer is None:
            h = np.where(h > 0, h, 0.0)
        else:
            h = h @ layer[0]
            h += layer[1]
    return cache[model._split], h, cache


def mlp_backward(
    model: Model,
    cache: list[Array],
    d_logits: Array,
    d_features: Array | None = None,
    wrt: str = "params",
) -> Array:
    """Backpropagate through the pass `mlp_forward` cached.

    `d_logits` is the loss gradient w.r.t. the logits; `d_features`, when
    given, joins at the extractor/classifier split (for a single dense layer
    the features are the input itself). With wrt="params" returns one
    gradient vector laid out like `model.flat`, as `backward_params` does;
    with wrt="input" returns the gradient w.r.t. the batch, as
    `backward_input` does. Each step uses the graph's own operations, so a
    single loss term reproduces the graph's gradients bit for bit. Neither
    `d_logits` nor `d_features` is written to.
    """
    if wrt not in ("params", "input"):
        raise ValueError(f"wrt must be 'params' or 'input', got {wrt!r}")
    want_params = wrt == "params"
    if want_params:
        grad = np.empty_like(model.flat)
    plan = model._plan
    g = d_logits
    for i in range(len(plan) - 1, -1, -1):
        layer = plan[i]
        if layer is None:
            g *= cache[i] > 0  # g is never the caller's: the top layer is dense
        else:
            weight, _, w_slice, b_slice = layer
            if want_params:
                np.matmul(cache[i].T, g, out=grad[w_slice].reshape(weight.shape))
                np.sum(g, axis=0, out=grad[b_slice])
                if i == model._first_dense:
                    break  # nothing below the first dense layer has parameters
            g = g @ weight.T
        if i == model._split and d_features is not None:
            g += d_features
    return grad if want_params else g


class Sgd:
    """Mini-batch SGD with classical momentum; weight decay joins the raw gradient."""

    def __init__(self, learning_rate: float, momentum: float = 0.0, weight_decay: float = 0.0):
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity: Array | None = None

    def step(self, model: Model, grad: Array) -> None:
        """Update `model.flat` in place from a gradient laid out like it."""
        if grad.shape != model.flat.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match the {model.flat.size} parameters")
        if np.isnan(grad).any():
            name = next(name for name, g in model.views(grad).items() if np.isnan(g).any())
            raise ValueError(f"NaN gradient for parameter {name!r}")
        if self.weight_decay:
            grad = grad + self.weight_decay * model.flat
        if self.velocity is None:
            self.velocity = np.zeros_like(model.flat)
        self.velocity *= self.momentum
        self.velocity += grad
        model.flat -= self.learning_rate * self.velocity


class Adam:
    """Bias-corrected Adam; used here to optimize synthetic inputs."""

    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        if eps <= 0:
            raise ConfigError(f"adam eps must be positive, got {eps}")
        self.learning_rate = float(learning_rate)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.moment1: Array | None = None
        self.moment2: Array | None = None

    def step(self, x: Array, grad: Array) -> None:
        """Update the float64 array `x` in place."""
        if grad.shape != x.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match {x.shape}")
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1**t
        c2 = 1.0 - self.beta2**t
        if self.moment1 is None:
            self.moment1 = np.zeros_like(x)
            self.moment2 = np.zeros_like(x)
        m, v = self.moment1, self.moment2
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        x -= self.learning_rate * (m / c1) / (np.sqrt(v / c2) + self.eps)
