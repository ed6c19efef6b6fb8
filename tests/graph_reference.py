"""Reverse-mode graph autodiff: the reference the closed-form kernels are pinned against.

A computation graph is built per forward pass and discarded after the
backward call. Leaf tensors (model parameters, optimized inputs) persist
across passes; interior nodes hold a backward closure and references to
their parents. `GraphModel` runs a `fedsynth.autodiff.Model` through the
graph, with one leaf per named parameter view, so the graph always reads
the model's current weights. The graph runs (batch, width) matrices, but a
dense layer and the cross entropy form their numbers as the closed form
does, feature-major: `dense` is one product of the layer's
(fan_in + 1, fan_out) block with the input transposed and augmented by a
ones row, and `softmax_cross_entropy` reduces a transposed copy of the
logits over its class axis. So the graph and the closed form agree bit for
bit where their operations are the same. `compute_cam`, `masked_kl` and
`synthesis_loss` are the per-sample synthesis objective written as graph
ops; `synthesis` runs their batched closed form.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager

import numpy as np

from fedsynth.autodiff import Model, log_softmax
from fedsynth.synthesis import hard_feature

logger = logging.getLogger(__name__)

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


def dense(h, weight, bias) -> Tensor:
    """h @ weight + bias, formed as blockᵀ @ [hᵀ; 1] with the (fan_in + 1, fan_out) block [weight; bias].

    The products and their layouts are the closed form's: the block is
    C-ordered and multiplied through its transposed view, the augmented
    input and the output gradient are C-ordered (width, batch) arrays.
    """
    h, weight, bias = _lift(h), _lift(weight), _lift(bias)
    if h.data.ndim != 2 or h.data.shape[1] != weight.data.shape[0]:
        raise ValueError(f"dense input {h.data.shape} does not match weight {weight.data.shape}")
    block = np.concatenate((weight.data, bias.data[None]))
    augmented = np.ones((len(block), len(h.data)))
    augmented[:-1] = h.data.T

    def backprop(g: Array) -> None:
        g = np.ascontiguousarray(g.T)  # the gradient at the output, feature-major
        if weight.requires_grad or bias.requires_grad:
            d_block = augmented @ g.T
            if weight.requires_grad:
                weight.grad += d_block[:-1]
            if bias.requires_grad:
                bias.grad += d_block[-1]
        if h.requires_grad:
            h.grad += (block[:-1] @ g).T

    return _node((block.T @ augmented).T, (h, weight, bias), backprop)


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
    # feature-major, as the closed form reduces: one column per sample
    target = np.ascontiguousarray(target.T)
    log_probs = log_softmax(np.ascontiguousarray(z.T))
    probs = np.exp(log_probs)

    def backprop(g: Array) -> None:
        if logits.requires_grad:
            logits.grad += (g * (probs - target) / batch).T

    return _node(np.asarray(-(target * log_probs).sum(axis=0).sum() / batch), (logits,), backprop)


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


def backward_params(loss: Tensor, graph: "GraphModel") -> Array:
    """Gradient of a scalar loss w.r.t. the model's parameters, laid out like `Model.flat`.

    Parameters the loss does not depend on get an explicit zero gradient.
    """
    reached = _run_backward(loss)
    grad = np.empty_like(graph.model.flat)
    for view, p in zip(graph.model.views(grad).values(), graph.params.values()):
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


class GraphModel:
    """A stack of one `Model` run through the graph: one leaf per named view of its one model.

    The graph runs (batch, width) matrices; its parameter gradient is laid
    out like the stack's (1, parameters) `flat`.
    """

    def __init__(self, model: Model):
        if len(model.flat) != 1:
            raise ValueError(f"the graph runs a stack of one model, got {len(model.flat)}")
        self.model = model
        self.params = {name: Tensor(view[0], requires_grad=True) for name, view in model.params.items()}
        self.feature_dim = model.feature_dim
        self.class_count = model.class_count

    def _apply(self, x: Tensor, start: int, stop: int, dense_offset: int) -> Tensor:
        h = x
        d = dense_offset
        for layer in self.model._layers[start:stop]:
            if layer[0] == "relu":
                h = relu(h)
            else:
                h = dense(h, self.params[f"dense{d}.weight"], self.params[f"dense{d}.bias"])
                d += 1
        return h

    def extract(self, batch) -> Tensor:
        """Extractor forward pass; returns the feature node."""
        x = _lift(batch)
        if x.data.ndim != 2 or x.data.shape[1] != self.model.input_dim:
            raise ValueError(f"batch shape {x.data.shape} incompatible with input width {self.model.input_dim}")
        return self._apply(x, 0, self.model._split, 0)

    def classify(self, features) -> Tensor:
        """Classifier forward pass from a feature node or a raw feature batch."""
        f = _lift(features)
        if f.data.ndim != 2 or f.data.shape[1] != self.feature_dim:
            raise ValueError(f"feature shape {f.data.shape} incompatible with classifier width {self.feature_dim}")
        return self._apply(f, self.model._split, len(self.model._layers), len(self.params) // 2 - 1)

    def forward(self, batch) -> tuple[Tensor, Tensor]:
        """Full forward pass; returns (features, logits) attached to one graph."""
        features = self.extract(batch)
        return features, self.classify(features)


def compute_cam(graph: GraphModel, features, class_index: int) -> Array:
    """Gradient of the pre-softmax logit of `class_index` w.r.t. the features.

    Runs a backward pass through the classifier head only. Positive entries
    mark feature coordinates that support the class.
    """
    if not 0 <= class_index < graph.class_count:
        raise ValueError(f"class index {class_index} out of range for {graph.class_count} classes")
    z = np.asarray(features.data if isinstance(features, Tensor) else features, dtype=np.float64)
    leaf = Tensor(z.reshape(1, -1) if z.ndim == 1 else z, requires_grad=True)
    logits = graph.classify(leaf)
    onehot = np.zeros(logits.data.shape)
    onehot[:, class_index] = 1.0
    picked = reduce_sum(mul(logits, onehot))
    grad = backward_input(picked, leaf)
    return grad.reshape(z.shape).copy()


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
    e = target * mask
    e = np.exp(e - e.max())
    p = e / e.sum()
    q = softmax(mul(feats, mask), axis=-1)
    cross = reduce_sum(mul(log(add(q, float(eps))), p))
    entropy = float(np.sum(p * np.log(p + eps)))
    return add(mul(cross, -1.0), entropy)


def synthesis_loss(
    graph: GraphModel,
    synthetic_input: Tensor,
    real_input,
    label: int,
    prototype,
    scale: float,
    eps: float = 1e-8,
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
        z = graph.extract(x.reshape(1, -1)).data[0]
    target = hard_feature(z, prototype, scale) if prototype is not None else z
    cam = compute_cam(graph, target, int(label))
    batch = reshape(x_hat, (1, x.size)) if x_hat.data.ndim == 1 else x_hat
    features = graph.extract(batch)
    kl = masked_kl(reshape(features, (graph.feature_dim,)), target, cam, eps)
    ce = softmax_cross_entropy(graph.classify(features), [int(label)])
    return add(kl, ce)
