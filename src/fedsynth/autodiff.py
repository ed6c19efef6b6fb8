"""The MLP, its closed-form forward and backward passes, and the optimizers.

Every `Model` is a stack of MLPs: local training runs a round's local
models as one stack, and the global model is a stack of one. Every walk is
feature-major: an activation is a (models, width, batch) array, one column
per sample, so a reduction over a sample's features runs over axis -2 as
plain elementwise work on rows of length batch.

Each dense layer is its (fan_in + 1, fan_out) block of `flat`, the weight
followed by the bias as the last row. Its forward is one matmul,
blockᵀ @ [h; 1], against its input augmented with a ones row, and its
parameter gradient is one matmul, [h; 1] @ gᵀ, written straight into the
block's slice of the gradient. A `Tape` holds every buffer a walk writes:
the augmented inputs, the relu masks and the gradients. A training or
synthesis job makes one and reuses it on every step, a walk without one
runs on a fresh one, and a wide tape multiplies in 128-sample pieces.

Gradients are written out by hand: `backward` walks the layers in reverse
over the tape, with cross entropy entering at the logits
(`cross_entropy_grad`) and any feature-space loss at the
extractor/classifier split. Everything is float64 so gradient checks can
run at tight tolerances. The tests keep a graph autodiff as the reference
these closed forms are pinned against.
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


def log_softmax(z: Array) -> Array:
    """Log-softmax over the class axis (-2) of a feature-major (..., classes, batch) array, stabilized by max subtraction.

    The one definition behind every cross entropy here: `cross_entropy_grad`
    and the per-sample synthesis losses.
    """
    shifted = z - z.max(axis=-2, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-2, keepdims=True))
    return shifted


def cross_entropy_grad(logits: Array, target: Array, weight: Array, count: Array, out: Array | None = None) -> tuple:
    """Weighted cross entropy of column-wise softmax(logits) against a target stack, one loss per model.

    `logits` and `target` are feature-major (models, classes, batch)
    stacks: one-hot target columns for hard labels, soft ones otherwise.
    `weight` holds one weight per (model, sample) and `count` one divisor
    per model: a model's loss is sum_r weight[r] * CE(sample r) / count,
    and the gradient w.r.t. its logits is (softmax - target) * weight /
    count, written into `out` when given. A mean over a model's first k
    samples is weight 1 on them, 0 on the padding samples after them, and
    count k; a blend of samples from different batches is their blend
    weights with count 1.
    Target columns are not checked to sum to one here: local training
    passes one-hot columns, made on each step from the samples' labels.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 3:
        raise ValueError(f"logits must be a (models, classes, batch) stack, got shape {z.shape}")
    target = np.asarray(target, dtype=np.float64)
    if target.shape != z.shape:
        raise ValueError(f"targets must have shape {z.shape}, got {target.shape}")
    row_weight = np.asarray(weight, dtype=np.float64)
    if row_weight.shape != (len(z), z.shape[2]):
        raise ValueError(f"expected {len(z)} x {z.shape[2]} sample weights, got shape {row_weight.shape}")
    count = np.asarray(count)
    if count.shape != z.shape[:1]:
        raise ValueError(f"expected {len(z)} sample counts, got shape {count.shape}")
    log_probs = log_softmax(z)
    d_logits = np.exp(log_probs, out=out)
    d_logits -= target
    d_logits *= row_weight[:, None]
    d_logits /= count[:, None, None]
    return -(row_weight * (target * log_probs).sum(axis=-2)).sum(axis=-1) / count, d_logits


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
    blocks: tuple  # (start, stop, fan_in, fan_out) of every dense layer's weight-then-bias block


@functools.lru_cache(maxsize=None)
def architecture_layout(architecture: tuple[str, ...]) -> _Layout:
    """Parse an architecture and lay out its parameters, once per process.

    `validate_config` checks a config's architecture through this layout, and
    every `Model` built from it later (`local_update` and `aggregate` build
    them every round) reuses the cached result.
    """
    layers = tuple(parse_architecture(architecture))
    dense = [i for i, layer in enumerate(layers) if layer[0] == "dense"]
    params, blocks = [], []
    start = 0
    for d, i in enumerate(dense):
        _, fan_in, fan_out = layers[i]
        blocks.append((start, start + (fan_in + 1) * fan_out, fan_in, fan_out))
        for suffix, shape in (("weight", (fan_in, fan_out)), ("bias", (fan_out,))):
            stop = start + math.prod(shape)
            params.append((f"dense{d}.{suffix}", start, stop, shape))
            start = stop
    return _Layout(layers, dense[-1], dense[0], tuple(params), tuple(blocks))


# samples per product over a tape's samples. OpenBLAS runs a product of more
# than 262,144 multiply-adds on several threads, and where it splits the
# samples changes how a sample's column rounds. Pieces of 128 keep a product
# of layers up to 32 wide on one thread, and as a multiple of the 8-column
# kernel they round each column as one unsplit single-thread walk does
_COLUMNS = 128


def _pieces(*arrays: Array) -> tuple[tuple[Array, ...], ...]:
    """(..., batch) arrays in pieces of `_COLUMNS` samples, the last ragged: a tuple of views per piece, or the arrays."""
    n = arrays[0].shape[-1]
    if n <= _COLUMNS:
        return (arrays,)
    return tuple(tuple(a[..., lo : lo + _COLUMNS] for a in arrays) for lo in range(0, n, _COLUMNS))


def _block_views(vector: Array, blocks: tuple) -> list[Array]:
    """The (models, fan_in + 1, fan_out) block of every dense layer in a (models, parameters) array laid out like `flat`."""
    return [vector[:, start:stop].reshape(len(vector), fan_in + 1, fan_out) for start, stop, fan_in, fan_out in blocks]


class Model:
    """A stack of MLPs with value-semantic parameters, each split as extractor + final dense classifier.

    All parameters live in one contiguous float64 (models, parameters)
    array, `flat`: each row is one model's parameters in name order
    (dense0.weight, dense0.bias, dense1.weight, ...), and each `params`
    entry is a reshaped view into it with a leading models axis. A dense
    layer's weight and bias are adjacent, so each layer is also one
    (models, fan_in + 1, fan_out) block view of `flat`. The forward pass
    maps a feature-major (models, width, batch) input to per-model
    outputs; a single model, such as the global one, is a stack of one.
    The last dense layer is the classifier; everything before it
    (including any trailing relu) is the feature extractor.
    """

    def __init__(self, architecture: Sequence[str], flat: Array):
        self.architecture = [str(s) for s in architecture]
        self._layout = architecture_layout(tuple(self.architecture))
        self._layers, self._split, self._first_dense = self._layout[:3]
        self.input_dim = self._layers[self._first_dense][1]
        self.flat = np.ascontiguousarray(flat, dtype=np.float64)
        size = self._layout.params[-1][2]
        if self.flat.ndim != 2 or self.flat.shape[1] != size:
            raise ValueError(
                f"{self.architecture} has {size} parameters: need (models, {size}), got shape {self.flat.shape}"
            )
        self.params = self.views(self.flat)
        # the layer plan the walks follow: None for a relu, (weight view,
        # block view) for a dense layer
        dense = zip((self.params[p[0]] for p in self._layout.params[::2]), _block_views(self.flat, self._layout.blocks))
        self._plan = [None if layer[0] == "relu" else next(dense) for layer in self._layers]

    def views(self, vector: Array) -> dict[str, Array]:
        """Named, reshaped views into a (models, parameters) array laid out like `flat` (parameters or gradients)."""
        return {
            name: vector[:, start:stop].reshape(len(vector), *shape) for name, start, stop, shape in self._layout.params
        }

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

    def _walk(self, h: Array, tape: "Tape", start: int, stop: int) -> tuple[Array, Array]:
        """Run layers [start, stop) on the tape from a checked input `h`; returns the tape's (features, logits).

        A walk from the split reads `h` as the features; one from the input
        reads it where the first layer does: a leading relu reads the
        caller's batch and never writes it.
        """
        if start:
            if h is not tape.features:
                tape.features[...] = h
        elif not tape._layout.first_dense and h is not tape.input:
            tape.input[...] = h
        steps = tape._steps
        for i in range(start, stop):
            layer = self._plan[i]
            if layer is None:
                mask, slot = steps[i]
                source = h if i == 0 else slot
                np.greater(source, 0.0, out=mask)
                np.maximum(source, 0.0, out=slot)
            else:
                for act, out, _, _ in steps[i][0]:
                    np.matmul(layer[1].swapaxes(-1, -2), act, out=out)
        return tape.features, tape.logits

    def _run(self, batch, tape: "Tape | None", start: int, stop: int, kind: str) -> tuple[Array, Array]:
        """Check a (models, width, batch) input and walk it on `tape`, or on a fresh tape of the whole batch."""
        width, h = self.feature_dim if start else self.input_dim, np.asarray(batch)
        if h.ndim != 3 or len(h) != len(self.flat) or h.shape[1] != width:
            noun = "batch" if kind == "input" else "feature"
            raise ValueError(f"{noun} shape {h.shape} incompatible with {len(self.flat)} models of {kind} width {width}")
        if tape is None:
            tape = Tape(self, h.shape[2])
        elif tape.logits.shape[::2] != (len(self.flat), h.shape[2]):
            shape = tape.logits.shape[::2]
            raise ValueError(f"a tape of shape {shape} cannot run {len(self.flat)} models on {h.shape[2]} samples")
        return self._walk(h, tape, start, stop)

    def extract(self, batch, tape: "Tape | None" = None) -> Array:
        """Extractor forward pass of a (models, input width, batch) batch; returns the features.

        With a `tape`, the walk writes into its buffers and the features are
        the tape's (a later walk on it overwrites them); without, they are a
        fresh tape's, the caller's to keep. The batch is never written.
        For a single dense layer the features are the batch itself.
        """
        return self._run(batch, tape, 0, self._split, "input")[0]

    def classify(self, features, tape: "Tape | None" = None) -> Array:
        """Classifier forward pass from a (models, feature width, batch) feature batch; returns the logits."""
        return self._run(features, tape, self._split, len(self._plan), "classifier")[1]

    def forward(self, batch, tape: "Tape | None" = None) -> tuple[Array, Array]:
        """Full forward pass; returns (features, logits), on a tape like `extract`."""
        return self._run(batch, tape, 0, len(self._plan), "input")


class Tape:
    """Every buffer one forward/backward walk writes, for a stack of models and a batch of `batch` samples.

    A job makes one tape (a `synthesize` job, a `local_update` call) and
    every step rewrites it in place:
    - each dense layer's augmented input, (models, fan_in + 1, batch),
      whose last row is ones, written once here. Each layer writes its
      output into the next dense layer's input rows, and a relu runs in
      place there. `features` are the classifier's input rows.
    - `input`: where the walk reads its batch. For a leading dense layer it
      is that layer's input rows, so a caller that keeps its batch there
      (synthesis keeps its optimized inputs) pays no copy.
    - each relu's positive mask, by which its backward multiplies.
    - `logits`, and the gradients: `grad` laid out like `Model.flat`, each
      dense layer's input gradient, and `d_logits` and `d_features`, where
      a caller may write the loss gradients it passes in.

    A tape wider than `_COLUMNS` samples runs every product over them on
    views of `_COLUMNS` columns, the last ragged, bound here once; a block
    gradient sums its pieces' products in piece order, and relus and masks
    run whole. `prefix(size)` views the first `size` models of every
    buffer, for a stack that drops the models that have finished.
    """

    def __init__(self, model: Model, batch: int):
        layout, models = model._layout, len(model.flat)
        acts, masks = [], []
        for _, _, fan_in, _ in layout.blocks:
            acts.append(np.empty((models, fan_in + 1, batch)))
            acts[-1][:, -1] = 1.0
        dense = 0
        for layer in layout.layers:
            if layer[0] == "dense":
                masks.append(None)
                dense += 1
            else:  # a relu has the width of the dense layer it feeds, the next one
                masks.append(np.empty((models, layout.blocks[dense][2], batch), dtype=bool))
        source = np.empty((models, model.input_dim, batch)) if layout.first_dense else None
        logits = np.empty((models, model.class_count, batch))
        grads = (
            np.empty_like(model.flat),
            [np.empty((models, fan_in, batch)) for _, _, fan_in, _ in layout.blocks],
            np.empty_like(logits),
            np.empty((models, model.feature_dim, batch)),
        )
        self._bind(layout, acts, masks, source, logits, *grads)

    def _bind(self, layout, acts, masks, source, logits, grad, deltas, d_logits, d_features) -> None:
        """Keep the base buffers and lay out the per-layer views the walks read."""
        self._layout = layout
        self._buffers = (acts, masks, source, logits, grad, deltas, d_logits, d_features)
        self.batch = logits.shape[2]
        self.logits, self.grad, self.d_logits, self.d_features = logits, grad, d_logits, d_features
        rows = [act[:, :-1] for act in acts]
        self.input = rows[0] if source is None else source
        self.features = rows[-1]
        outputs = rows[1:] + [logits]
        out_grads = deltas[1:] + [d_logits]  # the gradient at each dense layer's output
        blocks = _block_views(grad, layout.blocks)
        # per layer: (mask, slot) of a relu; of a dense layer, its pieces, each (input, output, output
        # gradient, input gradient), then its gradient block and its input gradient
        self._steps, d = [], 0
        for mask, layer in zip(masks, layout.layers):
            if layer[0] == "relu":
                self._steps.append((mask, rows[d]))
                continue
            self._steps.append((_pieces(acts[d], outputs[d], out_grads[d], deltas[d]), blocks[d], deltas[d]))
            d += 1

    def prefix(self, size: int) -> "Tape":
        """The first `size` models of this tape, sharing its memory."""

        def first(buffer):  # a list holds one buffer per layer, None where a layer has none
            return None if buffer is None else [first(b) for b in buffer] if isinstance(buffer, list) else buffer[:size]

        tape = object.__new__(Tape)
        tape._bind(self._layout, *map(first, self._buffers))
        return tape


def backward(model: Model, tape: Tape, d_logits: Array, d_features: Array | None = None, *, params: bool) -> Array:
    """Backpropagate through the forward pass last walked on `tape`.

    `d_logits` is the loss gradient w.r.t. the logits; `d_features`, when
    given, joins at the extractor/classifier split (for a single dense layer
    the features are the input itself). With `params`, returns the tape's
    `grad`, filled with the parameter gradients: each dense layer's block
    gradient is one matmul of its augmented input with the gradient at its
    output, and the walk stops at the first dense layer. Without, returns
    the tape's gradient w.r.t. the batch. Either is the tape's, rewritten
    by the next backward on it. Neither `d_logits` nor `d_features` is
    written to; a `d_logits` other than the tape's is copied into it.
    """
    plan, steps = model._plan, tape._steps
    if d_logits is not tape.d_logits:  # the products read the tape's pieces
        if np.shape(d_logits) != tape.d_logits.shape:
            raise ValueError(f"logit gradients must have shape {tape.d_logits.shape}, got {np.shape(d_logits)}")
        tape.d_logits[...] = d_logits
    for i in range(len(plan) - 1, -1, -1):
        layer = plan[i]
        if layer is None:
            g *= steps[i][0]  # g is the tape's: the top layer is dense
            continue
        pieces, grad_block, g = steps[i]
        if params:
            act, _, piece, _ = pieces[0]
            np.matmul(act, piece.swapaxes(-1, -2), out=grad_block)
            for act, _, piece, _ in pieces[1:]:  # a wide tape sums its pieces' products in piece order
                grad_block += act @ piece.swapaxes(-1, -2)
            if i == model._first_dense:
                return tape.grad  # nothing below the first dense layer has parameters
        for _, _, piece, out in pieces:
            np.matmul(layer[0], piece, out=out)
        if i == model._split and d_features is not None:
            g += d_features
    return g


def backward_params(model: Model, tape: Tape, d_logits: Array, d_features: Array | None = None) -> Array:
    """Gradient w.r.t. the stack's parameters: the tape's `grad`, laid out like `model.flat`."""
    return backward(model, tape, d_logits, d_features, params=True)


def backward_input(model: Model, tape: Tape, d_logits: Array, d_features: Array | None = None) -> Array:
    """Gradient w.r.t. the batch the tape's forward pass started from, in the tape."""
    return backward(model, tape, d_logits, d_features, params=False)


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
