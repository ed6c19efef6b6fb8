"""The flat parameter layout: every named parameter and every dense block is a view into `Model.flat`."""

import re

import numpy as np
import pytest

from graph_reference import GraphModel

from fedsynth.autodiff import Model, Sgd, Tape, backward_params, cross_entropy_grad
from fedsynth.config import config_from_dict, derive_seed
from fedsynth.engine import aggregate
from fedsynth.synthesis import model_fingerprint

DESK_ARCH = ["dense(16,32)", "relu", "dense(32,32)", "relu", "dense(32,6)"]


def desk_model(seed=1):
    return Model.initialize(DESK_ARCH, np.random.default_rng(derive_seed(seed, "model-init")))


def same_memory(a, b):
    return a.ctypes.data == b.ctypes.data and a.nbytes == b.nbytes


def assert_views_of_own_flat(model):
    for name, p in model.params.items():
        assert np.shares_memory(p, model.flat), name
    # the layer plan holds each dense layer's weight view and its block: the
    # weight, then the bias as the last row, one view of `flat`'s memory
    dense = [layer for layer in model._plan if layer is not None]
    assert [layer is None for layer in model._plan] == [layer[0] == "relu" for layer in model._layers]
    names = list(model.params)
    for (weight, block), w_name, b_name in zip(dense, names[::2], names[1::2], strict=True):
        bias = model.params[b_name]
        assert weight is model.params[w_name] and block.shape == (len(model.flat), weight.shape[1] + 1, weight.shape[2])
        assert np.shares_memory(block, model.flat) and np.shares_memory(block, weight) and np.shares_memory(block, bias)
        assert same_memory(block[:, :-1], weight) and same_memory(block[:, -1], bias)


def assert_plan_is_live(model, batch, before):
    """`Model.forward` walks the plan; the graph reads `params`: both see the current weights."""
    features, logits = model.forward(batch)
    graph_features, graph_logits = GraphModel(model).forward(batch[0].T)
    assert np.array_equal(features[0].T, graph_features.data)
    assert np.array_equal(logits[0].T, graph_logits.data)
    assert not np.array_equal(logits, before), "the weights did not change"
    assert_views_of_own_flat(model)


def test_desk_init_fingerprint_is_pinned():
    model = desk_model()
    assert config_from_dict({}).architecture == DESK_ARCH
    assert model.flat.size == 1798
    assert model_fingerprint(model) == "b394513a3658a6fc"


def test_flat_follows_name_order():
    model = desk_model()
    assert list(model.params) == [f"dense{d}.{s}" for d in range(3) for s in ("weight", "bias")]
    assert np.array_equal(np.concatenate([p.ravel() for p in model.params.values()]), model.flat[0])


def test_sgd_step_updates_the_views():
    model = desk_model()
    rng = np.random.default_rng(0)
    tape = Tape(model, 10)
    _, logits = model.forward(rng.random((1, 10, 16)).swapaxes(-1, -2), tape)
    targets = np.eye(6)[rng.integers(0, 6, size=(1, 10))].swapaxes(-1, -2)
    _, d_logits = cross_entropy_grad(logits, targets, np.ones((1, 10)), [10])
    before = model.flat.copy()
    Sgd(0.1, momentum=0.9, weight_decay=5e-4).step(model, backward_params(model, tape, d_logits))
    assert not np.array_equal(model.flat, before)
    assert_views_of_own_flat(model)


def test_copy_and_aggregate_own_their_vectors():
    model = desk_model()
    clone = model.copy()
    assert_views_of_own_flat(clone)
    assert not np.shares_memory(clone.flat, model.flat)
    for p, q in zip(model.params.values(), clone.params.values()):
        assert not np.shares_memory(p, q)
    stack = Model(DESK_ARCH, np.concatenate([model.flat, clone.flat, desk_model(seed=2).flat]))
    merged = aggregate(stack)
    assert_views_of_own_flat(merged)
    assert not any(np.shares_memory(merged.flat, m.flat) for m in (model, clone, stack))


def test_layer_plan_follows_every_weight_change():
    model = desk_model()
    batch = np.random.default_rng(3).random((1, 10, 16)).swapaxes(-1, -2)

    tape = Tape(model, 10)
    _, before = model.forward(batch, tape)
    before = before.copy()
    _, d_logits = cross_entropy_grad(before, np.eye(6)[np.arange(10) % 6].T[None], np.ones((1, 10)), [10])
    Sgd(0.5).step(model, backward_params(model, tape, d_logits))
    assert_plan_is_live(model, batch, before)

    before = model.forward(batch)[1]
    model.params["dense2.bias"][...] = 1.0
    model.params["dense0.weight"][0, 0, :] *= -1.0
    assert_plan_is_live(model, batch, before)

    before = model.forward(batch)[1]
    clone = model.copy()
    clone.flat *= 0.5  # a clone walking its source's plan would still read the source's weights
    assert_plan_is_live(clone, batch, before)
    assert np.array_equal(model.forward(batch)[1], before)

    merged = aggregate(Model(DESK_ARCH, np.concatenate([model.flat, clone.flat, desk_model(seed=2).flat])))
    assert_plan_is_live(merged, batch, before)


@pytest.mark.parametrize("shape", [(1, 1797), (1, 1799), (1, 0), (1798,)], ids=["1797", "1799", "0", "vector"])
def test_wrong_length_flat_raises(shape):
    """A `flat` must be a (models, 1798) stack: a wrong length or a lone (1798,) vector is refused."""
    with pytest.raises(ValueError, match=rf"1798 parameters: .*got shape {re.escape(str(shape))}$"):
        Model(DESK_ARCH, np.zeros(shape))


def desk_stack(seeds=(1, 2, 3)):
    return Model(DESK_ARCH, np.concatenate([desk_model(seed).flat for seed in seeds]))


def test_a_prefix_of_a_stack_steps_alone():
    stack = desk_stack()
    for name, p in stack.params.items():
        assert np.shares_memory(p, stack.flat) and p.shape[0] == 3, name
    optimizer = Sgd(0.1, momentum=0.9, weight_decay=5e-4)
    optimizer.step(stack, np.ones_like(stack.flat))
    prefix = Model(DESK_ARCH, stack.flat[:2])
    assert same_memory(prefix.flat, stack.flat[:2])
    last, last_velocity = stack.flat[2].copy(), optimizer.velocity[2].copy()
    optimizer.step(prefix, np.ones_like(prefix.flat))
    assert np.array_equal(stack.flat[2], last) and np.array_equal(optimizer.velocity[2], last_velocity)
    # each stepped row moved as a lone model with its own optimizer does
    for row, seed in enumerate((1, 2)):
        single, lone = desk_model(seed), Sgd(0.1, momentum=0.9, weight_decay=5e-4)
        for _ in range(2):
            lone.step(single, np.ones_like(single.flat))
        assert np.array_equal(stack.flat[row], single.flat[0])
    with pytest.raises(ValueError, match="velocity"):
        optimizer.step(desk_stack((1, 2, 3, 4)), np.ones((4, 1798)))
