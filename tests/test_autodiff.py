import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graph_reference as gr
from graph_reference import (
    GraphModel,
    Tensor,
    add,
    log,
    matmul,
    mul,
    no_grad,
    reduce_sum,
    relu,
    reshape,
    softmax,
    softmax_cross_entropy,
)

from fedsynth.autodiff import (
    Adam,
    Model,
    Sgd,
    Tape,
    backward,
    backward_input,
    backward_params,
    cross_entropy_grad,
    parse_architecture,
)
from fedsynth.errors import ConfigError


def finite_diff(f, x, h=1e-5):
    """Central finite differences of a scalar function over a flat array."""
    grad = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        up.flat[i] += h
        down = x.copy()
        down.flat[i] -= h
        grad.flat[i] = (f(up) - f(down)) / (2 * h)
    return grad


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def make_mlp(arch, seed=0):
    return Model.initialize(arch, np.random.default_rng(seed))


CLOSED_FORM_ARCHS = {
    "default": ["dense(5,32)", "relu", "dense(32,32)", "relu", "dense(32,4)"],
    "one_dense": ["dense(5,4)"],
    "relu_first": ["relu", "dense(5,8)", "relu", "dense(8,4)"],
    "three_dense": ["dense(5,7)", "dense(7,6)", "relu", "dense(6,4)"],
}


class TestForward:
    def test_identity_extractor_and_classifier(self):
        model = make_mlp(["dense(2,2)", "dense(2,2)"])
        for name in model.params:
            if name.endswith("weight"):
                model.params[name][...] = np.eye(2)
            else:
                model.params[name][...] = np.zeros(2)
        features, logits = model.forward(np.array([[[1.0], [2.0]]]))
        assert np.array_equal(features, [[[1.0], [2.0]]])
        assert np.array_equal(logits, [[[1.0], [2.0]]])

    def test_relu_clamps_negatives_in_features(self):
        model = make_mlp(["dense(2,2)", "relu", "dense(2,2)"])
        model.params["dense0.weight"][...] = np.eye(2)
        model.params["dense0.bias"][...] = np.zeros(2)
        features, _ = model.forward(np.array([[[-1.0], [3.0]]]))
        assert np.array_equal(features, [[[0.0], [3.0]]])

    def test_forward_matches_plain_numpy_oracle(self):
        model = make_mlp(["dense(5,16)", "relu", "dense(16,8)", "relu", "dense(8,3)"], seed=7)
        batch = np.random.default_rng(8).random((4, 5))
        p = {name: view[0] for name, view in model.params.items()}

        # independent plain matrix-multiply forward
        h = batch
        h = np.maximum(h @ p["dense0.weight"] + p["dense0.bias"], 0.0)
        h = np.maximum(h @ p["dense1.weight"] + p["dense1.bias"], 0.0)
        expected = h @ p["dense2.weight"] + p["dense2.bias"]

        _, logits = model.forward(batch.T[None])
        assert logits.shape == (1, 3, 4)
        assert np.max(np.abs(logits[0].T - expected)) < 1e-12

    @pytest.mark.parametrize("taped", [False, True], ids=["no_tape", "tape"])
    @pytest.mark.parametrize("arch", list(CLOSED_FORM_ARCHS.values()), ids=list(CLOSED_FORM_ARCHS))
    def test_forward_is_pure(self, arch, taped):
        """The caller's batch is never written, not even by a relu that reads it first.

        Without a tape the outputs are the caller's: a later call, with or
        without a tape, never overwrites them.
        """
        model = Model(arch, np.concatenate([make_mlp(arch, seed).flat for seed in (5, 6, 7)]))
        # signed inputs, so that a leading relu has entries to clamp
        rng = np.random.default_rng(1)
        batch, other = rng.standard_normal((3, 5, 4)), rng.standard_normal((3, 5, 4))
        kept = batch.copy()
        features, logits = model.forward(batch, Tape(model, 4) if taped else None)
        assert np.array_equal(batch, kept)
        again = model.forward(kept, None if taped else Tape(model, 4))
        assert np.array_equal(features, again[0]) and np.array_equal(logits, again[1])
        if not taped:
            outputs = features.copy(), logits.copy()
            for tape in (None, Tape(model, 4)):
                model.forward(other, tape)
                model.extract(other, tape)
                model.classify(model.extract(other), tape)
            assert np.array_equal(features, outputs[0]) and np.array_equal(logits, outputs[1])
            assert not np.array_equal(logits, model.forward(other)[1])

    def test_batch_shape_mismatch_raises(self):
        model = make_mlp(["dense(3,6)", "relu", "dense(6,2)"])
        with pytest.raises(ValueError):
            model.forward(np.zeros((1, 2, 4)))


class TestBackward:
    """The graph reference's own backward pass."""

    def test_sum_of_weight_gives_ones(self):
        graph = GraphModel(make_mlp(["dense(3,4)", "dense(4,2)"]))
        loss = reduce_sum(graph.params["dense0.weight"])
        grads = graph.model.views(gr.backward_params(loss, graph))
        assert np.array_equal(grads["dense0.weight"], np.ones((1, 3, 4)))
        assert np.array_equal(grads["dense1.weight"], np.zeros((1, 4, 2)))

    def test_quadratic_form_gradient(self):
        # loss = 0.5 * ||W x||^2  ->  dW = (W x) x^T
        w = Tensor(np.random.default_rng(2).random((4, 3)), requires_grad=True)
        x = np.random.default_rng(3).random((3, 1))
        y = matmul(w, x)
        loss = mul(reduce_sum(mul(y, y)), 0.5)
        gr.backward(loss)
        expected = (w.data @ x) @ x.T
        assert np.max(np.abs(w.grad - expected)) < 1e-12

    def test_mlp_cross_entropy_matches_finite_differences(self):
        model = make_mlp(["dense(4,12)", "relu", "dense(12,6)", "relu", "dense(6,3)"], seed=11)
        graph = GraphModel(model)
        batch = np.random.default_rng(12).random((5, 4))
        labels = np.array([0, 1, 2, 1, 0])

        _, logits = graph.forward(batch)
        loss = softmax_cross_entropy(logits, labels)
        grads = model.views(gr.backward_params(loss, graph))

        coord_rng = np.random.default_rng(13)
        names = list(model.params)
        for _ in range(30):
            name = names[coord_rng.integers(len(names))]
            flat_index = int(coord_rng.integers(model.params[name].size))

            def loss_at(value):
                clone = model.copy()
                clone.params[name].flat[flat_index] = value
                _, lg = GraphModel(clone).forward(batch)
                return float(softmax_cross_entropy(lg, labels).data)

            v = model.params[name].flat[flat_index]
            fd = (loss_at(v + 1e-5) - loss_at(v - 1e-5)) / 2e-5
            assert rel_err(fd, grads[name].flat[flat_index]) < 1e-4

    def test_input_gradient_sum_is_ones(self):
        x = Tensor(np.random.default_rng(0).random(5), requires_grad=True)
        loss = reduce_sum(x)
        assert np.array_equal(gr.backward_input(loss, x), np.ones(5))

    def test_input_gradient_half_square_norm_is_input(self):
        x = Tensor(np.random.default_rng(1).random(5), requires_grad=True)
        loss = mul(reduce_sum(mul(x, x)), 0.5)
        assert np.max(np.abs(gr.backward_input(loss, x) - x.data)) < 1e-15

    def test_elementwise_graph_matches_finite_differences(self):
        # composition of mul, add, log, softmax, reduce_sum
        v = np.random.default_rng(4).random(6) + 0.5
        weights = np.random.default_rng(5).random(6)

        def value_at(arr):
            t = Tensor(arr, requires_grad=True)
            node = reduce_sum(mul(log(Tensor(1.0) + softmax(mul(t, weights))), weights))
            return float(node.data)

        t = Tensor(v, requires_grad=True)
        node = reduce_sum(mul(log(Tensor(1.0) + softmax(mul(t, weights))), weights))
        grad = gr.backward_input(node, t)
        fd = finite_diff(value_at, v)
        assert np.max(np.abs(grad - fd)) < 1e-7

    def test_non_scalar_loss_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            gr.backward(mul(x, 2.0))

    def test_unreachable_input_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        loss = reduce_sum(y)
        with pytest.raises(ValueError):
            gr.backward_input(loss, x)

    def test_repeated_backward_does_not_accumulate(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = reduce_sum(mul(x, 2.0))
        gr.backward(loss)
        first = x.grad.copy()
        gr.backward(loss)
        assert np.array_equal(x.grad, first)

    def test_stale_grads_zeroed_for_unused_params(self):
        graph = GraphModel(make_mlp(["dense(2,3)", "dense(3,2)"]))
        feats = graph.extract(np.ones((1, 2)))
        gr.backward_params(reduce_sum(feats), graph)
        assert np.any(graph.params["dense0.weight"].grad != 0)
        # new loss that does not touch the extractor
        loss = reduce_sum(graph.params["dense1.weight"])
        grads = graph.model.views(gr.backward_params(loss, graph))
        assert np.array_equal(grads["dense0.weight"], np.zeros((1, 2, 3)))


class TestCrossEntropy:
    def test_two_equal_logits(self):
        loss = softmax_cross_entropy(Tensor([[0.0, 0.0]]), [0])
        assert abs(float(loss.data) - math.log(2)) < 1e-12

    def test_extreme_logits_do_not_overflow(self):
        loss = softmax_cross_entropy(Tensor([[1000.0, 0.0]]), [0])
        assert math.isfinite(float(loss.data))
        assert float(loss.data) < 1e-10

    def test_soft_labels_symmetric(self):
        loss = softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([[0.5, 0.5]]))
        assert abs(float(loss.data) - math.log(2)) < 1e-12

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor([[0.0, 0.0]]), [2])

    def test_soft_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([[0.9, 0.3]]))

    @settings(deadline=None, max_examples=50, derandomize=True)
    @given(st.lists(st.floats(-20, 20), min_size=3, max_size=3), st.integers(0, 2))
    def test_nonnegative(self, logits, label):
        loss = softmax_cross_entropy(Tensor([logits]), [label])
        assert float(loss.data) >= 0.0


def one_weight(value):
    """A stack of one dense(1,1) model with weight `value` and bias 0; `flat` is [[weight, bias]]."""
    return Model(["dense(1,1)"], np.array([[value, 0.0]]))


class TestSgd:
    def test_plain_step(self):
        model = one_weight(1.0)
        Sgd(0.1).step(model, np.array([[0.5, 0.0]]))
        assert abs(float(model.flat[0, 0]) - 0.95) < 1e-15

    def test_momentum_unrolled(self):
        model = one_weight(0.0)
        opt = Sgd(1.0, momentum=0.9)
        opt.step(model, np.array([[1.0, 0.0]]))
        assert abs(float(model.flat[0, 0]) - (-1.0)) < 1e-15
        opt.step(model, np.array([[1.0, 0.0]]))
        assert abs(float(model.flat[0, 0]) - (-2.9)) < 1e-12

    def test_pure_weight_decay(self):
        model = one_weight(1.0)
        Sgd(0.1, weight_decay=0.1).step(model, np.array([[0.0, 0.0]]))
        assert abs(float(model.flat[0, 0]) - 0.99) < 1e-15

    def test_zero_momentum_equals_plain_gradient_descent(self):
        data = np.random.default_rng(0).random((1, 8))
        grad = np.random.default_rng(1).random((1, 8))
        model = Model(["dense(3,2)"], data.copy())
        Sgd(0.05).step(model, grad)
        assert np.array_equal(model.flat, data - 0.05 * grad)

    def test_nan_parameter_is_not_hidden_by_a_relu(self):
        """A NaN weight feeding a relu is not masked out: it reaches its own model's gradient, and no other's."""
        arch = CLOSED_FORM_ARCHS["default"]
        model = Model(arch, np.concatenate([make_mlp(arch, seed).flat for seed in (1, 2, 3)]))
        model.params["dense0.weight"][1, 2, 3] = np.nan
        rng = np.random.default_rng(4)
        tape = Tape(model, 6)
        _, logits = model.forward(rng.random((3, 6, 5)).swapaxes(-1, -2), tape)
        targets = np.eye(4)[rng.integers(0, 4, size=(3, 6))].swapaxes(-1, -2)
        _, d_logits = cross_entropy_grad(logits, targets, np.ones((3, 6)), np.full(3, 6))
        nan = np.isnan(backward_params(model, tape, d_logits))
        assert nan.any(axis=1).tolist() == [False, True, False]
        assert model.views(nan)["dense0.weight"][1].any()


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        x = np.array([1.0, -2.0])
        before = x.copy()
        Adam(0.02).step(x, np.array([0.3, -0.7]))
        delta = x - before
        assert np.all(np.abs(np.abs(delta) - 0.02) < 1e-6)
        assert np.array_equal(np.sign(delta), [-1.0, 1.0])

    def test_zero_gradient_is_identity(self):
        data = np.random.default_rng(0).random(4)
        x = data.copy()
        opt = Adam(0.1)
        for _ in range(3):
            opt.step(x, np.zeros(4))
        assert np.array_equal(x, data)

    def test_ten_steps_on_square_matches_reference_recursion(self):
        x_opt = np.array(1.0)
        opt = Adam(0.1)
        for _ in range(10):
            opt.step(x_opt, 2.0 * x_opt)

        # independent reference recursion
        x, m, v = 1.0, 0.0, 0.0
        for t in range(1, 11):
            g = 2.0 * x
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 0.1 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert abs(float(x_opt) - x) < 1e-12
        assert abs(float(x_opt)) < 1.0

    def test_fifty_steps_on_a_matrix_match_the_allocating_recursion(self):
        rng = np.random.default_rng(5)
        start = rng.standard_normal((7, 3))
        grads = [rng.standard_normal((7, 3)) for _ in range(50)]
        x_opt = start.copy()
        opt = Adam(0.02)
        for g in grads:
            opt.step(x_opt, g)

        # the same recursion with a fresh array for every intermediate
        x, m, v = start.copy(), np.zeros((7, 3)), np.zeros((7, 3))
        for t, g in enumerate(grads, start=1):
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            x = x - 0.02 * (m / (1.0 - 0.9**t)) / (np.sqrt(v / (1.0 - 0.999**t)) + 1e-8)
        assert np.array_equal(x_opt, x)
        assert np.array_equal(opt.moment1, m) and np.array_equal(opt.moment2, v)

    def test_step_counter_increases(self):
        opt = Adam(0.1)
        x = np.array(1.0)
        for expected in (1, 2, 3):
            opt.step(x, np.array(0.5))
            assert opt.step_count == expected


class TestModel:
    def test_parameter_split(self):
        model = make_mlp(["dense(4,8)", "relu", "dense(8,8)", "relu", "dense(8,3)"])
        batch = np.random.default_rng(6).standard_normal((1, 5, 4)).swapaxes(-1, -2)
        features, logits = model.forward(batch)
        assert model.feature_dim == 8
        assert model.class_count == 3
        # the classifier is the last dense layer alone, one product of its block with the
        # features and a ones row; the extractor is everything before it
        block = np.concatenate((model.params["dense2.weight"], model.params["dense2.bias"][:, None]), axis=1)
        augmented = np.concatenate((features, np.ones((1, 1, 5))), axis=1)
        assert np.array_equal(logits, block.swapaxes(-1, -2) @ augmented)
        assert np.array_equal(model.classify(features), logits)
        model.params["dense2.weight"][...] = 0.0
        model.params["dense2.bias"][...] = 0.0
        assert np.array_equal(model.extract(batch), features)

    def test_copy_is_value_semantic(self):
        model = make_mlp(["dense(2,3)", "dense(3,2)"])
        clone = model.copy()
        clone.params["dense0.weight"][0, 0, 0] += 1.0
        assert model.params["dense0.weight"][0, 0, 0] != clone.params["dense0.weight"][0, 0, 0]

    def test_init_respects_fan_in_bound(self):
        model = make_mlp(["dense(16,8)", "dense(8,4)"], seed=3)
        bound = math.sqrt(1 / 16)
        w = model.params["dense0.weight"]
        assert np.all(np.abs(w) <= bound)

    def test_architecture_must_end_with_dense(self):
        with pytest.raises(ConfigError):
            parse_architecture(["dense(3,3)", "relu"])

    def test_architecture_width_chain_checked(self):
        with pytest.raises(ConfigError):
            parse_architecture(["dense(3,4)", "dense(5,2)"])

    def test_no_grad_suppresses_graph(self):
        graph = GraphModel(make_mlp(["dense(2,3)", "dense(3,2)"]))
        with no_grad():
            _, logits = graph.forward(np.ones((1, 2)))
        assert not logits.requires_grad

    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        loss = reduce_sum(mul(reshape(x, (2, 3)), 2.0))
        assert np.array_equal(gr.backward_input(loss, x), np.full(6, 2.0))

    def test_relu_gradient_mask(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        loss = reduce_sum(relu(x))
        assert np.array_equal(gr.backward_input(loss, x), [0.0, 1.0])


def assert_rel_close(actual, expected, rel=1e-12):
    """Max-norm relative agreement: max |actual - expected| <= rel * max |expected|."""
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rel * np.max(np.abs(expected))


def soft_labels(rng, batch, classes):
    """Mixup-style targets: half the rows 50/50 between two classes, half hard."""
    target = np.zeros((batch, classes))
    for row in range(batch):
        a, b = rng.choice(classes, size=2, replace=False)
        target[row, a] += 0.5
        target[row, b if row % 2 else a] += 0.5
    return target


@pytest.mark.parametrize("arch", list(CLOSED_FORM_ARCHS.values()), ids=list(CLOSED_FORM_ARCHS))
class TestClosedForm:
    """`Model.forward` and `backward` against the graph reference.

    The closed form runs feature-major (models, width, batch) stacks and the
    graph (batch, width) matrices, so a stack of one's result is compared
    through its transpose.
    """

    def setup_inputs(self, arch):
        model = make_mlp(arch, seed=31)
        rng = np.random.default_rng(32)
        # signed inputs so that a leading relu clamps some coordinates; the
        # graph runs the stack of one's batch as rows, batch[0].T
        batch = rng.standard_normal((1, 7, 5)).swapaxes(-1, -2)
        return model, rng, batch, rng.integers(0, 4, size=7)

    def loss_terms(self, model, rng):
        """Random gradients at the features and at the logits, feature-major."""
        d_features = rng.standard_normal((1, 7, model.feature_dim)).swapaxes(-1, -2)
        return d_features, rng.standard_normal((1, 7, model.class_count)).swapaxes(-1, -2)

    def test_forward_is_bitwise_the_graph(self, arch):
        model, _, batch, _ = self.setup_inputs(arch)
        graph_features, graph_logits = GraphModel(model).forward(batch[0].T)
        tape = Tape(model, 7)
        for walk in (None, tape):
            features, logits = model.forward(batch, walk)
            assert np.array_equal(features[0].T, graph_features.data)
            assert np.array_equal(logits[0].T, graph_logits.data)
            assert np.array_equal(model.extract(batch, walk)[0].T, graph_features.data)
            assert np.array_equal(model.classify(graph_features.data.T[None], walk)[0].T, graph_logits.data)
        # the tape holds the last walk: the classifier's input rows are the features
        assert np.array_equal(tape.features[0].T, graph_features.data)
        assert np.array_equal(tape.logits[0].T, graph_logits.data)
        if model._split == 0:  # a single dense layer: the features are the input itself
            assert np.array_equal(features, batch) and tape.features is tape.input

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_real_only_param_grads_are_bitwise(self, arch, soft):
        model, rng, batch, labels = self.setup_inputs(arch)
        targets = soft_labels(rng, 7, 4) if soft else np.eye(4)[labels]
        tape = Tape(model, 7)
        _, logits = model.forward(batch, tape)
        value, d_logits = cross_entropy_grad(logits, targets.T[None], np.ones((1, 7)), [7])
        grads = model.views(backward_params(model, tape, d_logits))

        graph = GraphModel(model)
        _, graph_logits = graph.forward(batch[0].T)
        loss = softmax_cross_entropy(graph_logits, targets if soft else labels)
        expected = model.views(gr.backward_params(loss, graph))
        assert value.tolist() == [float(loss.data)]
        assert set(grads) == set(expected)
        for name in expected:
            assert np.array_equal(grads[name], expected[name]), name

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_blended_param_grads_match_graph(self, arch, alpha):
        model, rng, batch, labels = self.setup_inputs(arch)
        syn_batch = rng.random((1, 6, 5)).swapaxes(-1, -2)
        syn_targets = soft_labels(rng, 6, 4)
        tape, syn_tape = Tape(model, 7), Tape(model, 6)
        _, logits = model.forward(batch, tape)
        _, syn_logits = model.forward(syn_batch, syn_tape)
        (real_value,), d_real = cross_entropy_grad(logits, np.eye(4)[labels].T[None], np.full((1, 7), alpha), [7])
        (syn_value,), d_syn = cross_entropy_grad(syn_logits, syn_targets.T[None], np.full((1, 6), 1.0 - alpha), [6])
        real_grads = model.views(backward_params(model, tape, d_real))
        syn_grads = model.views(backward_params(model, syn_tape, d_syn))

        graph = GraphModel(model)
        _, graph_logits = graph.forward(batch[0].T)
        _, graph_syn_logits = graph.forward(syn_batch[0].T)
        loss = add(
            mul(softmax_cross_entropy(graph_logits, labels), alpha),
            mul(softmax_cross_entropy(graph_syn_logits, syn_targets), 1.0 - alpha),
        )
        expected = model.views(gr.backward_params(loss, graph))
        assert abs(real_value + syn_value - float(loss.data)) <= 1e-12 * abs(float(loss.data))
        for name in expected:
            assert_rel_close(real_grads[name] + syn_grads[name], expected[name])

    def test_input_grad_with_feature_term_matches_graph(self, arch):
        # loss = sum(features * A) + sum(logits * B): d_features = A, d_logits = B
        model, rng, batch, _ = self.setup_inputs(arch)
        d_features, d_logits = self.loss_terms(model, rng)
        tape = Tape(model, 7)
        model.forward(batch, tape)
        grad = backward_input(model, tape, d_logits, d_features)

        leaf = Tensor(batch[0].T, requires_grad=True)
        features, logits = GraphModel(model).forward(leaf)
        loss = add(reduce_sum(mul(features, d_features[0].T)), reduce_sum(mul(logits, d_logits[0].T)))
        assert_rel_close(grad[0].T, gr.backward_input(loss, leaf))

    def test_param_grads_with_feature_term_match_graph(self, arch):
        model, rng, batch, _ = self.setup_inputs(arch)
        d_features, d_logits = self.loss_terms(model, rng)
        tape = Tape(model, 7)
        model.forward(batch, tape)
        grads = model.views(backward_params(model, tape, d_logits, d_features))

        graph = GraphModel(model)
        features, logits = graph.forward(batch[0].T)
        loss = add(reduce_sum(mul(features, d_features[0].T)), reduce_sum(mul(logits, d_logits[0].T)))
        expected = model.views(gr.backward_params(loss, graph))
        for name in expected:
            assert_rel_close(grads[name], expected[name])

    @pytest.mark.parametrize("wrt", ["params", "input"])
    def test_backward_leaves_the_callers_gradients_alone(self, arch, wrt):
        """Neither loss gradient is written, nor the forward walk the tape holds: a second backward repeats the first."""
        model, rng, batch, _ = self.setup_inputs(arch)
        d_features, d_logits = self.loss_terms(model, rng)
        kept = d_features.copy(), d_logits.copy()
        tape = Tape(model, 7)
        model.forward(batch, tape)
        walked = [a.copy() for a in (tape.input, tape.features, tape.logits)]
        entry = backward_params if wrt == "params" else backward_input
        for features_term in (None, d_features):
            first = entry(model, tape, d_logits, features_term).copy()
            assert np.array_equal(entry(model, tape, d_logits, features_term), first)
        assert np.array_equal(d_features, kept[0]) and np.array_equal(d_logits, kept[1])
        assert all(np.array_equal(a, b) for a, b in zip((tape.input, tape.features, tape.logits), walked))

    def test_both_entry_points_are_one_walk(self, arch):
        model, rng, batch, _ = self.setup_inputs(arch)
        d_features, d_logits = self.loss_terms(model, rng)
        tape = Tape(model, 7)
        model.forward(batch, tape)
        grad = backward(model, tape, d_logits, d_features, params=True)
        assert grad is tape.grad and grad.shape == model.flat.shape
        grad = grad.copy()
        assert np.array_equal(grad, backward_params(model, tape, d_logits, d_features))
        by_input = backward_input(model, tape, d_logits, d_features).copy()
        assert by_input.shape == batch.shape
        assert np.array_equal(backward(model, tape, d_logits, d_features, params=False), by_input)

    def test_a_stack_runs_each_model_bitwise(self, arch):
        """One walk over a stack of three models is each model's own walk as a stack of one, bit for bit."""
        model, rng, batch, _ = self.setup_inputs(arch)
        models = [model, make_mlp(arch, seed=41), make_mlp(arch, seed=51)]
        stack = Model(arch, np.concatenate([m.flat for m in models]))
        rows = rng.standard_normal((2, 7, 5)).swapaxes(-1, -2)
        batches = np.concatenate([batch, rows])
        targets = np.stack([np.eye(4)[rng.integers(0, 4, size=7)], soft_labels(rng, 7, 4), soft_labels(rng, 7, 4)])
        targets = targets.swapaxes(-1, -2)
        weights = rng.random((3, 7))
        d_features = rng.standard_normal((3, 7, model.feature_dim)).swapaxes(-1, -2)
        tape, input_tape = Tape(stack, 7), Tape(stack, 7)
        features, logits = stack.forward(batches, tape)
        stack.forward(batches, input_tape)
        loss, d_logits = cross_entropy_grad(logits, targets, np.full((3, 7), 0.4), np.full(3, 7))
        row_loss, d_rows = cross_entropy_grad(logits, targets, weights, np.ones(3))
        grads = backward_params(stack, tape, d_logits, d_features)
        by_input = backward_input(stack, input_tape, d_rows, d_features)
        assert grads.shape == stack.flat.shape and loss.shape == row_loss.shape == (3,)
        for i, m in enumerate(models):
            own, one = Tape(m, 7), slice(i, i + 1)
            f, z = m.forward(batches[one], own)
            assert np.array_equal(features[one], f) and np.array_equal(logits[one], z)
            value, d = cross_entropy_grad(z, targets[one], np.full((1, 7), 0.4), [7])
            assert loss[one] == value and np.array_equal(d_logits[one], d)
            value, d = cross_entropy_grad(z, targets[one], weights[one], [1])
            assert row_loss[one] == value and np.array_equal(d_rows[one], d)
            assert np.array_equal(grads[one], backward_params(m, own, d_logits[one], d_features[one]))
            assert np.array_equal(by_input[one], backward_input(m, own, d_rows[one], d_features[one]))
        with pytest.raises(ValueError, match="input width 5"):
            stack.forward(batches[:2])


def test_padding_rows_get_no_gradient_and_stay_out_of_the_mean():
    rng = np.random.default_rng(9)
    logits = rng.standard_normal((3, 5, 4)).swapaxes(-1, -2)
    targets = np.eye(4)[rng.integers(0, 4, size=(3, 5))].swapaxes(-1, -2)
    rows = np.array([5, 2, 4])
    for i, k in enumerate(rows):
        targets[i, :, k:] = 0.0
    loss, d_logits = cross_entropy_grad(logits, targets, np.where(np.arange(5) < rows[:, None], 0.4, 0.0), rows)
    for i, k in enumerate(rows):
        (value,), (d,) = cross_entropy_grad(
            logits[i : i + 1, :, :k], targets[i : i + 1, :, :k], np.full((1, k), 0.4), [k]
        )
        assert np.array_equal(d_logits[i, :, :k], d)
        assert not d_logits[i, :, k:].any()
        assert abs(loss[i] - value) <= 1e-15 * abs(value)
    unpadded = cross_entropy_grad(logits[:1], targets[:1], np.full((1, 5), 0.4), [5])
    assert loss[0] == unpadded[0][0]  # an unpadded model is bitwise


def test_cross_entropy_writes_its_gradient_into_out():
    rng = np.random.default_rng(10)
    logits, targets = rng.standard_normal((2, 4, 5)), np.eye(4)[rng.integers(0, 4, size=(2, 5))].swapaxes(-1, -2)
    loss, d_logits = cross_entropy_grad(logits, targets, np.ones((2, 5)), [5, 5])
    out = np.empty_like(logits)
    again, written = cross_entropy_grad(logits, targets, np.ones((2, 5)), [5, 5], out)
    assert written is out and np.array_equal(written, d_logits) and np.array_equal(again, loss)


def test_cross_entropy_sample_weights_must_match_the_batch():
    with pytest.raises(ValueError, match="1 x 3 sample weights"):
        cross_entropy_grad(np.zeros((1, 2, 3)), np.eye(2)[[[0, 1, 1]]].swapaxes(-1, -2), np.ones((1, 2)), [1])
    with pytest.raises(ValueError, match=r"expected 3 sample counts, got shape \(1,\)"):
        cross_entropy_grad(np.zeros((3, 2, 3)), np.eye(2)[[[0, 1, 1]] * 3].swapaxes(-1, -2), np.ones((3, 3)), [3])


def test_cross_entropy_takes_a_target_matrix_only():
    with pytest.raises(ValueError, match=r"targets must have shape \(1, 2, 3\)"):
        cross_entropy_grad(np.zeros((1, 2, 3)), [[0, 1, 1]], np.ones((1, 3)), [1])
    with pytest.raises(ValueError, match=r"\(models, classes, batch\) stack, got shape \(3, 2\)"):
        cross_entropy_grad(np.zeros((3, 2)), np.eye(2)[[0, 1, 1]], np.ones((3, 2)), [1])


def test_extract_and_classify_reject_wrong_width():
    model = make_mlp(["dense(3,6)", "relu", "dense(6,2)"])
    with pytest.raises(ValueError, match="input width 3"):
        model.extract(np.zeros((1, 4, 2)))
    with pytest.raises(ValueError, match=r"batch shape \(2, 3\) incompatible with 1 models"):
        model.extract(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="classifier width 6"):
        model.classify(np.zeros((1, 3, 2)))
    with pytest.raises(ValueError, match="cannot run 1 models on 2 samples"):
        model.forward(np.zeros((1, 3, 2)), Tape(model, 3))
    tape = Tape(model, 3)
    model.forward(np.zeros((1, 3, 3)), tape)
    with pytest.raises(ValueError, match=r"logit gradients must have shape \(1, 2, 3\), got \(1, 2, 1\)"):
        backward_params(model, tape, np.ones((1, 2, 1)))


def test_copy_and_aggregate_parse_no_architecture(monkeypatch):
    import fedsynth
    import fedsynth.autodiff as ad
    from fedsynth.config import config_from_dict
    from fedsynth.engine import aggregate
    from fedsynth.runner import build_state

    calls = []
    original = ad.parse_architecture

    def counting(layers):
        calls.append(list(layers))
        return original(layers)

    # every module that holds the parser is patched, so no second parse path goes uncounted
    for module in vars(fedsynth).values():
        if getattr(module, "parse_architecture", None) is original:
            monkeypatch.setattr(module, "parse_architecture", counting)
    ad.architecture_layout.cache_clear()
    arch = ["dense(3,11)", "relu", "dense(11,11)", "relu", "dense(11,2)"]
    model = make_mlp(arch)
    assert calls == [arch]
    clones = [model.copy() for _ in range(3)]
    merged = aggregate(Model(arch, np.concatenate([model.flat] + [c.flat for c in clones])))
    merged.copy()
    Model(arch, model.flat)
    assert calls == [arch]

    # a config's check and the state built from it share the parse too
    arch = ["dense(16,5)", "relu", "dense(5,6)"]
    cfg = config_from_dict({"architecture": arch})
    config_from_dict({"architecture": arch})
    build_state(cfg)
    assert calls[1:] == [arch]


class TestTapeGradients:
    """Finite differences of the loss the tape's walk differentiates, on the code that runs.

    The loss is sum(features * A) plus each model's mean cross entropy, so
    the feature term and the logit term both reach the input and the
    parameters.
    """

    def loss(self, model, batch, targets, d_features):
        features, logits = model.forward(batch)
        ce, _ = cross_entropy_grad(logits, targets, np.ones(targets.shape[::2]), np.full(len(targets), targets.shape[2]))
        return float(np.sum(features * d_features) + ce.sum())

    def check(self, model, tape, batch, targets, d_features):
        kept = batch.copy()
        features, logits = model.forward(batch, tape)
        _, d_logits = cross_entropy_grad(
            logits, targets, np.ones(targets.shape[::2]), np.full(len(targets), targets.shape[2]), tape.d_logits
        )
        grad = backward_params(model, tape, d_logits, d_features).copy()
        by_input = backward_input(model, tape, d_logits, d_features)
        assert np.array_equal(batch, kept)  # a leading relu reads the caller's batch and never writes it

        def in_batch(x):
            return self.loss(model, x.reshape(batch.shape), targets, d_features)

        def in_params(flat):
            return self.loss(Model(model.architecture, flat.reshape(model.flat.shape)), batch, targets, d_features)

        for fd, closed in ((finite_diff(in_batch, batch), by_input), (finite_diff(in_params, model.flat), grad)):
            assert np.max(np.abs(fd - closed)) <= 1e-7 * max(1.0, np.max(np.abs(closed)))

    def case(self, arch, models, samples, seed=3):
        rng = np.random.default_rng(seed)
        model = Model(arch, np.concatenate([make_mlp(arch, seed + s).flat for s in range(models)]))
        batch = rng.standard_normal((models, 5, samples))
        targets = np.eye(4)[rng.integers(0, 4, size=(models, samples))].swapaxes(-1, -2)
        return model, batch, targets, rng.standard_normal((models, model.feature_dim, samples))

    @pytest.mark.parametrize("samples", [1, 6, 130], ids=["one_sample", "six_samples", "two_pieces"])
    @pytest.mark.parametrize("arch", list(CLOSED_FORM_ARCHS.values()), ids=list(CLOSED_FORM_ARCHS))
    def test_walk_matches_finite_differences(self, arch, samples):
        """Every architecture, a single dense layer (the features are the input) and a leading relu among them.

        At n=1 too, and at 130 samples, which the tape walks as a 128-column piece and a 2-column one.
        """
        model, batch, targets, d_features = self.case(arch, 1, samples)
        self.check(model, Tape(model, samples), batch, targets, d_features)

    @pytest.mark.parametrize("arch", list(CLOSED_FORM_ARCHS.values()), ids=list(CLOSED_FORM_ARCHS))
    def test_a_trimmed_prefix_matches_finite_differences(self, arch):
        """A two-model stack's tape, trimmed to its first model, walks that model alone and leaves the other's rows."""
        stack, batch, targets, d_features = self.case(arch, 2, 4)
        tape = Tape(stack, 4)
        stack.forward(batch, tape)
        backward_params(stack, tape, tape.logits, d_features)
        second = tape.grad[1].copy(), tape.logits[1].copy()
        prefix = Model(arch, stack.flat[:1])
        self.check(prefix, tape.prefix(1), batch[:1], targets[:1], d_features[:1])
        assert np.array_equal(tape.grad[1], second[0]) and np.array_equal(tape.logits[1], second[1])
        assert np.shares_memory(tape.prefix(1).grad, tape.grad)


WIDE_ARCH = ["dense(16,32)", "relu", "dense(32,32)", "relu", "dense(32,6)"]

# each script prints a digest of what it computed; one BLAS thread and two must print the same
THREAD_SCRIPTS = {
    # the feature export of a short ragged run, walked without a tape
    "untaped_walk": f"""
import hashlib
import numpy as np
from fedsynth.autodiff import Model
model = Model.initialize({WIDE_ARCH}, np.random.default_rng(0))
features, logits = model.forward(np.random.default_rng(1).random((1, 16, 1057)))
print(hashlib.sha256(features.tobytes() + logits.tobytes()).hexdigest())
""",
    # a taped walk and both backward passes, each product far past OpenBLAS's single-thread size
    "taped_walk": f"""
import hashlib
import numpy as np
from fedsynth.autodiff import Model, Tape, backward_input, backward_params
rng = np.random.default_rng(1)
model = Model.initialize({WIDE_ARCH}, np.random.default_rng(0))
tape = Tape(model, 1001)
features, logits = model.forward(rng.random((1, 16, 1001)), tape)
d_logits, d_features = rng.standard_normal(logits.shape), rng.standard_normal(features.shape)
walked = [features, logits, backward_params(model, tape, d_logits, d_features)]
walked.append(backward_input(model, tape, d_logits, d_features))
print(hashlib.sha256(b"".join(a.tobytes() for a in walked)).hexdigest())
""",
    # a one-round hfmds_fl run whose two synthesis jobs invert 1001 rows each, in-process
    "synthesis_event": """
import hashlib
from fedsynth.config import config_from_dict
from fedsynth.runner import execute
cfg = config_from_dict({"dataset": {"classes": 2, "dim": 16, "per_class": 1400}, "partition": {"clients": 2},
                        "rounds": 1, "syn_interval": 1, "syn_per_client": 1001, "syn_steps": 3, "seed": 1})
state, _ = execute(cfg)
assert len(state.syn_samples) == 2002
print(hashlib.sha256(state.syn_samples.tobytes() + state.model.flat.tobytes()).hexdigest())
""",
}


def digest_under_threads(script, threads):
    """Run `script` in a fresh interpreter whose BLAS uses `threads` threads; returns what it prints."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("script", list(THREAD_SCRIPTS.values()), ids=list(THREAD_SCRIPTS))
def test_a_wide_walk_does_not_depend_on_blas_threads(script):
    """Past 128 samples every product runs on 128-column pieces, each on one thread, so one thread and two agree."""
    assert digest_under_threads(script, "1") == digest_under_threads(script, "2")


@pytest.mark.parametrize("walk", ["untaped", "taped", "prefix"])
def test_a_wide_walk_is_its_pieces_walked_alone(walk):
    """300 samples walk bit for bit as their 128-column pieces do on tapes of their own.

    The walk's features, logits and input gradient are the pieces'
    concatenated, and its parameter gradient is the sum of the pieces'
    gradients, taken in piece order. A trimmed prefix of a two-model
    tape walks its first model the same way.
    """
    rng = np.random.default_rng(1)
    model = Model.initialize(WIDE_ARCH, np.random.default_rng(0))
    batch = rng.random((1, 16, 300))
    d_logits, d_features = rng.standard_normal((1, 6, 300)), rng.standard_normal((1, 32, 300))
    if walk == "untaped":
        walked = model.forward(batch)
    else:
        if walk == "taped":
            tape = Tape(model, 300)
        else:  # the first model of a two-model tape that walked both
            stack = Model(WIDE_ARCH, np.concatenate([model.flat, make_mlp(WIDE_ARCH, seed=5).flat]))
            whole = Tape(stack, 300)
            stack.forward(np.concatenate([batch, rng.random((1, 16, 300))]), whole)
            tape = whole.prefix(1)
        walked = [a.copy() for a in model.forward(batch, tape)]
        walked.append(backward_input(model, tape, d_logits, d_features).copy())
        grad = backward_params(model, tape, d_logits, d_features)
    pieces, summed = [], None
    for lo in (0, 128, 256):
        cut = slice(lo, lo + 128)
        own = Tape(model, min(128, 300 - lo))
        pieces.append([a.copy() for a in model.forward(batch[..., cut], own)])
        pieces[-1].append(backward_input(model, own, d_logits[..., cut], d_features[..., cut]).copy())
        piece_grad = backward_params(model, own, d_logits[..., cut], d_features[..., cut])
        summed = piece_grad.copy() if summed is None else np.add(summed, piece_grad, out=summed)
    joined = [np.concatenate(parts, axis=-1) for parts in zip(*pieces)]
    if walk == "untaped":
        assert all(np.array_equal(a, b) for a, b in zip(walked, joined[:2], strict=True))
    else:
        assert all(np.array_equal(a, b) for a, b in zip(walked, joined, strict=True))
        assert np.array_equal(grad, summed)
