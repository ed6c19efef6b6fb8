import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsynth.autodiff import (
    Adam,
    Model,
    Sgd,
    Tensor,
    add,
    backward,
    backward_input,
    backward_params,
    cross_entropy_grad,
    log,
    matmul,
    mlp_backward,
    mlp_forward,
    mul,
    no_grad,
    parse_architecture,
    reduce_sum,
    relu,
    reshape,
    softmax,
    softmax_cross_entropy,
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


class TestForward:
    def test_identity_extractor_and_classifier(self):
        model = make_mlp(["dense(2,2)", "dense(2,2)"])
        for name in model.params:
            if name.endswith("weight"):
                model.params[name].data = np.eye(2)
            else:
                model.params[name].data = np.zeros(2)
        features, logits = model.forward(np.array([[1.0, 2.0]]))
        assert np.array_equal(features.data, [[1.0, 2.0]])
        assert np.array_equal(logits.data, [[1.0, 2.0]])

    def test_relu_clamps_negatives_in_features(self):
        model = make_mlp(["dense(2,2)", "relu", "dense(2,2)"])
        model.params["dense0.weight"].data = np.eye(2)
        model.params["dense0.bias"].data = np.zeros(2)
        features, _ = model.forward(np.array([[-1.0, 3.0]]))
        assert np.array_equal(features.data, [[0.0, 3.0]])

    def test_forward_matches_plain_numpy_oracle(self):
        model = make_mlp(["dense(5,16)", "relu", "dense(16,8)", "relu", "dense(8,3)"], seed=7)
        batch = np.random.default_rng(8).random((4, 5))

        # independent plain matrix-multiply forward
        h = batch
        h = np.maximum(h @ model.params["dense0.weight"].data + model.params["dense0.bias"].data, 0.0)
        h = np.maximum(h @ model.params["dense1.weight"].data + model.params["dense1.bias"].data, 0.0)
        expected = h @ model.params["dense2.weight"].data + model.params["dense2.bias"].data

        _, logits = model.forward(batch)
        assert logits.data.shape == (4, 3)
        assert np.max(np.abs(logits.data - expected)) < 1e-12

    def test_forward_is_pure(self):
        model = make_mlp(["dense(3,6)", "relu", "dense(6,2)"], seed=5)
        batch = np.random.default_rng(1).random((3, 3))
        _, a = model.forward(batch)
        _, b = model.forward(batch)
        assert np.array_equal(a.data, b.data)

    def test_batch_shape_mismatch_raises(self):
        model = make_mlp(["dense(3,6)", "relu", "dense(6,2)"])
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, 4)))


class TestBackward:
    def test_sum_of_weight_gives_ones(self):
        model = make_mlp(["dense(3,4)", "dense(4,2)"])
        loss = reduce_sum(model.params["dense0.weight"])
        grads = backward_params(loss, model)
        assert np.array_equal(grads["dense0.weight"], np.ones((3, 4)))
        assert np.array_equal(grads["dense1.weight"], np.zeros((4, 2)))

    def test_quadratic_form_gradient(self):
        # loss = 0.5 * ||W x||^2  ->  dW = (W x) x^T
        w = Tensor(np.random.default_rng(2).random((4, 3)), requires_grad=True)
        x = np.random.default_rng(3).random((3, 1))
        y = matmul(w, x)
        loss = mul(reduce_sum(mul(y, y)), 0.5)
        backward(loss)
        expected = (w.data @ x) @ x.T
        assert np.max(np.abs(w.grad - expected)) < 1e-12

    def test_mlp_cross_entropy_matches_finite_differences(self):
        model = make_mlp(["dense(4,12)", "relu", "dense(12,6)", "relu", "dense(6,3)"], seed=11)
        batch = np.random.default_rng(12).random((5, 4))
        labels = np.array([0, 1, 2, 1, 0])

        _, logits = model.forward(batch)
        loss = softmax_cross_entropy(logits, labels)
        grads = backward_params(loss, model)

        coord_rng = np.random.default_rng(13)
        names = list(model.params)
        for _ in range(30):
            name = names[coord_rng.integers(len(names))]
            flat_index = int(coord_rng.integers(model.params[name].data.size))

            def loss_at(value):
                clone = model.copy()
                clone.params[name].data.flat[flat_index] = value
                _, lg = clone.forward(batch)
                return float(softmax_cross_entropy(lg, labels).data)

            v = model.params[name].data.flat[flat_index]
            fd = (loss_at(v + 1e-5) - loss_at(v - 1e-5)) / 2e-5
            assert rel_err(fd, grads[name].flat[flat_index]) < 1e-4

    def test_input_gradient_sum_is_ones(self):
        x = Tensor(np.random.default_rng(0).random(5), requires_grad=True)
        loss = reduce_sum(x)
        assert np.array_equal(backward_input(loss, x), np.ones(5))

    def test_input_gradient_half_square_norm_is_input(self):
        x = Tensor(np.random.default_rng(1).random(5), requires_grad=True)
        loss = mul(reduce_sum(mul(x, x)), 0.5)
        assert np.max(np.abs(backward_input(loss, x) - x.data)) < 1e-15

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
        grad = backward_input(node, t)
        fd = finite_diff(value_at, v)
        assert np.max(np.abs(grad - fd)) < 1e-7

    def test_non_scalar_loss_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            backward(mul(x, 2.0))

    def test_unreachable_input_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        loss = reduce_sum(y)
        with pytest.raises(ValueError):
            backward_input(loss, x)

    def test_repeated_backward_does_not_accumulate(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = reduce_sum(mul(x, 2.0))
        backward(loss)
        first = x.grad.copy()
        backward(loss)
        assert np.array_equal(x.grad, first)

    def test_stale_grads_zeroed_for_unused_params(self):
        model = make_mlp(["dense(2,3)", "dense(3,2)"])
        feats = model.extract(np.ones((1, 2)))
        backward_params(reduce_sum(feats), model)
        assert np.any(model.params["dense0.weight"].grad != 0)
        # new loss that does not touch the extractor
        loss = reduce_sum(model.params["dense1.weight"])
        grads = backward_params(loss, model)
        assert np.array_equal(grads["dense0.weight"], np.zeros((2, 3)))


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


class TestSgd:
    def test_plain_step(self):
        p = {"w": Tensor(np.array(1.0), requires_grad=True)}
        Sgd(0.1).step(p, {"w": np.array(0.5)})
        assert abs(float(p["w"].data) - 0.95) < 1e-15

    def test_momentum_unrolled(self):
        p = {"w": Tensor(np.array(0.0), requires_grad=True)}
        opt = Sgd(1.0, momentum=0.9)
        opt.step(p, {"w": np.array(1.0)})
        assert abs(float(p["w"].data) - (-1.0)) < 1e-15
        opt.step(p, {"w": np.array(1.0)})
        assert abs(float(p["w"].data) - (-2.9)) < 1e-12

    def test_pure_weight_decay(self):
        p = {"w": Tensor(np.array(1.0), requires_grad=True)}
        Sgd(0.1, weight_decay=0.1).step(p, {"w": np.array(0.0)})
        assert abs(float(p["w"].data) - 0.99) < 1e-15

    def test_zero_momentum_equals_plain_gradient_descent(self):
        data = np.random.default_rng(0).random((3, 2))
        grad = np.random.default_rng(1).random((3, 2))
        p = {"w": Tensor(data.copy(), requires_grad=True)}
        Sgd(0.05).step(p, {"w": grad})
        assert np.array_equal(p["w"].data, data - 0.05 * grad)

    def test_nan_gradient_names_parameter(self):
        p = {"dense0.weight": Tensor(np.ones(2), requires_grad=True)}
        with pytest.raises(ValueError, match="dense0.weight"):
            Sgd(0.1).step(p, {"dense0.weight": np.array([1.0, np.nan])})


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self):
        p = {"x": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
        before = p["x"].data.copy()
        Adam(0.02).step(p, {"x": np.array([0.3, -0.7])})
        delta = p["x"].data - before
        assert np.all(np.abs(np.abs(delta) - 0.02) < 1e-6)
        assert np.array_equal(np.sign(delta), [-1.0, 1.0])

    def test_zero_gradient_is_identity(self):
        data = np.random.default_rng(0).random(4)
        p = {"x": Tensor(data.copy(), requires_grad=True)}
        opt = Adam(0.1)
        for _ in range(3):
            opt.step(p, {"x": np.zeros(4)})
        assert np.array_equal(p["x"].data, data)

    def test_ten_steps_on_square_matches_reference_recursion(self):
        p = {"x": Tensor(np.array(1.0), requires_grad=True)}
        opt = Adam(0.1)
        for _ in range(10):
            opt.step(p, {"x": 2.0 * p["x"].data})

        # independent reference recursion
        x, m, v = 1.0, 0.0, 0.0
        for t in range(1, 11):
            g = 2.0 * x
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            x -= 0.1 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert abs(float(p["x"].data) - x) < 1e-12
        assert abs(float(p["x"].data)) < 1.0

    def test_step_counter_increases(self):
        opt = Adam(0.1)
        p = {"x": Tensor(np.array(1.0), requires_grad=True)}
        for expected in (1, 2, 3):
            opt.step(p, {"x": np.array(0.5)})
            assert opt.step_count == expected

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ConfigError):
            Adam(0.1, eps=0.0)


class TestModel:
    def test_parameter_split(self):
        model = make_mlp(["dense(4,8)", "relu", "dense(8,8)", "relu", "dense(8,3)"])
        assert set(model.extractor_params()) == {
            "dense0.weight",
            "dense0.bias",
            "dense1.weight",
            "dense1.bias",
        }
        assert set(model.classifier_params()) == {"dense2.weight", "dense2.bias"}
        assert model.feature_dim == 8
        assert model.class_count == 3

    def test_copy_is_value_semantic(self):
        model = make_mlp(["dense(2,3)", "dense(3,2)"])
        clone = model.copy()
        clone.params["dense0.weight"].data[0, 0] += 1.0
        assert model.params["dense0.weight"].data[0, 0] != clone.params["dense0.weight"].data[0, 0]

    def test_init_respects_fan_in_bound(self):
        model = make_mlp(["dense(16,8)", "dense(8,4)"], seed=3)
        bound = math.sqrt(1 / 16)
        w = model.params["dense0.weight"].data
        assert np.all(np.abs(w) <= bound)

    def test_architecture_must_end_with_dense(self):
        with pytest.raises(ConfigError):
            parse_architecture(["dense(3,3)", "relu"])

    def test_architecture_width_chain_checked(self):
        with pytest.raises(ConfigError):
            parse_architecture(["dense(3,4)", "dense(5,2)"])

    def test_no_grad_suppresses_graph(self):
        model = make_mlp(["dense(2,3)", "dense(3,2)"])
        with no_grad():
            _, logits = model.forward(np.ones((1, 2)))
        assert not logits.requires_grad

    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        loss = reduce_sum(mul(reshape(x, (2, 3)), 2.0))
        assert np.array_equal(backward_input(loss, x), np.full(6, 2.0))

    def test_relu_gradient_mask(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        loss = reduce_sum(relu(x))
        assert np.array_equal(backward_input(loss, x), [0.0, 1.0])


CLOSED_FORM_ARCHS = {
    "default": ["dense(5,32)", "relu", "dense(32,32)", "relu", "dense(32,4)"],
    "one_dense": ["dense(5,4)"],
    "relu_first": ["relu", "dense(5,8)", "relu", "dense(8,4)"],
    "three_dense": ["dense(5,7)", "dense(7,6)", "relu", "dense(6,4)"],
}


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
    """`mlp_forward`/`mlp_backward` against the graph they replace in the hot loops."""

    def setup_inputs(self, arch):
        model = make_mlp(arch, seed=31)
        rng = np.random.default_rng(32)
        # signed inputs so that a leading relu clamps some coordinates
        return model, rng, rng.standard_normal((7, 5)), rng.integers(0, 4, size=7)

    def test_forward_is_bitwise_the_graph(self, arch):
        model, _, batch, _ = self.setup_inputs(arch)
        features, logits, cache = mlp_forward(model, batch)
        graph_features, graph_logits = model.forward(batch)
        assert np.array_equal(features, graph_features.data)
        assert np.array_equal(logits, graph_logits.data)
        assert len(cache) == len(model._layers)

    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_real_only_param_grads_are_bitwise(self, arch, soft):
        model, rng, batch, labels = self.setup_inputs(arch)
        if soft:
            labels = soft_labels(rng, len(batch), 4)
        _, logits, cache = mlp_forward(model, batch)
        value, d_logits = cross_entropy_grad(logits, labels)
        grads = mlp_backward(model, cache, d_logits)

        _, graph_logits = model.forward(batch)
        loss = softmax_cross_entropy(graph_logits, labels)
        expected = backward_params(loss, model)
        assert value == float(loss.data)
        assert set(grads) == set(expected)
        for name in expected:
            assert np.array_equal(grads[name], expected[name]), name

    @pytest.mark.parametrize("alpha", [0.0, 0.4, 1.0])
    def test_blended_param_grads_match_graph(self, arch, alpha):
        model, rng, batch, labels = self.setup_inputs(arch)
        syn_batch = rng.random((6, 5))
        syn_targets = soft_labels(rng, 6, 4)
        _, logits, cache = mlp_forward(model, batch)
        _, syn_logits, syn_cache = mlp_forward(model, syn_batch)
        real_value, d_real = cross_entropy_grad(logits, labels, alpha)
        syn_value, d_syn = cross_entropy_grad(syn_logits, syn_targets, 1.0 - alpha)
        real_grads = mlp_backward(model, cache, d_real)
        syn_grads = mlp_backward(model, syn_cache, d_syn)

        _, graph_logits = model.forward(batch)
        _, graph_syn_logits = model.forward(syn_batch)
        loss = add(
            mul(softmax_cross_entropy(graph_logits, labels), alpha),
            mul(softmax_cross_entropy(graph_syn_logits, syn_targets), 1.0 - alpha),
        )
        expected = backward_params(loss, model)
        assert abs(real_value + syn_value - float(loss.data)) <= 1e-12 * abs(float(loss.data))
        for name in expected:
            assert_rel_close(real_grads[name] + syn_grads[name], expected[name])

    def test_input_grad_with_feature_term_matches_graph(self, arch):
        # loss = sum(features * A) + sum(logits * B): d_features = A, d_logits = B
        model, rng, batch, _ = self.setup_inputs(arch)
        d_features = rng.standard_normal((len(batch), model.feature_dim))
        d_logits = rng.standard_normal((len(batch), model.class_count))
        _, _, cache = mlp_forward(model, batch)
        grad = mlp_backward(model, cache, d_logits, d_features, wrt="input")

        leaf = Tensor(batch, requires_grad=True)
        features, logits = model.forward(leaf)
        loss = add(reduce_sum(mul(features, d_features)), reduce_sum(mul(logits, d_logits)))
        assert_rel_close(grad, backward_input(loss, leaf))

    def test_param_grads_with_feature_term_match_graph(self, arch):
        model, rng, batch, _ = self.setup_inputs(arch)
        d_features = rng.standard_normal((len(batch), model.feature_dim))
        d_logits = rng.standard_normal((len(batch), model.class_count))
        _, _, cache = mlp_forward(model, batch)
        grads = mlp_backward(model, cache, d_logits, d_features)

        features, logits = model.forward(batch)
        loss = add(reduce_sum(mul(features, d_features)), reduce_sum(mul(logits, d_logits)))
        expected = backward_params(loss, model)
        for name in expected:
            assert_rel_close(grads[name], expected[name])


def test_mlp_backward_rejects_unknown_target():
    model = make_mlp(["dense(2,3)", "dense(3,2)"])
    _, logits, cache = mlp_forward(model, np.ones((1, 2)))
    with pytest.raises(ValueError, match="wrt"):
        mlp_backward(model, cache, logits, wrt="features")


def test_mlp_forward_rejects_wrong_width():
    model = make_mlp(["dense(3,6)", "relu", "dense(6,2)"])
    with pytest.raises(ValueError):
        mlp_forward(model, np.zeros((2, 4)))
