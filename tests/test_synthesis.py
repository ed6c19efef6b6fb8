import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baselines import mixup_generate
from conftest import small_config
from graph_reference import (
    GraphModel,
    Tensor,
    backward_input,
    compute_cam,
    masked_kl,
    softmax_cross_entropy,
    synthesis_loss,
)

from fedsynth.autodiff import Adam, Model, Tape
from fedsynth.config import config_from_dict, derive_seed
from fedsynth.data import make_blobs
from fedsynth.engine import ClientState, run_round
from fedsynth.errors import ConfigError
from fedsynth.metrics import psnr
from fedsynth.runner import build_state, run_experiment
from fedsynth.synthesis import (
    SynthesisConfig,
    SynthesisEvent,
    _input_grad,
    _masked_walk,
    _matching_targets,
    _row_losses,
    _softmax,
    _stratified_indices,
    dump_synthetic_dataset,
    hard_feature,
    model_fingerprint,
    run_event,
    synthesize,
    synthetic_rows,
    update_prototypes,
)


def make_model(arch, seed=0):
    return Model.initialize(arch, np.random.default_rng(seed))


def one_event(rows):
    """A synthesis event whose pool is `rows`, as `dump_synthetic_dataset` takes it."""
    return SynthesisEvent(1, "abc", 6, rows)


def kl_oracle(z_hat, z_target, cam, eps=1e-8):
    """Hand-rolled softmax-KL over ReLU-masked vectors."""
    mask = np.maximum(cam, 0.0)
    if not mask.any():
        return 0.0

    def sm(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    p = sm(z_target * mask)
    q = sm(z_hat * mask)
    return float(np.sum(p * (np.log(p + eps) - np.log(q + eps))))


class TestComputeCam:
    """The graph reference's CAM; `synthesis` reads it off the classifier weight."""

    def make_linear_head(self, weight):
        # feature width 3, two classes; classifier is the last dense layer
        model = make_model(["dense(2,3)", "dense(3,2)"])
        model.params["dense1.weight"][...] = np.asarray(weight, dtype=float)
        return GraphModel(model)

    def test_linear_classifier_gradient_is_weight_column(self):
        # classifier rows per class: [[1,-2,0],[0,3,1]] stored column-wise
        model = self.make_linear_head(np.array([[1.0, 0.0], [-2.0, 3.0], [0.0, 1.0]]))
        z = np.array([0.3, -0.4, 2.0])
        assert np.array_equal(compute_cam(model, z, 1), [0.0, 3.0, 1.0])

    def test_linear_classifier_class_zero_and_relu(self):
        model = self.make_linear_head(np.array([[1.0, 0.0], [-2.0, 3.0], [0.0, 1.0]]))
        g = compute_cam(model, np.array([1.0, 1.0, 1.0]), 0)
        assert np.array_equal(g, [1.0, -2.0, 0.0])
        assert np.array_equal(np.maximum(g, 0.0), [1.0, 0.0, 0.0])

    def test_matches_finite_differences(self):
        model = make_model(["dense(4,6)", "relu", "dense(6,3)"], seed=4)
        z = np.random.default_rng(5).standard_normal(6)
        g = compute_cam(GraphModel(model), z, 2)
        h = 1e-5
        for i in range(6):
            up, down = z.copy(), z.copy()
            up[i] += h
            down[i] -= h

            def logit(v):
                return float(model.classify(v.reshape(1, -1, 1))[0, 2, 0])

            fd = (logit(up) - logit(down)) / (2 * h)
            assert abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-6) < 1e-4

    def test_class_out_of_range_raises(self):
        model = make_model(["dense(2,3)", "dense(3,2)"])
        with pytest.raises(ValueError):
            compute_cam(GraphModel(model), np.zeros(3), 2)


class TestUpdatePrototypes:
    def test_halfway_blend(self):
        protos = update_prototypes(np.array([[2.0, 2.0]]), np.array([[0.0, 0.0]]), momentum=0.5)
        assert np.array_equal(protos, [[1.0, 1.0]])

    def test_momentum_one_keeps_previous(self):
        protos = update_prototypes(np.array([[10.0]]), np.array([[3.0]]), momentum=1.0)
        assert np.array_equal(protos, [[3.0]])

    def test_momentum_zero_takes_mean(self):
        protos = update_prototypes(np.array([[5.0]]), np.array([[3.0]]), momentum=0.0)
        assert np.array_equal(protos, [[5.0]])

    def test_first_observation_adopts_mean(self):
        means = np.array([[0.0, 0.0], [3.0, 1.0]])
        protos = update_prototypes(means, None, momentum=0.9)
        assert np.array_equal(protos, means)
        assert not np.shares_memory(protos, means)

    def test_momentum_out_of_range_raises(self):
        with pytest.raises(ConfigError, match="lambda"):
            config_from_dict({"lambda": 1.5})


class TestHardFeature:
    def test_direct_substitution(self):
        assert np.array_equal(hard_feature([1.0, 0.0], [0.0, 0.0], 0.5), [1.5, 0.0])

    def test_zero_scale_is_identity(self):
        z = np.random.default_rng(0).standard_normal(8)
        p = np.random.default_rng(1).standard_normal(8)
        assert np.array_equal(hard_feature(z, p, 0.0), z)

    def test_affine_distance_identity(self):
        z = np.array([2.0, 2.0])
        p = np.array([1.0, 1.0])
        out = hard_feature(z, p, 1.0)
        assert np.array_equal(out, [3.0, 3.0])
        assert abs(np.linalg.norm(out - p) - 2.0 * np.linalg.norm(z - p)) < 1e-12

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.floats(-1.0, 3.0))
    def test_affine_distance_identity_random(self, seed, scale):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(16)
        p = rng.standard_normal(16)
        lhs = np.linalg.norm(hard_feature(z, p, scale) - p)
        rhs = (1.0 + scale) * np.linalg.norm(z - p)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            hard_feature(np.zeros(3), np.zeros(4), 0.5)


class TestMaskedKl:
    def test_identical_vectors_give_zero(self):
        v = np.random.default_rng(0).standard_normal(6)
        g = np.random.default_rng(1).standard_normal(6)
        loss = masked_kl(Tensor(v, requires_grad=True), v, g)
        assert float(loss.data) == 0.0

    def test_hand_computed_value(self):
        # all-ones mask, z_hat=[0,0], target=[ln3,0]:
        # 0.75*ln(1.5) + 0.25*ln(0.5) = 0.13081203594113697
        loss = masked_kl(
            Tensor(np.zeros(2), requires_grad=True),
            np.array([math.log(3.0), 0.0]),
            np.ones(2),
        )
        assert abs(float(loss.data) - 0.13081203594113697) < 1e-6

    def test_matches_hand_rolled_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            z_hat = rng.standard_normal(9)
            z_t = rng.standard_normal(9)
            cam = rng.standard_normal(9)
            loss = masked_kl(Tensor(z_hat, requires_grad=True), z_t, cam)
            assert abs(float(loss.data) - kl_oracle(z_hat, z_t, cam)) < 1e-10

    @settings(deadline=None, max_examples=60, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        loss = masked_kl(
            Tensor(rng.standard_normal(5), requires_grad=True),
            rng.standard_normal(5),
            rng.standard_normal(5),
        )
        assert float(loss.data) >= -1e-12

    def test_all_zero_mask_returns_zero_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="graph_reference"):
            loss = masked_kl(
                Tensor(np.ones(3), requires_grad=True), np.zeros(3), -np.ones(3)
            )
        assert float(loss.data) == 0.0
        assert any("mask" in rec.message for rec in caplog.records)

    def test_gradient_flows_to_synthetic_side_only(self):
        z_hat = Tensor(np.random.default_rng(0).standard_normal(5), requires_grad=True)
        target = np.random.default_rng(1).standard_normal(5)
        cam = np.abs(np.random.default_rng(2).standard_normal(5))
        loss = masked_kl(z_hat, target, cam)
        grad = backward_input(loss, z_hat)
        assert grad.shape == (5,)
        assert np.any(grad != 0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            masked_kl(Tensor(np.zeros(3)), np.zeros(4), np.zeros(4))


class TestSynthesisLoss:
    def setup_method(self):
        self.model = GraphModel(make_model(["dense(5,8)", "relu", "dense(8,8)", "relu", "dense(8,3)"], seed=9))
        self.x = np.random.default_rng(10).random(5)
        self.proto = np.random.default_rng(11).standard_normal(8)

    def test_zero_scale_equals_prototype_free_path_bitwise(self):
        x_hat = Tensor(np.random.default_rng(12).standard_normal(5), requires_grad=True)
        with_proto = synthesis_loss(self.model, x_hat, self.x, 1, self.proto, 0.0)
        x_hat2 = Tensor(x_hat.data.copy(), requires_grad=True)
        without = synthesis_loss(self.model, x_hat2, self.x, 1, None, 0.0)
        assert float(with_proto.data) == float(without.data)

    def test_synthetic_equal_real_reduces_to_classification(self):
        x_hat = Tensor(self.x.copy(), requires_grad=True)
        total = synthesis_loss(self.model, x_hat, self.x, 2, self.proto, 0.0)
        _, logits = self.model.forward(self.x.reshape(1, -1))
        ce = softmax_cross_entropy(logits, [2])
        assert abs(float(total.data) - float(ce.data)) < 1e-15

    def test_input_gradient_matches_finite_differences(self):
        x0 = np.random.default_rng(13).standard_normal(5)
        x_hat = Tensor(x0.copy(), requires_grad=True)
        loss = synthesis_loss(self.model, x_hat, self.x, 0, self.proto, 0.5)
        grad = backward_input(loss, x_hat)
        h = 1e-5
        for i in range(5):
            up, down = x0.copy(), x0.copy()
            up[i] += h
            down[i] -= h

            def value(v):
                return float(synthesis_loss(self.model, Tensor(v), self.x, 0, self.proto, 0.5).data)

            fd = (value(up) - value(down)) / (2 * h)
            assert abs(fd - grad[i]) / max(abs(fd), abs(grad[i]), 1e-6) < 1e-4


class TestSoftmaxColumns:
    @pytest.mark.parametrize("samples", [1, 12, 100])
    @pytest.mark.parametrize("width", [6, 32])
    def test_columns_match_an_exactly_summed_oracle(self, samples, width):
        """Each feature-major column within 4 ulp of exp(v - max) / fsum(exp(v - max)) taken in Python."""
        v = 3.0 * np.random.default_rng(samples * width).standard_normal((1, width, samples))
        probs = _softmax(v)
        expected = np.empty_like(v)
        for i, column in enumerate(v[0].T.tolist()):
            top = max(column)
            e = [math.exp(a - top) for a in column]
            total = math.fsum(e)
            expected[0, :, i] = [a / total for a in e]
        assert np.all(np.abs(probs - expected) <= 4 * np.spacing(expected))
        out = np.empty_like(v)
        assert _softmax(v, out=out) is out and np.array_equal(out, probs)
        assert _softmax(v, out=v) is v and np.array_equal(v, probs)  # in place


class TestSynthesize:
    def make_shard(self):
        train, _ = make_blobs(3, 5, 20, 0.25, seed=20)
        return train

    def make_cfg(self, **kw):
        base = dict(count=9, steps=5, adam_lr=0.02, scale=0.5, kl_eps=1e-8)
        base.update(kw)
        return SynthesisConfig(**base)

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError, match="syn_steps must be at least 1, got 0"):
            config_from_dict({"syn_steps": 0})

    def test_single_step_runs(self):
        model = make_model(["dense(5,6)", "relu", "dense(6,3)"], seed=21)
        shard = self.make_shard()
        syn = synthesize(model, shard, None, self.make_cfg(steps=1), np.random.default_rng(0))
        assert len(syn.samples) == 9

    def test_labels_match_paired_reals_and_inputs_clamped(self):
        model = make_model(["dense(5,6)", "relu", "dense(6,3)"], seed=21)
        shard = self.make_shard()
        syn = synthesize(model, shard, None, self.make_cfg(), np.random.default_rng(1))
        for s in syn.samples:
            assert s.label == int(shard.labels[s.paired_index])
            assert np.all(s.x >= 0.0) and np.all(s.x <= 1.0)

    def test_stratified_to_class_histogram(self):
        model = make_model(["dense(5,6)", "relu", "dense(6,3)"], seed=21)
        shard = self.make_shard()  # 60 samples, 20 per class
        syn = synthesize(model, shard, None, self.make_cfg(count=9), np.random.default_rng(2))
        labels = np.bincount([s.label for s in syn.samples], minlength=3)
        assert np.array_equal(labels, [3, 3, 3])

    def test_count_capped_at_shard_size(self):
        model = make_model(["dense(5,6)", "relu", "dense(6,3)"], seed=21)
        shard = self.make_shard().subset(range(4))
        syn = synthesize(model, shard, None, self.make_cfg(count=100), np.random.default_rng(3))
        assert len(syn.samples) == 4

    def test_deterministic_given_seed(self):
        model = make_model(["dense(5,6)", "relu", "dense(6,3)"], seed=21)
        shard = self.make_shard()
        protos = np.array([np.zeros(6), np.ones(6), np.full(6, 0.5)])
        a = synthesize(model, shard, protos, self.make_cfg(), np.random.default_rng(9))
        b = synthesize(model, shard, protos, self.make_cfg(), np.random.default_rng(9))
        for x, y in zip(a.samples, b.samples):
            assert np.array_equal(x.x, y.x)
            assert x.initial_loss == y.initial_loss
            assert x.final_loss == y.final_loss

    def test_empty_shard_rejected(self):
        model = make_model(["dense(5,6)", "relu", "dense(6,3)"], seed=21)
        empty = self.make_shard().subset([])
        with pytest.raises(ValueError):
            synthesize(model, empty, None, self.make_cfg(), np.random.default_rng(0))


PRODUCTION_ARCHS = {
    "two_hidden": ["dense(5,8)", "relu", "dense(8,8)", "relu", "dense(8,3)"],
    "one_dense": ["dense(5,3)"],
}


@pytest.mark.parametrize("arch", list(PRODUCTION_ARCHS.values()), ids=list(PRODUCTION_ARCHS))
class TestProductionPath:
    """The batched closed form `synthesize` runs, against the per-sample
    `synthesis_loss` that criterion 1 gradient-checks."""

    def setup_cases(self, arch):
        """One model, shard and config, before a client has prototypes and with one for every class."""
        model = make_model(arch, seed=40)
        # class 0's classifier column is all negative: its rows get an all-zero CAM mask
        last = model.params[f"dense{len(model.params) // 2 - 1}.weight"]
        last[..., 0] = -np.abs(last[..., 0]) - 0.1
        shard, _ = make_blobs(3, 5, 20, 0.25, seed=41)
        protos = np.random.default_rng(42).standard_normal((model.class_count, model.feature_dim))
        cfg = SynthesisConfig(count=12, steps=3, scale=0.5)
        return [(model, shard, None, cfg), (model, shard, protos, cfg)]

    def per_row_loss(self, model, x_hat, real, label, protos, cfg):
        proto = None if protos is None else protos[label]
        return synthesis_loss(GraphModel(model), x_hat, real, label, proto, cfg.scale, cfg.kl_eps)

    def test_masks_equal_compute_cam_rows(self, arch):
        for model, shard, protos, cfg in self.setup_cases(arch):
            labels = shard.labels
            target_probs, masks = _matching_targets(model, shard.inputs.T[None], labels, protos, cfg.scale)
            features = model.extract(shard.inputs.T[None])[0].T
            assert masks.shape == target_probs.shape == (1,) + features.T.shape
            assert not masks[0][:, labels == 0].any()
            for i, y in enumerate(labels):
                target = features[i] if protos is None else hard_feature(features[i], protos[y], cfg.scale)
                mask = np.maximum(compute_cam(GraphModel(model), target, int(y)), 0.0)
                assert np.array_equal(masks[0, :, i], mask)
                e = np.exp(target * mask - (target * mask).max())
                assert np.max(np.abs(target_probs[0, :, i] - e / e.sum())) <= 1e-15

    def test_input_grad_equals_summed_per_row_graph(self, arch):
        for model, shard, protos, cfg in self.setup_cases(arch):
            reals, labels = shard.inputs, shard.labels
            target_probs, masks = _matching_targets(model, reals.T[None], labels, protos, cfg.scale)
            onehot = np.eye(model.class_count)[labels].T[None]
            x = np.random.default_rng(43).standard_normal(reals.shape)
            tape = Tape(model, len(x))
            walk = _masked_walk(model, x.T[None], masks, tape)
            grad = _input_grad(model, tape, *walk, target_probs, masks, onehot, cfg)[0].T

            expected = np.empty_like(x)
            for i in range(len(x)):
                leaf = Tensor(x[i], requires_grad=True)
                loss = self.per_row_loss(model, leaf, reals[i], int(labels[i]), protos, cfg)
                expected[i] = backward_input(loss, leaf)
            assert np.max(np.abs(grad - expected)) <= 1e-12 * np.max(np.abs(expected))
            assert np.any(grad[labels == 0] != 0)  # cross entropy still drives zero-mask rows

    def test_recorded_losses_equal_per_row_synthesis_loss(self, arch, caplog):
        cases = self.setup_cases(arch)
        # a job wider than 128 rows takes its losses from the same whole-batch taped walks
        wide, _ = make_blobs(3, 5, 50, 0.25, seed=41)
        cases.append((cases[0][0], wide, None, SynthesisConfig(count=130, steps=3, scale=0.5)))
        for model, shard, protos, cfg in cases:
            syn = synthesize(model, shard, protos, cfg, np.random.default_rng(44))

            # replay the generator: pair draw, then the Gaussian initial inputs
            replay = np.random.default_rng(44)
            pair_idx = _stratified_indices(shard, cfg.count, replay)
            x0 = replay.standard_normal((len(pair_idx), shard.inputs.shape[1]))
            assert [s.paired_index for s in syn.samples] == pair_idx.tolist()
            for s, x_init in zip(syn.samples, x0):
                real = shard.inputs[s.paired_index]
                initial = float(self.per_row_loss(model, Tensor(x_init), real, s.label, protos, cfg).data)
                final = float(self.per_row_loss(model, Tensor(s.x), real, s.label, protos, cfg).data)
                assert abs(s.initial_loss - initial) <= 1e-12 * abs(initial)
                assert abs(s.final_loss - final) <= 1e-12 * abs(final)

            # the event warns of the job's zero-CAM rows: the rows whose label's
            # classifier column has no positive entry. perfbench's ZeroCamCounter
            # parses the message and reads the row count from its first argument.
            clients = [ClientState(3, shard, np.random.default_rng(0), protos)]
            config = small_config(syn_per_client=cfg.count, syn_steps=cfg.steps, mu=cfg.scale)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="fedsynth.synthesis"):
                pool = run_event(model, clients, config, 2).pool
            dead = ~(model.params[f"dense{len(model.params) // 2 - 1}.weight"][0] > 0).any(axis=0)
            zero_rows = int(dead[pool["label"]].sum())
            assert zero_rows >= np.count_nonzero(pool["label"] == 0) > 0
            warnings = [(rec.msg, rec.args) for rec in caplog.records if rec.name == "fedsynth.synthesis"]
            assert warnings == [("synthesize: %d of %d samples have all-zero CAM masks", (zero_rows, len(pool)))]

    def test_one_adam_step_per_synthesis_step(self, arch, monkeypatch):
        calls = []
        original = Adam.step

        def counting(self, tensors, grads):
            calls.append(1)
            return original(self, tensors, grads)

        monkeypatch.setattr(Adam, "step", counting)
        for model, shard, protos, cfg in self.setup_cases(arch):
            calls.clear()
            synthesize(model, shard, protos, SynthesisConfig(count=6, steps=7), np.random.default_rng(45))
            assert len(calls) == 7

    def test_a_job_walks_once_before_its_steps_and_once_after_each_on_its_tape(self, arch, monkeypatch):
        tapes = []
        original = Model.forward

        def recording(self, batch, tape=None):
            tapes.append(tape)
            return original(self, batch, tape)

        monkeypatch.setattr(Model, "forward", recording)
        for model, shard, protos, cfg in self.setup_cases(arch):
            tapes.clear()
            synthesize(model, shard, protos, cfg, np.random.default_rng(45))
            assert len(tapes) == cfg.steps + 1
            assert tapes[0] is not None and all(tape is tapes[0] for tape in tapes)


@pytest.mark.parametrize("arch", [*PRODUCTION_ARCHS.values(), ["relu", "dense(5,8)", "relu", "dense(8,3)"]],
                         ids=[*PRODUCTION_ARCHS, "relu_first"])
def test_a_reused_tape_is_bitwise_fresh_buffers_on_every_step(arch):
    """500 steps of one job on its one tape against the same steps, each on a fresh tape with the inputs kept apart."""
    model = make_model(arch, seed=46)
    shard, _ = make_blobs(3, 5, 20, 0.25, seed=47)
    protos = np.random.default_rng(48).standard_normal((3, model.feature_dim))
    cfg = SynthesisConfig(count=12, steps=500)
    syn = synthesize(model, shard, protos, cfg, np.random.default_rng(49))

    replay = np.random.default_rng(49)
    pair_idx = _stratified_indices(shard, cfg.count, replay)
    labels = shard.labels[pair_idx]
    target_probs, masks = _matching_targets(model, shard.inputs[pair_idx].T[None], labels, protos, cfg.scale)
    onehot = np.eye(3)[labels].T[None]
    x = replay.standard_normal((len(pair_idx), 5)).T[None].copy()

    def walk():
        """One walk of x on a fresh tape: the tape and its (q, logits)."""
        fresh = Tape(model, len(pair_idx))
        return fresh, *_masked_walk(model, x, masks, fresh)

    fresh, q, logits = walk()
    initial = _row_losses(q, logits, target_probs, labels, cfg)
    optimizer = Adam(cfg.adam_lr)
    for _ in range(cfg.steps):
        optimizer.step(x, _input_grad(model, fresh, q, logits, target_probs, masks, onehot, cfg).copy())
        x.clip(0.0, 1.0, out=x)
        fresh, q, logits = walk()
    final = _row_losses(q, logits, target_probs, labels, cfg)
    assert np.array_equal(syn.samples["x"], x[0].T)
    assert syn.samples["initial_loss"].tolist() == initial[0].tolist()
    assert syn.samples["final_loss"].tolist() == final[0].tolist()


class TestMixup:
    def test_two_sample_average(self):
        from fedsynth.data import Dataset

        shard = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0, 1]), 2)
        syn = mixup_generate(shard, 1, np.random.default_rng(0))
        assert np.array_equal(syn.samples[0].x, [0.5, 0.5])
        assert syn.samples[0].label == shard.labels[syn.samples[0].paired_index]

    def test_same_class_parents_collapse_to_hard_label(self):
        from fedsynth.data import Dataset

        shard = Dataset(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1, 1]), 2)
        syn = mixup_generate(shard, 3, np.random.default_rng(0))
        for s in syn.samples:
            assert s.label == 1

    def test_output_count(self):
        shard, _ = make_blobs(3, 4, 10, 0.2, seed=0)
        syn = mixup_generate(shard, 17, np.random.default_rng(1))
        assert len(syn.samples) == 17

    def test_too_small_shard_rejected(self):
        from fedsynth.data import Dataset

        shard = Dataset(np.zeros((1, 2)), np.array([0]), 1)
        with pytest.raises(ValueError):
            mixup_generate(shard, 1, np.random.default_rng(0))


class TestDump:
    def test_an_event_carries_the_fingerprint_of_the_model_it_inverted(self, tmp_path, monkeypatch):
        import json

        import fedsynth.synthesis as synthesis

        cfg = small_config(rounds=4, syn_interval=2, out_dir=str(tmp_path))
        state, _ = build_state(cfg)
        inverted = {}  # the global model each round starts from, which its synthesis inverts
        for t in range(1, cfg.rounds + 1):
            inverted[t] = model_fingerprint(state.model)
            run_round(state, cfg)

        hashed = []
        monkeypatch.setattr(synthesis, "model_fingerprint", lambda model: hashed.append(1) or model_fingerprint(model))
        run_experiment(cfg)
        assert len(hashed) == 2  # once per event, not once per client
        for t in (2, 4):
            paths = sorted((tmp_path / f"synthesis_round_{t:04d}").glob("client_*.json"))
            fingerprints = [json.loads(p.read_text())["model_fingerprint"] for p in paths]
            assert fingerprints == [inverted[t]] * cfg.partition.clients
        assert inverted[2] != inverted[4]

    def test_pool_dump_splits_by_client_column(self, tmp_path):
        shard, _ = make_blobs(3, 5, 10, 0.25, seed=22)
        first = synthetic_rows(shard, range(4), 0.5 * shard.inputs[:4], 1.0, 0.5, client=0)
        second = synthetic_rows(shard, [7, 2, 9], 0.25 * shard.inputs[[7, 2, 9]], [2.0, 1.0, 3.0], 0.25, client=3)
        pooled = dump_synthetic_dataset(one_event(np.concatenate([first, second])), 0.5, 0.5, tmp_path / "pool")
        names = ["client_00.json", "client_00.csv", "client_03.json", "client_03.csv"]
        assert [p.name for p in pooled] == names
        alone = [
            *dump_synthetic_dataset(one_event(first), 0.5, 0.5, tmp_path / "first"),
            *dump_synthetic_dataset(one_event(second), 0.5, 0.5, tmp_path / "second"),
        ]
        assert [p.name for p in alone] == names
        for a, b in zip(pooled, alone):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_dump_writes_json_and_csv(self, tmp_path):
        model = make_model(["dense(5,6)", "relu", "dense(6,3)"], seed=21)
        shard, _ = make_blobs(3, 5, 10, 0.25, seed=22)
        syn = synthesize(model, shard, None, SynthesisConfig(count=6, steps=2), np.random.default_rng(4))
        paths = dump_synthetic_dataset(one_event(syn.samples), 0.5, 0.5, tmp_path)
        assert [p.name for p in paths] == ["client_00.json", "client_00.csv"]
        lines = paths[1].read_text().strip().split("\n")
        assert lines[0] == "x0,x1,x2,x3,x4,label,paired_index,initial_loss,final_loss"
        assert len(lines) == 7

    def test_identical_samples_report_capped_psnr(self, tmp_path):
        import json

        shard, _ = make_blobs(3, 5, 10, 0.25, seed=22)
        rows = synthetic_rows(shard, range(4), shard.inputs[:4])
        json_path, _ = dump_synthetic_dataset(one_event(rows), 0.5, 0.5, tmp_path)
        meta = json.loads(json_path.read_text())
        assert meta["psnr"] == [100.0, 100.0, 100.0, 100.0]

    @pytest.mark.parametrize("generator", ["synthesize", "mixup"])
    def test_psnr_list_is_per_row_psnr_against_paired_real(self, tmp_path, generator):
        import json

        shard, _ = make_blobs(3, 5, 10, 0.25, seed=22)
        if generator == "synthesize":
            model = make_model(["dense(5,6)", "relu", "dense(6,3)"], seed=21)
            syn = synthesize(model, shard, None, SynthesisConfig(count=6, steps=2), np.random.default_rng(4))
        else:
            syn = mixup_generate(shard, 7, np.random.default_rng(4))
        json_path, csv_path = dump_synthetic_dataset(one_event(syn.samples), 0.5, 0.5, tmp_path)
        meta = json.loads(json_path.read_text())
        rows = [line.split(",") for line in csv_path.read_text().strip().split("\n")[1:]]
        expected = [psnr([float(v) for v in row[:5]], shard.inputs[int(row[6])]) for row in rows]
        assert meta["psnr"] == expected
        assert meta["psnr"] == [psnr(s.x, shard.inputs[s.paired_index]) for s in syn.samples]


class TestRunEvent:
    def test_pool_is_each_clients_rows_in_client_order(self):
        cfg = small_config(syn_per_client=5, syn_steps=3)
        state, _ = build_state(cfg)
        run_round(state, cfg)  # round 1 trains, so the clients hold prototypes and synthesis hardens
        clients = [state.clients[k] for k in (0, 2, 3)]
        event = run_event(state.model, clients, cfg, 2)

        syn_cfg = SynthesisConfig(count=5, steps=3, adam_lr=cfg.adam_lr, scale=cfg.mu, kl_eps=cfg.kl_eps)
        alone = []
        for client in clients:
            assert client.prototypes is not None
            rng = np.random.default_rng(derive_seed(cfg.seed, f"synthesis/round=2/client={client.client_id}"))
            syn = synthesize(state.model, client.shard, client.prototypes, syn_cfg, rng, client.client_id)
            alone.append(syn.samples)
        assert event.pool.dtype == alone[0].dtype
        assert event.pool.tobytes() == np.concatenate(alone).tobytes()
        assert event.pool["client"].tolist() == [0] * 5 + [2] * 5 + [3] * 5
        assert (event.round_index, event.model_fingerprint) == (2, model_fingerprint(state.model))
        assert event.feature_dim == state.model.feature_dim


class TestSyntheticRows:
    def make(self, **kw):
        shard, _ = make_blobs(3, 4, 5, 0.2, seed=0)
        args = dict(paired_index=[0, 7], x=shard.inputs[[0, 7]])
        args.update(kw)
        return shard, synthetic_rows(shard, **args)

    def test_columns_and_rows(self):
        shard, rows = self.make(initial_loss=[2.0, 3.0], final_loss=1.0)
        assert rows.dtype.names == ("x", "label", "paired_index", "initial_loss", "final_loss", "psnr", "client")
        assert rows["x"].shape == (2, 4)
        assert rows["label"].tolist() == shard.labels[[0, 7]].tolist()
        assert rows["paired_index"].tolist() == [0, 7]
        assert rows["psnr"].tolist() == [100.0, 100.0]
        assert np.array_equal(rows[1].x, shard.inputs[7])

    def test_row_scalars_are_python_numbers(self):
        import json

        _, rows = self.make(initial_loss=[2.0, 3.0], final_loss=[1.0, 4.0])
        assert (rows[1].initial_loss, rows[1].final_loss, rows[1].paired_index) == (3.0, 4.0, 7)
        assert all(type(v) in (int, float) for v in (rows[0].label, rows[0].psnr, rows[0].final_loss))
        improved = sum(row.final_loss < row.initial_loss for row in rows)
        assert type(improved) is int and json.dumps(improved) == "1"

    def test_inputs_of_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="inputs must have shape"):
            self.make(x=np.zeros((2, 5)))
