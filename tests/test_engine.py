import math

import numpy as np
import pytest

from conftest import small_config

from fedsynth.autodiff import Model, Sgd, add, backward_params, mul, softmax_cross_entropy
from fedsynth.data import make_blobs
from fedsynth.engine import ClientState, aggregate, local_update, run_round, sample_clients
from fedsynth.errors import ConfigError
from fedsynth.metrics import alignment_score, class_feature_means
from fedsynth.runner import build_state, execute
from fedsynth.synthesis import mixup_generate


def make_model(arch, seed=0):
    return Model.initialize(arch, np.random.default_rng(seed))


class TestSampleClients:
    def test_full_participation_is_identity_set(self):
        rng = np.random.default_rng(0)
        assert sample_clients(7, 7, rng) == list(range(7))

    def test_single_pick_deterministic(self):
        a = sample_clients(20, 1, np.random.default_rng(5))
        b = sample_clients(20, 1, np.random.default_rng(5))
        assert a == b
        assert len(a) == 1

    def test_sorted_output(self):
        picked = sample_clients(30, 10, np.random.default_rng(3))
        assert picked == sorted(picked)
        assert len(set(picked)) == 10

    def test_selection_frequency_matches_binomial(self):
        rng = np.random.default_rng(42)
        counts = np.zeros(10, dtype=int)
        for _ in range(1000):
            for k in sample_clients(10, 5, rng):
                counts[k] += 1
        assert np.all(np.abs(counts - 500) <= 60)

    def test_active_above_total_rejected(self):
        with pytest.raises(ConfigError):
            sample_clients(5, 6, np.random.default_rng(0))


class TestAggregate:
    def test_identical_models_unchanged_bitwise(self):
        model = make_model(["dense(3,4)", "relu", "dense(4,2)"], seed=1)
        out = aggregate([model, model.copy()])
        for name in model.params:
            assert np.array_equal(out.params[name].data, model.params[name].data)

    def test_scalar_average(self):
        a = make_model(["dense(1,1)"])
        b = make_model(["dense(1,1)"])
        a.params["dense0.weight"].data = np.array([[2.0]])
        b.params["dense0.weight"].data = np.array([[4.0]])
        a.params["dense0.bias"].data = np.zeros(1)
        b.params["dense0.bias"].data = np.zeros(1)
        out = aggregate([a, b])
        assert out.params["dense0.weight"].data[0, 0] == 3.0

    def test_matches_plain_averaging_oracle(self):
        models = [make_model(["dense(4,6)", "relu", "dense(6,3)"], seed=s) for s in range(3)]
        out = aggregate(models)
        for name in models[0].params:
            expected = np.mean(np.stack([m.params[name].data for m in models]), axis=0)
            assert np.max(np.abs(out.params[name].data - expected)) < 1e-15

    def test_architecture_mismatch_rejected(self):
        a = make_model(["dense(3,4)", "dense(4,2)"])
        b = make_model(["dense(3,5)", "dense(5,2)"])
        with pytest.raises(ValueError):
            aggregate([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestLocalUpdate:
    def setup(self, seed=99):
        train, _ = make_blobs(3, 5, 8, 0.25, seed=2)
        model = make_model(["dense(5,6)", "relu", "dense(6,3)"], seed=3)
        syn = mixup_generate(train, 30, np.random.default_rng(7)).samples
        client = ClientState(0, train, np.random.default_rng(seed))
        return train, model, syn, client

    def test_single_step_matches_single_shot_oracle(self):
        train, model, syn, client = self.setup(seed=99)
        n = len(train)
        updated, _ = local_update(
            model.copy(), train, syn, 0.4, 1, n, Sgd(0.1), client, proto_momentum=0.5
        )

        # oracle: replicate the rng draws, compute the blended gradient once
        rng = np.random.default_rng(99)
        perm = rng.permutation(n)
        syn_idx = rng.choice(len(syn), size=n, replace=len(syn) < n)
        base = model.copy()
        _, logits = base.forward(train.inputs[perm])
        real_loss = softmax_cross_entropy(logits, train.labels[perm])
        syn_x = np.stack([syn[int(j)].x for j in syn_idx])
        targets = np.zeros((n, 3))
        for row, j in enumerate(syn_idx):
            s = syn[int(j)]
            if s.soft_label is not None:
                targets[row] = s.soft_label
            else:
                targets[row, s.label] = 1.0
        _, syn_logits = base.forward(syn_x)
        loss = add(mul(real_loss, 0.4), mul(softmax_cross_entropy(syn_logits, targets), 0.6))
        grads = backward_params(loss, base)
        for name in base.params:
            expected = model.params[name].data - 0.1 * grads[name]
            assert np.max(np.abs(updated.params[name].data - expected)) < 1e-10

    def test_alpha_one_ignores_synthetic_pool(self):
        train, model, syn, _ = self.setup()
        client_a = ClientState(0, train, np.random.default_rng(5))
        client_b = ClientState(0, train, np.random.default_rng(5))
        a, _ = local_update(model.copy(), train, syn, 1.0, 1, 4, Sgd(0.05), client_a, 0.5)
        b, _ = local_update(model.copy(), train, [], 1.0, 1, 4, Sgd(0.05), client_b, 0.5)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)
        # identical rng consumption afterwards
        assert client_a.rng.integers(1 << 30) == client_b.rng.integers(1 << 30)

    def test_alpha_zero_still_accumulates_real_features(self):
        train, model, syn, client = self.setup()
        _, mean_loss = local_update(model.copy(), train, syn, 0.0, 1, 4, Sgd(0.05), client, 0.5)
        assert sum(client.feature_counts.values()) == len(train)
        assert client.prototypes

    def test_alpha_below_one_requires_synthetic(self):
        train, model, _, client = self.setup()
        with pytest.raises(ValueError):
            local_update(model.copy(), train, [], 0.5, 1, 4, Sgd(0.05), client, 0.5)

    def test_step_count_is_epochs_times_ceil(self, monkeypatch):
        calls = []
        original = Sgd.step

        def counting(self, params, grads):
            calls.append(1)
            return original(self, params, grads)

        monkeypatch.setattr(Sgd, "step", counting)
        for alpha in (1.0, 0.4):  # real-only and blended steps
            train, model, syn, client = self.setup()
            calls.clear()
            opt = Sgd(0.0)  # zero lr; we only count steps
            _, _ = local_update(model.copy(), train, syn, alpha, 2, 5, opt, client, 0.5)
            # 24 samples, batch 5 -> 5 steps per epoch, 2 epochs
            assert len(calls) == 2 * math.ceil(len(train) / 5) == 10
            assert sum(client.feature_counts.values()) == 2 * len(train)

    def test_prototypes_update_with_momentum(self):
        train, model, _, client = self.setup()
        local_update(model.copy(), train, [], 1.0, 1, 4, Sgd(0.05), client, 0.5)
        first = {c: p.copy() for c, p in client.prototypes.items()}
        local_update(model.copy(), train, [], 1.0, 1, 4, Sgd(0.05), client, 0.5)
        for c in first:
            mean = client.feature_sums[c] / client.feature_counts[c]
            expected = 0.5 * mean + 0.5 * first[c]
            assert np.max(np.abs(client.prototypes[c] - expected)) < 1e-12


class TestRunRound:
    def test_synthesis_trigger_arithmetic(self):
        cfg = small_config(rounds=7, syn_interval=3)
        state, _ = execute(cfg)
        assert [e.round_index for e in state.events] == [3, 6]

    def test_no_synthesis_before_interval_matches_fedavg(self):
        cfg_h = small_config(rounds=2, syn_interval=3)
        cfg_f = small_config(rounds=2, syn_interval=3, algorithm="fedavg")
        s_h, _ = execute(cfg_h)
        s_f, _ = execute(cfg_f)
        for a, b in zip(s_h.rows, s_f.rows):
            assert a.accuracy == b.accuracy
            assert a.train_loss == b.train_loss

    def test_pool_size_is_clients_times_per_client(self):
        cfg = small_config(rounds=2, syn_interval=2, syn_per_client=5)
        state, _ = execute(cfg)
        assert state.rows[-1].syn_size == 4 * 5

    def test_pool_replaced_not_accumulated(self):
        cfg = small_config(rounds=4, syn_interval=2, syn_per_client=5)
        state, _ = execute(cfg)
        assert len(state.syn_samples) == 20
        assert all(s.round_index == 4 for s in state.syn_samples)

    def test_shards_never_mutated(self):
        cfg = small_config(rounds=3, syn_interval=2)
        state, _ = build_state(cfg)
        snapshots = [(c.shard.inputs.copy(), c.shard.labels.copy()) for c in state.clients]
        for _ in range(cfg.rounds):
            run_round(state, cfg)
        for client, (inputs, labels) in zip(state.clients, snapshots):
            assert np.array_equal(client.shard.inputs, inputs)
            assert np.array_equal(client.shard.labels, labels)

    def test_fedavg_rows_leave_synthetic_fields_empty(self):
        cfg = small_config(rounds=3, algorithm="fedavg")
        state, _ = execute(cfg)
        for row in state.rows:
            assert row.psnr is None
            assert row.loss_drop is None
            assert row.alignment is None
            assert row.syn_size == 0

    @staticmethod
    def local_alignment(state):
        means = {k: class_feature_means(m, state.test_data) for k, m in state.local_models.items()}
        return alignment_score(means)

    def test_alignment_column_scores_local_models_on_test_set(self):
        cfg = small_config(rounds=4, active_clients=3)
        state, _ = build_state(cfg)
        for _ in range(cfg.rounds):
            run_round(state, cfg)
            assert len(state.local_models) == 3
            assert state.rows[-1].alignment is not None
            assert state.rows[-1].alignment == self.local_alignment(state)

    def test_single_active_client_alignment_is_none(self):
        state, _ = execute(small_config(rounds=3, active_clients=1))
        assert len(state.local_models) == 1
        assert all(row.alignment is None for row in state.rows)

    def test_fedavg_state_keeps_local_models(self):
        state, _ = execute(small_config(rounds=3, algorithm="fedavg"))
        assert sorted(state.local_models) == [0, 1, 2, 3]
        merged = aggregate(state.local_models.values())
        assert all(np.array_equal(merged.params[k].data, state.model.params[k].data) for k in merged.params)
        assert self.local_alignment(state) is not None

    def test_rows_deterministic_across_runs(self):
        cfg = small_config(rounds=4)
        a, _ = execute(cfg)
        b, _ = execute(small_config(rounds=4))
        for x, y in zip(a.rows, b.rows):
            assert (x.accuracy, x.train_loss, x.syn_size, x.psnr, x.loss_drop, x.alignment) == (
                y.accuracy,
                y.train_loss,
                y.syn_size,
                y.psnr,
                y.loss_drop,
                y.alignment,
            )
