import copy
import math

import numpy as np
import pytest

from baselines import mixup_generate
from conftest import divergence_probe, small_config

import graph_reference as gr
from graph_reference import GraphModel, add, mul, softmax_cross_entropy
from local_reference import local_update_one

from fedsynth.autodiff import Model, Sgd, Tape, backward_params, cross_entropy_grad
from fedsynth.config import config_from_dict
from fedsynth.data import make_blobs
from fedsynth.engine import ClientState, aggregate, local_update, run_round, sample_clients
from fedsynth.errors import ConfigError, DivergenceError
from fedsynth.metrics import alignment_score, class_feature_means
from fedsynth.runner import build_state, execute, run_experiment
from fedsynth.synthesis import synthetic_rows


def make_model(arch, seed=0):
    return Model.initialize(arch, np.random.default_rng(seed))


def hard_pool(train):
    """Four synthetic rows, fewer than a batch of 5: drawn with replacement."""
    x = np.random.default_rng(8).random((4, train.inputs.shape[1]))
    return synthetic_rows(train, [0, 5, 11, 19], x)


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
        partition = {"scheme": "label_skew", "clients": 5, "classes_per_client": 2}
        with pytest.raises(ConfigError, match=r"active_clients must lie in \[1, 5\], got 6"):
            config_from_dict({"partition": partition, "active_clients": 6})


class TestAggregate:
    def test_identical_models_unchanged_bitwise(self):
        model = make_model(["dense(3,4)", "relu", "dense(4,2)"], seed=1)
        out = aggregate(Model(model.architecture, np.concatenate([model.flat, model.flat])))
        for name in model.params:
            assert np.array_equal(out.params[name], model.params[name])

    def test_scalar_average(self):
        stack = Model(["dense(1,1)"], np.array([[2.0, 0.0], [4.0, 0.0]]))
        out = aggregate(stack)
        assert out.params["dense0.weight"][0, 0, 0] == 3.0

    def test_matches_plain_averaging_oracle(self):
        models = [make_model(["dense(4,6)", "relu", "dense(6,3)"], seed=s) for s in range(3)]
        out = aggregate(Model(models[0].architecture, np.concatenate([m.flat for m in models])))
        for name in models[0].params:
            expected = np.mean(np.stack([m.params[name] for m in models]), axis=0)
            assert np.max(np.abs(out.params[name] - expected)) < 1e-15

    def test_is_the_ascending_sum_divided_once_bitwise(self):
        models = [make_model(["dense(4,6)", "relu", "dense(6,3)"], seed=s) for s in range(7)]
        total = models[0].flat.copy()
        for m in models[1:]:
            total += m.flat
        out = aggregate(Model(models[0].architecture, np.concatenate([m.flat for m in models])))
        assert np.array_equal(out.flat, total / 7)
        assert out.flat.shape == total.shape == (1, 6 * 4 + 6 + 3 * 6 + 3)  # a stack of one

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate(Model(["dense(1,1)"], np.zeros((0, 2))))


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
        stack, _ = local_update(model, [client], syn, 0.4, 1, n, Sgd(0.1), proto_momentum=0.5)

        # oracle: replicate the rng draws, compute the blended gradient once
        rng = np.random.default_rng(99)
        perm = rng.permutation(n)
        syn_idx = rng.choice(len(syn), size=n, replace=len(syn) < n)
        base = GraphModel(model.copy())
        _, logits = base.forward(train.inputs[perm])
        real_loss = softmax_cross_entropy(logits, train.labels[perm])
        _, syn_logits = base.forward(np.stack([syn[int(j)].x for j in syn_idx]))
        labels = [syn[int(j)].label for j in syn_idx]
        loss = add(mul(real_loss, 0.4), mul(softmax_cross_entropy(syn_logits, labels), 0.6))
        grads = model.views(gr.backward_params(loss, base))
        for name in base.params:
            expected = model.params[name] - 0.1 * grads[name]
            assert np.max(np.abs(stack.params[name] - expected)) < 1e-10

    def test_alpha_one_ignores_synthetic_pool(self):
        train, model, syn, _ = self.setup()
        client_a = ClientState(0, train, np.random.default_rng(5))
        client_b = ClientState(0, train, np.random.default_rng(5))
        a, _ = local_update(model, [client_a], syn, 1.0, 1, 4, Sgd(0.05), 0.5)
        b, _ = local_update(model, [client_b], [], 1.0, 1, 4, Sgd(0.05), 0.5)
        assert np.array_equal(a.flat, b.flat)
        # identical rng consumption afterwards
        assert client_a.rng.integers(1 << 30) == client_b.rng.integers(1 << 30)

    def test_alpha_zero_still_accumulates_real_features(self):
        train, model, syn, client = self.setup()
        _, mean_loss = local_update(model, [client], syn, 0.0, 1, 4, Sgd(0.05), 0.5)
        assert client.prototypes.shape == (3, 6)
        assert np.all(np.any(client.prototypes[np.unique(train.labels)] != 0, axis=1))

    def test_alpha_below_one_requires_synthetic(self):
        train, model, _, client = self.setup()
        with pytest.raises(ValueError):
            local_update(model, [client], [], 0.5, 1, 4, Sgd(0.05), 0.5)

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
            _, _ = local_update(model, [client], syn, alpha, 2, 5, opt, 0.5)
            # 24 samples, batch 5 -> 5 steps per epoch, 2 epochs
            assert len(calls) == 2 * math.ceil(len(train) / 5) == 10

    @pytest.mark.parametrize("mixup", [False, True], ids=["hard", "mixup"])
    @pytest.mark.parametrize("alpha", [0.0, 0.4, 0.9])
    def test_blended_step_is_the_two_pass_sum(self, alpha, mixup, monkeypatch):
        """One weighted forward/backward per blended step against the two passes it replaced."""
        train, model, syn, client = self.setup(seed=17)
        if not mixup:
            syn = hard_pool(train)
        n, epochs, batch = len(train), 2, 5
        assert n % batch  # every epoch ends on a short real batch
        taken = []  # (parameters before the step, gradient) of every step
        original = Sgd.step

        def recording(self, m, grad):
            taken.append((m.flat.copy(), grad.copy()))  # a stack of this one client
            return original(self, m, grad)

        monkeypatch.setattr(Sgd, "step", recording)
        optimizer = Sgd(0.1, momentum=0.9, weight_decay=5e-4)
        _, (mean_loss,) = local_update(model, [client], syn, alpha, epochs, batch, optimizer, 0.5)

        # replay the draws and form each step's gradient as two passes, at the
        # parameters the step actually saw
        rng = np.random.default_rng(17)
        steps = iter(taken)
        losses, sums, counts = [], {}, {}
        for _ in range(epochs):
            order = rng.permutation(n)
            for s in range(math.ceil(n / batch)):
                idx = order[s * batch : (s + 1) * batch]
                syn_idx = rng.choice(len(syn), size=batch, replace=len(syn) < batch)
                flat, grad = next(steps)
                at = Model(model.architecture, flat)
                tape, syn_tape = Tape(at, len(idx)), Tape(at, batch)
                features, logits = at.forward(train.inputs[idx].T[None], tape)
                _, syn_logits = at.forward(syn["x"][syn_idx].T[None], syn_tape)
                (real_loss,), d_real = cross_entropy_grad(
                    logits, np.eye(3)[train.labels[idx]].T[None], np.full((1, len(idx)), alpha), [len(idx)]
                )
                (syn_loss,), d_syn = cross_entropy_grad(
                    syn_logits, np.eye(3)[syn["label"][syn_idx]].T[None], np.full((1, batch), 1.0 - alpha), [batch]
                )
                expected = backward_params(at, tape, d_real) + backward_params(at, syn_tape, d_syn)
                assert np.max(np.abs(grad - expected)) <= 1e-12 * np.max(np.abs(expected))
                losses.append(real_loss + syn_loss)
                for c in np.unique(train.labels[idx]).tolist():
                    rows = features[0].T[train.labels[idx] == c]
                    sums[c] = sums.get(c, 0.0) + rows.sum(axis=0)
                    counts[c] = counts.get(c, 0) + len(rows)
        assert next(steps, None) is None
        assert abs(mean_loss - np.mean(losses)) <= 1e-12 * abs(np.mean(losses))
        # with no prior prototypes they are the real rows' per-class means
        assert sum(counts.values()) == epochs * n and sorted(counts) == [0, 1, 2]
        for c in counts:
            mean = sums[c] / counts[c]
            assert np.max(np.abs(client.prototypes[c] - mean)) <= 1e-12 * np.max(np.abs(mean))
        # the same draws in the same order: identical rng consumption afterwards
        assert client.rng.bit_generator.state == rng.bit_generator.state

    def test_prototypes_update_with_momentum(self):
        train, model, _, client = self.setup()
        assert client.prototypes is None
        local_update(model, [client], [], 1.0, 1, 4, Sgd(0.05), 0.5)
        first = client.prototypes.copy()
        fresh = ClientState(0, train, copy.deepcopy(client.rng))  # the same draws, no prior prototypes
        local_update(model, [client], [], 1.0, 1, 4, Sgd(0.05), 0.5)
        local_update(model, [fresh], [], 1.0, 1, 4, Sgd(0.05), 0.5)
        assert np.array_equal(client.prototypes, 0.5 * fresh.prototypes + 0.5 * first)


class TestStackedMatchesPerClient:
    """`local_update` trains all clients as one stack; `local_update_one` trains one client at a time."""

    # at batch 5: equal shards fill every batch; ragged ones end epochs on 4-,
    # 2- and 3-row batches, and their clients finish after 10, 4, 6 and 8 steps
    SIZES = {"equal": [20, 20, 20], "ragged": [7, 24, 13, 20]}
    IDS = [4, 1, 7, 2]

    def make_clients(self, train, sizes, prior=False):
        order = np.random.default_rng(6).permutation(len(train))
        cuts = np.cumsum([0] + sizes)
        clients = []
        for i, cid in enumerate(self.IDS[: len(sizes)]):
            shard = train.subset(order[cuts[i] : cuts[i + 1]])
            client = ClientState(cid, shard, np.random.default_rng(100 + cid))
            if prior:  # exercises the prototype momentum
                client.prototypes = np.full((3, 6), 0.25 * i)
            clients.append(client)
        return clients

    @pytest.mark.parametrize("layout", ["equal", "ragged"])
    @pytest.mark.parametrize(
        "alpha, pool", [(1.0, None), (0.4, "hard"), (0.4, "mixup"), (0.0, "hard"), (0.0, "mixup")]
    )
    def test_stack_matches_one_client_at_a_time(self, layout, alpha, pool):
        train, _ = make_blobs(3, 5, 40, 0.25, seed=2)
        model = make_model(["dense(5,6)", "relu", "dense(6,3)"], seed=3)
        before = model.flat.copy()
        syn = {None: [], "hard": hard_pool(train), "mixup": mixup_generate(train, 30, np.random.default_rng(7)).samples}
        syn = syn[pool]
        # no prior prototypes pins the per-class means, prior ones pin the momentum blend
        for prior in (False, True):
            stacked = self.make_clients(train, self.SIZES[layout], prior)
            reference = self.make_clients(train, self.SIZES[layout], prior)
            stack, losses = local_update(model, stacked, syn, alpha, 2, 5, Sgd(0.1, 0.9, 5e-4), 0.5)
            assert np.array_equal(model.flat, before)  # the broadcast model is left alone
            assert stack.flat.shape == (len(stacked), before.shape[1])
            # row i is clients[i]; ragged shards train in another order than they are passed
            for flat, loss, client, ref in zip(stack.flat, losses, stacked, reference, strict=True):
                expected, expected_loss = local_update_one(
                    model.copy(), ref.shard, syn, alpha, 2, 5, Sgd(0.1, 0.9, 5e-4), ref, 0.5
                )
                # bit for bit, ragged shards too: the shrinking stack runs on its tape's
                # prefix, and a padding column adds exact zeros
                assert np.array_equal(flat, expected.flat[0])
                assert loss == expected_loss
                present = np.unique(ref.shard.labels)  # the rows synthesis can read
                assert np.array_equal(client.prototypes[present], ref.prototypes[present])
                assert client.rng.bit_generator.state == ref.rng.bit_generator.state


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
        assert state.events[-1].round_index == 4
        assert np.array_equal(state.syn_samples, state.events[-1].pool)
        # the concatenated pool still reads row by row
        assert [row.paired_index for row in state.syn_samples] == state.syn_samples["paired_index"].tolist()
        # each row's psnr and loss_drop are the means over the latest event's rows; None before the first
        assert [state.rows[0].psnr, state.rows[0].loss_drop] == [None, None]
        for row in state.rows[1:]:
            event = [e for e in state.events if e.round_index <= row.round_index][-1]
            pool = event.pool
            assert row.psnr == float(np.mean(pool["psnr"]))
            assert row.loss_drop == float(np.mean(pool["initial_loss"] - pool["final_loss"]))

    def test_shared_pool_is_the_last_events_pool_not_a_copy(self):
        state, _ = execute(small_config(rounds=2, syn_interval=2))
        assert len(state.events) == 1 and len(state.syn_samples) == 4 * 8
        assert state.syn_samples is state.events[-1].pool

    def test_features_csv_ends_with_the_pool_in_order(self, tmp_path):
        cfg = small_config(rounds=4, syn_interval=2, syn_per_client=5, out_dir=str(tmp_path))
        state, _ = execute(cfg)
        run_experiment(cfg)
        lines = (tmp_path / "features.csv").read_text().strip().split("\n")[1:]
        pool = state.syn_samples
        tail = [line.split(",") for line in lines[len(state.test_data):]]
        assert len(lines) == len(state.test_data) + len(pool) == len(state.test_data) + 20
        assert [row[-1] for row in tail] == ["synthetic"] * len(pool)
        assert [int(row[-2]) for row in tail] == pool["label"].tolist()
        features = state.model.extract(pool["x"].T[None])[0].T
        exported = np.array([[float(v) for v in row[:-2]] for row in tail])
        assert np.max(np.abs(exported - features)) <= 1e-12

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
        return alignment_score(class_feature_means(state.local_models, state.test_data))

    def test_alignment_column_scores_local_models_on_test_set(self):
        cfg = small_config(rounds=4, active_clients=3)
        state, _ = build_state(cfg)
        size = 8 * 32 + 32 + 32 * 32 + 32 + 32 * 4 + 4  # the default architecture's parameters
        assert state.model.flat.shape == (1, size)  # the global model is a stack of one
        for _ in range(cfg.rounds):
            run_round(state, cfg)
            assert state.model.flat.shape == (1, size)
            assert state.local_models.flat.shape == (3, size)
            assert state.rows[-1].alignment is not None
            assert state.rows[-1].alignment == self.local_alignment(state)

    def test_single_active_client_alignment_is_none(self):
        state, _ = execute(small_config(rounds=3, active_clients=1))
        assert len(state.local_models.flat) == 1
        assert all(row.alignment is None for row in state.rows)

    def test_fedavg_state_keeps_local_models(self):
        state, _ = execute(small_config(rounds=3, algorithm="fedavg"))
        assert len(state.local_models.flat) == 4
        merged = aggregate(state.local_models)
        assert all(np.array_equal(merged.params[k], state.model.params[k]) for k in merged.params)
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


class TestDivergence:
    """Every round runs under numpy's raising float flags; a diverging round stops the run naming it."""

    @pytest.mark.parametrize(
        "learning_rate, round_index",
        [(1e3, 4), (1e6, 2)],
        ids=["overflow-in-evaluation", "overflow-in-training"],
    )
    def test_diverging_round_is_named(self, learning_rate, round_index):
        before = np.geterr()
        with pytest.raises(DivergenceError, match=rf"^round {round_index}: \w+ encountered in ") as caught:
            execute(divergence_probe(learning_rate=learning_rate))
        assert isinstance(caught.value.__cause__, FloatingPointError)
        assert not isinstance(caught.value, ConfigError)
        assert np.geterr() == before  # the guard leaves no global state behind

    def test_clamped_synthesis_is_not_divergence(self):
        """A huge Adam step only saturates the [0, 1] clamp, so the run completes with finite metrics."""
        before = np.geterr()
        state, _ = execute(divergence_probe(adam_lr=1e9))
        assert np.geterr() == before
        assert len(state.rows) == 4 and len(state.events) == 2
        for row in state.rows:
            values = [row.accuracy, row.train_loss, row.alignment] + ([row.psnr, row.loss_drop] if row.syn_size else [])
            assert np.isfinite(values).all(), row



class TestFailedRun:
    """A run that raises before its round loop ends leaves no output directory behind."""

    @pytest.mark.parametrize(
        "make_config, error",
        [
            (lambda out: divergence_probe(learning_rate=1e6, out_dir=out), DivergenceError),
            (lambda out: config_from_dict({"dataset": {"spread": 1e308}, "out_dir": out}), ConfigError),
        ],
        ids=["diverging-round", "overflowing-spread-in-build-state"],
    )
    def test_writes_nothing(self, tmp_path, make_config, error):
        out = tmp_path / "out"
        with pytest.raises(error):
            run_experiment(make_config(str(out)))
        assert not out.exists()
