"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The desk benchmark shared by the comparative criteria: 6-class/16-dim blobs,
200 samples per class, 10 clients with 1 class each, 60 rounds, reference
hyperparameter defaults, seeds 1-3.
"""

import time

import numpy as np
import pytest

from baselines import mixup_generate
from graph_reference import (
    GraphModel,
    Tensor,
    backward,
    compute_cam,
    masked_kl,
    no_grad,
    reshape,
    softmax_cross_entropy,
    synthesis_loss,
)

from fedsynth.autodiff import Model, Sgd, backward_params, cross_entropy_grad
from fedsynth.config import config_from_dict, derive_seed
from fedsynth.data import make_blobs
from fedsynth.engine import aggregate
from fedsynth.metrics import accuracy, alignment_score, class_feature_means
from fedsynth.runner import execute, run_experiment
from fedsynth.synthesis import (
    SynthesisConfig,
    _input_grad,
    _matching_targets,
    _row_losses,
    hard_feature,
)

BENCH_SEEDS = (1, 2, 3)
BENCH_SPREAD = 0.25
RUNTIME_LIMIT_S = 300.0


def bench_config(algorithm, seed, **overrides):
    raw = {
        "algorithm": algorithm,
        "dataset": {"classes": 6, "dim": 16, "per_class": 200, "spread": BENCH_SPREAD},
        "partition": {"scheme": "label_skew", "clients": 10, "classes_per_client": 1},
        "rounds": 60,
        "seed": seed,
    }
    raw.update(overrides)
    return config_from_dict(raw)


def report(number, description, ok):
    print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def bench_runs():
    """One full run per (algorithm, seed); shared by criteria 2-6."""
    runs = {}
    for algorithm in ("fedavg", "fmds_fl", "hfmds_fl"):
        for seed in BENCH_SEEDS:
            start = time.perf_counter()
            state, _ = execute(bench_config(algorithm, seed))
            runs[(algorithm, seed)] = (state, time.perf_counter() - start)
    return runs


def final_alignment(state):
    """Alignment of the final round's local models, each over the test inputs."""
    return alignment_score(class_feature_means(state.local_models, state.test_data))


def test_criterion_1_gradient_integrity():
    rng = np.random.default_rng(4242)
    start = time.perf_counter()
    worst = 0.0
    worst_closed = 0.0
    h = 1e-5
    for trial in range(20):
        depth = int(rng.integers(2, 4))  # 2 or 3 dense layers
        in_dim = int(rng.integers(8, 17))
        classes = int(rng.integers(2, 7))
        widths = [int(rng.integers(4, 33)) for _ in range(depth - 1)]
        arch = []
        prev = in_dim
        for w in widths:
            arch += [f"dense({prev},{w})", "relu"]
            prev = w
        arch.append(f"dense({prev},{classes})")
        model = Model.initialize(arch, np.random.default_rng(int(rng.integers(1 << 31))))
        graph = GraphModel(model)

        x = rng.random(in_dim)
        y = int(rng.integers(classes))
        scale = (0.0, 0.5, 1.0)[trial % 3]
        prototype = rng.standard_normal(model.feature_dim) if trial % 2 == 0 else None
        x_hat = Tensor(rng.standard_normal(in_dim), requires_grad=True)

        loss = synthesis_loss(graph, x_hat, x, y, prototype, scale)
        backward(loss)
        input_grad = x_hat.grad.copy()
        param_grads = {name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                       for name, p in graph.params.items()}

        # the matching target and CAM are stop-gradient constants of the loss;
        # the finite-difference oracle must evaluate the same frozen-target
        # function whose derivative the graph computes
        with no_grad():
            z = graph.extract(x.reshape(1, -1)).data[0]
        target = hard_feature(z, prototype, scale) if prototype is not None else z
        cam = compute_cam(graph, target, y)

        def loss_value(m, x_hat_data):
            features = m.extract(x_hat_data.reshape(1, -1))
            kl = masked_kl(reshape(features, (m.feature_dim,)), target, cam)
            ce = softmax_cross_entropy(m.classify(features), [y])
            return float(kl.data) + float(ce.data)

        # the closed form synthesis runs: the per-row loss it records and the
        # input gradient its Adam steps follow, with the same frozen target
        cfg = SynthesisConfig(scale=scale)
        protos = None
        if prototype is not None:
            protos = np.zeros((classes, model.feature_dim))
            protos[y] = prototype
        labels = np.array([y])
        target_probs, masks = _matching_targets(model, x.reshape(1, -1), labels, protos, scale)
        onehot = np.eye(classes)[labels]
        closed_grad = _input_grad(model, x_hat.data.reshape(1, -1), target_probs, masks, onehot, cfg)[0]

        def closed_value(x_hat_data):
            return float(_row_losses(model, x_hat_data.reshape(1, -1), target_probs, masks, labels, cfg)[0])

        def central(step, plus, minus):
            return (plus(step) - minus(step)) / (2 * step)

        def smooth_fd(plus, minus):
            # central differences are not a valid oracle across a relu kink;
            # require agreement between two step sizes before trusting the value
            full = central(h, plus, minus)
            half = central(h / 2, plus, minus)
            if abs(full - half) > 1e-5 * max(1.0, abs(full)):
                return None
            return full

        def rel(fd, ad):
            return abs(fd - ad) / max(abs(fd), abs(ad), 1e-6)

        # 30 random input coordinates (with replacement; kink hits resampled)
        checked = 0
        while checked < 30:
            i = int(rng.integers(in_dim))

            def shifted(step, i=i):
                v = x_hat.data.copy()
                v[i] += step
                return v

            fd = smooth_fd(lambda step: loss_value(graph, shifted(step)), lambda step: loss_value(graph, shifted(-step)))
            if fd is None:
                continue
            worst = max(worst, rel(fd, input_grad[i]))
            # the closed form at the same coordinate: no draws of its own
            fd_closed = smooth_fd(lambda step: closed_value(shifted(step)), lambda step: closed_value(shifted(-step)))
            if fd_closed is not None:
                worst_closed = max(worst_closed, rel(fd_closed, closed_grad[i]))
            checked += 1

        # 30 random parameter coordinates
        names = list(model.params)
        checked = 0
        while checked < 30:
            name = names[int(rng.integers(len(names)))]
            flat = int(rng.integers(model.params[name].size))
            v = model.params[name].flat[flat]

            def plus(step, name=name, flat=flat, v=v):
                clone = model.copy()
                clone.params[name].flat[flat] = v + step
                return loss_value(GraphModel(clone), x_hat.data)

            def minus(step, name=name, flat=flat, v=v):
                clone = model.copy()
                clone.params[name].flat[flat] = v - step
                return loss_value(GraphModel(clone), x_hat.data)

            fd = smooth_fd(plus, minus)
            if fd is None:
                continue
            worst = max(worst, rel(fd, param_grads[name].flat[flat]))
            checked += 1

    elapsed = time.perf_counter() - start
    report(
        1,
        f"max relative gradient error {worst:.2e} (closed-form _input_grad {worst_closed:.2e}) < 1e-4 "
        f"over 20 models in {elapsed:.1f}s < 30s",
        worst < 1e-4 and worst_closed < 1e-4 and elapsed < 30.0,
    )


def test_criterion_2_non_iid_improvement(bench_runs):
    # benchmark clause: the spread admits >= 0.95 centralized accuracy
    cfg = bench_config("fedavg", 1)
    train, test = make_blobs(6, 16, 200, BENCH_SPREAD, derive_seed(1, "dataset"))
    model = Model.initialize(cfg.architecture, np.random.default_rng(derive_seed(1, "model-init")))
    optimizer = Sgd(cfg.learning_rate, cfg.momentum, cfg.weight_decay)
    rng = np.random.default_rng(0)
    onehot = np.eye(6)[train.labels]
    for _ in range(60):
        order = rng.permutation(len(train))
        for s in range(len(train) // cfg.batch_size):
            idx = order[s * cfg.batch_size : (s + 1) * cfg.batch_size]
            cache = []
            _, logits = model.forward(train.inputs[idx], cache)
            _, d_logits = cross_entropy_grad(logits, onehot[idx])
            optimizer.step(model, backward_params(model, cache, d_logits))
    central = accuracy(model, test)

    hfmds = np.mean([bench_runs[("hfmds_fl", s)][0].rows[-1].accuracy for s in BENCH_SEEDS])
    fedavg = np.mean([bench_runs[("fedavg", s)][0].rows[-1].accuracy for s in BENCH_SEEDS])
    slowest = max(bench_runs[(a, s)][1] for a in ("hfmds_fl", "fedavg") for s in BENCH_SEEDS)
    report(
        2,
        f"centralized {central:.3f} >= 0.95; mean final accuracy hfmds_fl {hfmds:.3f} >= "
        f"fedavg {fedavg:.3f} + 0.05; slowest seed {slowest:.0f}s < {RUNTIME_LIMIT_S:.0f}s",
        central >= 0.95 and hfmds >= fedavg + 0.05 and slowest < RUNTIME_LIMIT_S,
    )


def test_criterion_3_hard_augmentation_ordering(bench_runs):
    hfmds = np.mean([bench_runs[("hfmds_fl", s)][0].rows[-1].accuracy for s in BENCH_SEEDS])
    fmds = np.mean([bench_runs[("fmds_fl", s)][0].rows[-1].accuracy for s in BENCH_SEEDS])

    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        z = rng.standard_normal(32)
        proto = rng.standard_normal(32)
        mu = float(rng.uniform(-1.0, 2.0))
        lhs = np.linalg.norm(hard_feature(z, proto, mu) - proto)
        rhs = (1.0 + mu) * np.linalg.norm(z - proto)
        worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    report(
        3,
        f"mean accuracy hfmds_fl {hfmds:.3f} >= fmds_fl {fmds:.3f} - 0.01; "
        f"affine identity worst deviation {worst:.2e} <= 1e-12 over 1000 vectors",
        hfmds >= fmds - 0.01 and worst <= 1e-12,
    )


def test_criterion_4_privacy_ordering(bench_runs):
    ok = True
    details = []
    for seed in BENCH_SEEDS:
        state = bench_runs[("hfmds_fl", seed)][0]
        event = state.events[-1]
        syn_values, mix_values = [], []
        for ds, client in zip(event.datasets, state.clients):
            syn_values.append(float(np.mean(ds.samples["psnr"])))
            mix_rng = np.random.default_rng(derive_seed(seed, f"mixup/{client.client_id}"))
            mix = mixup_generate(client.shard, len(ds.samples), mix_rng)
            mix_values.append(float(np.mean(mix.samples["psnr"])))
        syn_mean, mix_mean = float(np.mean(syn_values)), float(np.mean(mix_values))
        details.append(f"seed {seed}: {syn_mean:.2f} vs {mix_mean:.2f} dB")
        ok = ok and syn_mean < mix_mean
    report(4, "synthetic PSNR < mixup PSNR at final event on every seed (" + "; ".join(details) + ")", ok)


def test_criterion_5_alignment_diagnostic(bench_runs):
    wins = 0
    details = []
    for seed in BENCH_SEEDS:
        hfmds = final_alignment(bench_runs[("hfmds_fl", seed)][0])
        fedavg = final_alignment(bench_runs[("fedavg", seed)][0])
        wins += hfmds < fedavg
        details.append(f"seed {seed}: {hfmds:.4f} vs {fedavg:.4f}")
    report(
        5,
        f"final local-model alignment hfmds_fl < fedavg on {wins}/3 seeds, need >= 2 (" + "; ".join(details) + ")",
        wins >= 2,
    )


def test_criterion_6_synthesis_effectiveness(bench_runs):
    worst = 1.0
    for seed in BENCH_SEEDS:
        state = bench_runs[("hfmds_fl", seed)][0]
        for event in state.events:
            worst = min(worst, event.improved_fraction)
    report(
        6,
        f"lowest per-event improved fraction {worst:.3f} >= 0.95 across all synthesis events",
        worst >= 0.95,
    )


def test_criterion_7_determinism(tmp_path):
    cfg = bench_config("hfmds_fl", 1, out_dir=str(tmp_path / "run"))
    run_experiment(cfg)
    out = tmp_path / "run"

    def strip_wall(text):
        return [",".join(line.split(",")[:-1]) for line in text.strip().split("\n")]

    metrics = strip_wall((out / "metrics.csv").read_text())
    manifest = (out / "manifest.json").read_bytes()
    dumps = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.glob("synthesis_round_*/*"))}
    assert dumps, "expected synthesis dumps"

    run_experiment(cfg)
    same_metrics = strip_wall((out / "metrics.csv").read_text()) == metrics
    same_manifest = (out / "manifest.json").read_bytes() == manifest
    same_dumps = all((out / rel).read_bytes() == blob for rel, blob in dumps.items())
    report(
        7,
        "repeat run byte-identical: metrics.csv (wall-clock column excluded) "
        f"{same_metrics}, manifest {same_manifest}, {len(dumps)} dump files {same_dumps}",
        same_metrics and same_manifest and same_dumps,
    )


def test_criterion_8_reduction_sanity():
    short = {"rounds": 12, "dataset": {"classes": 4, "dim": 8, "per_class": 50, "spread": BENCH_SPREAD},
             "partition": {"scheme": "label_skew", "clients": 4, "classes_per_client": 1},
             "syn_per_client": 10, "syn_steps": 30, "syn_interval": 5}

    # alpha=1 with the synthesis interval beyond the horizon reduces to FedAvg
    s_h, _ = execute(bench_config("hfmds_fl", 1, **{**short, "alpha": 1.0, "syn_interval": 99}))
    s_f, _ = execute(bench_config("fedavg", 1, **short))
    fedavg_bitwise = all(
        np.array_equal(s_h.model.params[k], s_f.model.params[k]) for k in s_h.model.params
    ) and [r.accuracy for r in s_h.rows] == [r.accuracy for r in s_f.rows]

    # aggregate of identical models is the identity (x + x then / 2 is exact)
    model = s_f.model
    agg = aggregate(Model(model.architecture, np.stack([model.flat, model.flat])))
    aggregate_identity = all(np.array_equal(agg.params[k], model.params[k]) for k in model.params)

    # the zero-scale path is bitwise identical to fmds_fl
    s_mu0, _ = execute(bench_config("hfmds_fl", 1, mu=0.0, **short))
    s_fm, _ = execute(bench_config("fmds_fl", 1, **short))
    mu0_bitwise = all(
        np.array_equal(s_mu0.model.params[k], s_fm.model.params[k]) for k in s_mu0.model.params
    ) and all(np.array_equal(a.x, b.x) for a, b in zip(s_mu0.syn_samples, s_fm.syn_samples))

    report(
        8,
        f"alpha=1 trajectory bitwise fedavg {fedavg_bitwise}; aggregate identity {aggregate_identity}; "
        f"mu=0 bitwise fmds {mu0_bitwise}",
        fedavg_bitwise and aggregate_identity and mu0_bitwise,
    )


def test_criterion_9_oracle_equivalence():
    rng = np.random.default_rng(909)

    # masked_kl against a hand-rolled softmax-KL oracle
    def kl_oracle(z_hat, z_target, cam, eps=1e-8):
        mask = np.maximum(cam, 0.0)
        if not mask.any():
            return 0.0

        def sm(v):
            e = np.exp(v - v.max())
            return e / e.sum()

        p = sm(z_target * mask)
        q = sm(z_hat * mask)
        return float(np.sum(p * (np.log(p + eps) - np.log(q + eps))))

    kl_worst = 0.0
    for _ in range(100):
        width = int(rng.integers(3, 24))
        z_hat = rng.standard_normal(width)
        z_target = rng.standard_normal(width)
        cam = rng.standard_normal(width)
        ours = float(masked_kl(Tensor(z_hat, requires_grad=True), z_target, cam).data)
        kl_worst = max(kl_worst, abs(ours - kl_oracle(z_hat, z_target, cam)))

    # CAM on a linear classifier equals the weight column of the class
    cam_exact = True
    for _ in range(20):
        feature_dim = int(rng.integers(2, 12))
        classes = int(rng.integers(2, 6))
        model = Model.initialize(
            [f"dense(2,{feature_dim})", f"dense({feature_dim},{classes})"],
            np.random.default_rng(int(rng.integers(1 << 31))),
        )
        z = rng.standard_normal(feature_dim)
        y = int(rng.integers(classes))
        expected = model.params["dense1.weight"][:, y]
        cam_exact = cam_exact and np.array_equal(compute_cam(GraphModel(model), z, y), expected)

    # aggregate against a plain stacked mean
    agg_worst = 0.0
    models = [Model.initialize(["dense(5,7)", "relu", "dense(7,4)"], np.random.default_rng(s)) for s in range(5)]
    merged = aggregate(Model(models[0].architecture, np.stack([m.flat for m in models])))
    for name in merged.params:
        expected = np.mean(np.stack([m.params[name] for m in models]), axis=0)
        agg_worst = max(agg_worst, float(np.max(np.abs(merged.params[name] - expected))))

    report(
        9,
        f"masked_kl vs oracle max |diff| {kl_worst:.2e} <= 1e-10 on 100 triples; "
        f"linear CAM exact {cam_exact}; aggregate vs mean max |diff| {agg_worst:.2e} <= 1e-15",
        kl_worst <= 1e-10 and cam_exact and agg_worst <= 1e-15,
    )
