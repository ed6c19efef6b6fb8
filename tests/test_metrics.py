import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsynth.autodiff import Model
from fedsynth.data import Dataset, make_blobs
from fedsynth.metrics import (
    MetricsRow,
    accuracy,
    alignment_score,
    class_feature_means,
    export_features,
    psnr,
    write_csv,
    write_metrics_csv,
)


def identity_model(width):
    model = Model.initialize([f"dense({width},{width})", f"dense({width},{width})"], np.random.default_rng(0))
    for name in model.params:
        if name.endswith("weight"):
            model.params[name][...] = np.eye(width)
        else:
            model.params[name][...] = np.zeros(width)
    return model


def loop_alignment(means):
    """Reference for `alignment_score`: the per-class, per-pair distance loop."""
    if len(means) < 2:
        return None
    per_class = []
    for centroids in np.swapaxes(means, 0, 1):
        dists = [
            float(np.linalg.norm(centroids[i] - centroids[j]))
            for i in range(len(centroids))
            for j in range(i + 1, len(centroids))
        ]
        per_class.append(float(np.mean(dists)))
    return float(np.mean(per_class))


def row_psnr(candidate, reference):
    """Reference for `psnr`: one pair of vectors at a time."""
    mse = float(np.mean((np.asarray(candidate) - np.asarray(reference)) ** 2))
    return 100.0 if mse < 1e-10 else 10.0 * math.log10(1.0 / mse)


class TestAccuracy:
    def test_perfect_model(self):
        labels = np.array([0, 1, 2, 1])
        data = Dataset(np.eye(3)[labels], labels, 3)
        assert accuracy(identity_model(3), data) == 1.0

    def test_constant_logits_tie_break_to_class_zero(self):
        model = identity_model(4)
        for name in model.params:
            model.params[name][...] = 0.0
        labels = np.repeat(np.arange(4), 5)
        data = Dataset(np.random.default_rng(0).random((20, 4)), labels, 4)
        assert accuracy(model, data) == 0.25

    def test_matches_hand_counted_predictions(self):
        model = Model.initialize(["dense(4,6)", "relu", "dense(6,3)"], np.random.default_rng(4))
        inputs = np.random.default_rng(5).random((10, 4))
        labels = np.random.default_rng(6).integers(0, 3, size=10)
        data = Dataset(inputs, labels, 3)
        # an independent forward: relu(x W0 + b0) W1 + b1
        p = model.params
        logits = np.maximum(inputs @ p["dense0.weight"] + p["dense0.bias"], 0.0) @ p["dense1.weight"] + p["dense1.bias"]
        expected = float(np.mean(np.argmax(logits, axis=1) == labels))
        assert accuracy(model, data) == expected

    def test_empty_dataset_rejected(self):
        data = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(ValueError):
            accuracy(identity_model(2), data)


class TestPsnr:
    def test_mse_hundredth_is_twenty_db(self):
        a = np.zeros(4)
        b = np.full(4, 0.1)
        assert abs(psnr(a, b) - 20.0) < 1e-12

    def test_identical_inputs_capped(self):
        v = np.random.default_rng(0).random(8)
        assert psnr(v, v) == 100.0

    def test_unit_mse_is_zero_db(self):
        assert abs(psnr(np.zeros(3), np.ones(3))) < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            psnr(np.zeros(3), np.zeros(4))

    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(st.floats(1e-9, 0.4), st.floats(0.01, 0.5))
    def test_strictly_decreasing_in_mse(self, mse, gap):
        smaller = psnr(np.zeros(1), np.array([np.sqrt(mse)]))
        larger = psnr(np.zeros(1), np.array([np.sqrt(mse + gap)]))
        assert smaller > larger

    def test_rows_match_the_per_row_reference_bitwise(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n, dim = rng.integers(1, 60), rng.integers(1, 40)
            a, b = rng.random((n, dim)), rng.random((n, dim))
            a[::7] = b[::7]  # some rows at the cap
            values = psnr(a, b)
            assert values.shape == (n,)
            assert values.tolist() == [row_psnr(x, y) for x, y in zip(a, b)]
            assert type(psnr(a[0], b[0])) is float and psnr(a[0], b[0]) == row_psnr(a[0], b[0])


class TestAlignment:
    def test_identical_centroids_score_zero(self):
        means = np.array([[[1.0, 2.0]], [[1.0, 2.0]]])
        assert alignment_score(means) == 0.0

    def test_euclidean_three_four_five(self):
        means = np.array([[[0.0, 0.0]], [[3.0, 4.0]]])
        assert alignment_score(means) == 5.0

    def test_one_model_is_undefined(self):
        assert alignment_score(np.zeros((1, 3, 2))) is None

    def test_symmetric_under_client_relabeling(self):
        means = np.random.default_rng(3).standard_normal((4, 3, 4))
        assert alignment_score(means) == pytest.approx(alignment_score(means[::-1]), abs=1e-12)

    def test_matches_the_pair_loop_bitwise(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            shape = (rng.integers(1, 13), rng.integers(1, 11), rng.integers(1, 40))
            means = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3])
            assert alignment_score(means) == loop_alignment(means)

    def test_class_feature_means_widths(self):
        model = Model.initialize(["dense(4,6)", "relu", "dense(6,3)"], np.random.default_rng(1))
        data, _ = make_blobs(3, 4, 10, 0.2, seed=2)
        means = class_feature_means(model, data)
        assert means.shape == (3, 6)
        features = model.extract(data.inputs)
        assert np.array_equal(means[1], features[data.labels == 1].mean(axis=0))

    def test_a_stack_gives_each_model_its_own_means_bitwise(self):
        # width 1 too: numpy sums a lone width-1 column pairwise, unlike the rows of a stack
        data, _ = make_blobs(3, 4, 60, 0.2, seed=2)
        for width in (6, 1):
            arch = [f"dense(4,{width})", "relu", f"dense({width},3)"]
            models = [Model.initialize(arch, np.random.default_rng(s)) for s in range(3)]
            stacked = class_feature_means(Model(arch, np.stack([m.flat for m in models])), data)
            assert stacked.shape == (3, 3, width)
            for row, m in zip(stacked, models):
                assert np.array_equal(row, class_feature_means(m, data))


class TestExportFeatures:
    def test_row_count_and_width(self, tmp_path):
        model = Model.initialize(["dense(4,6)", "relu", "dense(6,3)"], np.random.default_rng(1))
        data, _ = make_blobs(3, 4, 5, 0.2, seed=2)
        path = export_features(model, data.inputs, data.labels, ["real"] * len(data), tmp_path / "f.csv")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "f0,f1,f2,f3,f4,f5,label,origin"
        assert len(lines) == len(data) + 1

    def test_reexport_byte_identical(self, tmp_path):
        model = Model.initialize(["dense(4,6)", "relu", "dense(6,3)"], np.random.default_rng(1))
        data, _ = make_blobs(3, 4, 5, 0.2, seed=2)
        a = export_features(model, data.inputs, data.labels, ["real"] * len(data), tmp_path / "a.csv")
        b = export_features(model, data.inputs, data.labels, ["real"] * len(data), tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()


class TestMetricsCsv:
    def test_header_and_empty_optionals(self, tmp_path):
        rows = [
            MetricsRow(1, 0.5, 1.2, 0, None, None, None, 12.5),
            MetricsRow(2, 0.75, 0.9, 40, 8.25, 1.5, 0.125, 13.0),
        ]
        path = write_metrics_csv(rows, tmp_path / "metrics.csv")
        lines = path.read_text().split("\n")
        assert lines[0] == "round,accuracy,train_loss,syn_size,psnr,loss_drop,alignment,ms"
        assert lines[1] == "1,0.5,1.2,0,,,,12.5"
        assert lines[2] == "2,0.75,0.9,40,8.25,1.5,0.125,13.0"
        assert path.read_text().endswith("\n")


class TestWriteCsv:
    def test_none_is_an_empty_cell(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b", "c"], [[None, 1.5, None]])
        assert path.read_bytes() == b"a,b,c\n,1.5,\n"

    def test_ints_and_strings_are_written_with_str(self, tmp_path):
        rows = [[3, np.int64(-7), "real", "two words"]]
        path = write_csv(tmp_path / "t.csv", ["i", "j", "s", "t"], rows)
        assert path.read_bytes() == b"i,j,s,t\n3,-7,real,two words\n"

    def test_numpy_floats_write_like_python_floats(self, tmp_path):
        plain = MetricsRow(2, 0.5, 1.0 / 3.0, 40, 1e-300, None, 12.0, 0.25)
        numpy = MetricsRow(*[np.float64(v) if isinstance(v, float) else v for v in astuple(plain)])
        a = write_metrics_csv([plain], tmp_path / "a.csv").read_bytes()
        b = write_metrics_csv([numpy], tmp_path / "b.csv").read_bytes()
        assert a == b
        assert a.split(b"\n")[1] == b"2,0.5,0.3333333333333333,40,1e-300,,12.0,0.25"
