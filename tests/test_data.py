import hashlib

import numpy as np
import pytest

from fedsynth.config import config_from_dict
from fedsynth.data import (
    Dataset,
    _class_means,
    _sample_blobs,
    largest_remainder,
    make_blobs,
    partition_dirichlet,
    partition_label_skew,
)
from fedsynth.errors import ConfigError


def assert_partition_law(dataset, shards):
    """Union of shards is the dataset; shards are pairwise disjoint."""
    assert sum(len(s) for s in shards) == len(dataset)
    seen = []
    for shard in shards:
        for row, label in zip(shard.inputs, shard.labels):
            seen.append((row.tobytes(), int(label)))
    pool = [(row.tobytes(), int(label)) for row, label in zip(dataset.inputs, dataset.labels)]
    assert sorted(seen) == sorted(pool)


class TestMakeBlobs:
    def test_counts_exact_and_balanced(self):
        train, test = make_blobs(3, 4, 100, 0.2, seed=0)
        assert len(train) == 300
        assert np.array_equal(train.class_histogram(), [100, 100, 100])
        assert len(test) == 60

    def test_zero_spread_collapses_to_means(self):
        train, _ = make_blobs(3, 4, 10, 0.0, seed=1)
        for c in range(3):
            rows = train.inputs[train.labels == c]
            assert np.all(rows == rows[0])

    def test_deterministic(self):
        a_train, a_test = make_blobs(4, 6, 25, 0.3, seed=42)
        b_train, b_test = make_blobs(4, 6, 25, 0.3, seed=42)
        assert np.array_equal(a_train.inputs, b_train.inputs)
        assert np.array_equal(a_test.inputs, b_test.inputs)

    def test_one_draw_is_the_per_class_draws(self):
        means = _class_means(3, 4)
        x, y = _sample_blobs(means, 7, 0.3, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        reference = np.concatenate([means[c] + 0.3 * rng.standard_normal((7, 4)) for c in range(3)])
        assert np.array_equal(x, reference)
        assert np.array_equal(y, np.repeat(np.arange(3), 7))

    def test_normalized_to_unit_interval(self):
        train, test = make_blobs(5, 8, 30, 0.5, seed=2)
        for ds in (train, test):
            assert ds.inputs.min() >= 0.0
            assert ds.inputs.max() <= 1.0

    def test_more_classes_than_dims_uses_grid(self):
        train, _ = make_blobs(7, 2, 10, 0.05, seed=3)
        assert train.class_count == 7
        centroids = np.stack([train.inputs[train.labels == c].mean(axis=0) for c in range(7)])
        # all class centers distinct
        for i in range(7):
            for j in range(i + 1, 7):
                assert np.linalg.norm(centroids[i] - centroids[j]) > 0.01

    def test_per_class_below_two_rejected(self):
        with pytest.raises(ConfigError, match="dataset.per_class must be at least 2, got 1"):
            config_from_dict({"dataset": {"classes": 3, "dim": 4, "per_class": 1, "spread": 0.2}})

    def test_bad_class_count_rejected(self):
        with pytest.raises(ConfigError, match="dataset.classes must be at least 2, got 1"):
            config_from_dict({"dataset": {"classes": 1, "dim": 4, "per_class": 10, "spread": 0.2}})


class TestLargestRemainder:
    def test_exact_total(self):
        counts = largest_remainder(np.array([3.4, 3.4, 3.2]), 10)
        assert counts.sum() == 10
        assert np.array_equal(counts, [4, 3, 3])

    def test_ties_break_to_lowest_index(self):
        counts = largest_remainder(np.array([1.5, 1.5, 1.0]), 4)
        assert np.array_equal(counts, [2, 1, 1])

    def test_floors_above_total_rejected(self):
        with pytest.raises(ValueError, match="floor sum 6 exceeds total 5"):
            largest_remainder(np.array([3.0, 3.0]), 5)


class TestDirichletPartition:
    def test_partition_law_multiple_seeds(self):
        train, _ = make_blobs(4, 6, 30, 0.3, seed=5)
        for seed in range(5):
            shards = partition_dirichlet(train, 3, 0.5, seed=seed)
            assert_partition_law(train, shards)
            assert all(len(s) > 0 for s in shards)

    def test_huge_concentration_is_nearly_uniform(self):
        train, _ = make_blobs(4, 6, 100, 0.3, seed=6)
        for seed in range(10):
            shards = partition_dirichlet(train, 5, 1e6, seed=seed)
            for shard in shards:
                hist = shard.class_histogram()
                assert np.all(np.abs(hist - 20) <= 2)

    def test_tiny_concentration_is_severely_skewed(self):
        train, _ = make_blobs(6, 8, 200, 0.3, seed=7)
        for seed in range(10):
            shards = partition_dirichlet(train, 10, 0.01, seed=seed)
            dominant = [shard.class_histogram().max() / len(shard) for shard in shards if len(shard)]
            assert max(dominant) >= 0.9

    def test_dataset_smaller_than_clients_rejected(self):
        dataset = {"classes": 2, "dim": 3, "per_class": 2, "spread": 0.2}
        partition = {"scheme": "dirichlet", "clients": 5, "concentration": 1.0}
        with pytest.raises(ConfigError, match="partition.clients must not exceed the 4 training samples"):
            config_from_dict({"dataset": dataset, "partition": partition})
        # what validation keeps out cannot be dealt either
        tiny = Dataset(np.zeros((2, 3)), np.array([0, 1]), 2)
        with pytest.raises(ConfigError, match="cannot repair empty shards"):
            partition_dirichlet(tiny, 3, 1.0, seed=0)

    def test_nonpositive_concentration_rejected(self):
        partition = {"scheme": "dirichlet", "clients": 3, "concentration": 0.0}
        with pytest.raises(ConfigError, match="partition.concentration must be positive, got 0.0"):
            config_from_dict({"partition": partition})

    def test_determinism(self):
        train, _ = make_blobs(4, 6, 30, 0.3, seed=5)
        a = partition_dirichlet(train, 4, 0.1, seed=9)
        b = partition_dirichlet(train, 4, 0.1, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.inputs, y.inputs)
            assert np.array_equal(x.labels, y.labels)


class TestLabelSkewPartition:
    def test_each_client_holds_exact_class_count(self):
        train, _ = make_blobs(10, 12, 20, 0.2, seed=8)
        shards = partition_label_skew(train, 20, 2, seed=0)
        for shard in shards:
            assert len(np.unique(shard.labels)) == 2

    def test_full_classes_is_iid_by_class(self):
        train, _ = make_blobs(4, 6, 20, 0.2, seed=9)
        shards = partition_label_skew(train, 4, 4, seed=1)
        for shard in shards:
            assert len(np.unique(shard.labels)) == 4

    def test_partition_law_all_seeds(self):
        train, _ = make_blobs(5, 6, 24, 0.2, seed=10)
        for seed in range(6):
            shards = partition_label_skew(train, 5, 2, seed=seed)
            assert_partition_law(train, shards)
            assert all(len(s) > 0 for s in shards)

    def test_classes_per_client_above_class_count_rejected(self):
        dataset = {"classes": 3, "dim": 4, "per_class": 10, "spread": 0.2}
        partition = {"scheme": "label_skew", "clients": 4, "classes_per_client": 4}
        with pytest.raises(ConfigError, match=r"partition.classes_per_client must lie in \[1, 3\], got 4"):
            config_from_dict({"dataset": dataset, "partition": partition})

    def test_uncovered_classes_rejected(self):
        dataset = {"classes": 6, "dim": 8, "per_class": 10, "spread": 0.2}
        partition = {"scheme": "label_skew", "clients": 3, "classes_per_client": 1}
        with pytest.raises(ConfigError, match="partition.clients \\* classes_per_client must cover every class"):
            config_from_dict({"dataset": dataset, "partition": partition})


class TestPinnedShards:
    """Every shard's row indices, pinned for six partitions.

    The dataset's one input column is the row index, so a shard's inputs
    name the rows it was dealt. The (1000, 0.01) Dirichlet case repairs
    hundreds of empty shards, and the first case has a class with no rows
    between classes with rows.
    """

    CASES = [
        ("dirichlet", 11, 600, 10, 0.5, 0, "0a455f11925c7e9b"),
        ("dirichlet", 10, 2000, 100, 0.1, 1, "bde1a6434691f715"),
        ("dirichlet", 10, 3000, 1000, 0.01, 2, "3e29e585100b0450"),
        ("label_skew", 6, 600, 10, 1, 3, "b46edbbe0c7ebfb5"),
        ("label_skew", 8, 600, 7, 2, 4, "ce51d7de4e70e31f"),
        ("label_skew", 10, 3000, 1200, 1, 5, "15788a040f24429f"),
    ]

    @pytest.mark.parametrize(
        "scheme, classes, rows, clients, arg, seed, digest", CASES, ids=[f"{c[0]}-{c[3]}-{c[4]}" for c in CASES]
    )
    def test_shard_indices_are_pinned(self, scheme, classes, rows, clients, arg, seed, digest):
        labels = np.random.default_rng(seed).integers(0, min(classes, 10), rows)
        if classes == 11:
            labels[labels >= 5] += 1  # class 5 has no rows and draws nothing
        dataset = Dataset(np.arange(rows, dtype=np.float64)[:, None], labels, classes)
        partition = partition_dirichlet if scheme == "dirichlet" else partition_label_skew
        shards = partition(dataset, clients, arg, seed)
        h = hashlib.sha256()
        for shard in shards:
            indices = shard.inputs[:, 0].astype(np.int64)
            h.update(np.int64(indices.size).tobytes())
            h.update(indices.tobytes())
        assert h.hexdigest()[:16] == digest


class TestShardMemory:
    """Shards are read-only row ranges of one table that belongs to the partition."""

    @pytest.mark.parametrize(
        "partition, arg", [(partition_dirichlet, 0.3), (partition_label_skew, 2)], ids=["dirichlet", "label_skew"]
    )
    def test_shards_are_read_only_and_share_no_memory(self, partition, arg):
        train, _ = make_blobs(5, 6, 24, 0.2, seed=11)
        shards = partition(train, 6, arg, seed=3)
        arrays = [(shard.inputs, shard.labels) for shard in shards]
        for inputs, labels in arrays:
            for array in (inputs, labels):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]
                assert not np.shares_memory(array, train.inputs)
                assert not np.shares_memory(array, train.labels)
        for i, first in enumerate(arrays):
            for second in arrays[i + 1 :]:
                assert not any(np.shares_memory(a, b) for a in first for b in second)
        # the source keeps its own, writable arrays
        train.inputs[0] = train.inputs[0]
        train.labels[0] = train.labels[0]
