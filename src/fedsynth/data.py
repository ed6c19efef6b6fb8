"""Desk-scale blob dataset generation and non-IID partitioning across clients."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError

Array = np.ndarray


@dataclass
class Dataset:
    """Feature matrix with integer class labels; treated as immutable."""

    inputs: Array
    labels: Array
    class_count: int

    def __post_init__(self):
        self.inputs = np.ascontiguousarray(self.inputs, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2 or self.inputs.shape[0] != self.labels.shape[0]:
            raise ValueError("inputs and labels are misaligned")
        if not np.isfinite(self.inputs).all():
            raise ValueError("inputs must be finite")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise ValueError("label outside [0, class_count)")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.inputs[idx], self.labels[idx], self.class_count)

    def class_histogram(self) -> Array:
        return np.bincount(self.labels, minlength=self.class_count)


def largest_remainder(weights, total: int) -> Array:
    """Integer counts summing to `total`, proportional to non-negative weights.

    Floors first, then hands the shortfall to the largest fractional parts
    (ties broken by lowest index).
    """
    w = np.asarray(weights, dtype=np.float64)
    floors = np.floor(w).astype(np.int64)
    short = int(total - floors.sum())
    if short > 0:
        order = np.argsort(-(w - floors), kind="stable")
        floors[order[:short]] += 1
    elif short < 0:
        # float-sum overshoot; trim the smallest fractions that still have mass
        order = np.argsort(w - floors, kind="stable")
        taken = 0
        for i in order:
            if taken == -short:
                break
            if floors[i] > 0:
                floors[i] -= 1
                taken += 1
    return floors


def _class_means(class_count: int, dim: int) -> Array:
    """Well-separated deterministic means: simplex vertices, or a 2-D grid
    in the first two coordinates when classes exceed dimensions."""
    means = np.zeros((class_count, dim))
    if class_count <= dim:
        means[np.arange(class_count), np.arange(class_count)] = 1.0
    else:
        side = int(np.ceil(np.sqrt(class_count)))
        denom = max(side - 1, 1)
        for c in range(class_count):
            means[c, 0] = (c % side) / denom
            means[c, 1] = (c // side) / denom
    return means


def _sample_blobs(means: Array, per_class: int, spread: float, rng: np.random.Generator) -> tuple[Array, Array]:
    class_count, dim = means.shape
    blocks = [means[c] + spread * rng.standard_normal((per_class, dim)) for c in range(class_count)]
    labels = np.repeat(np.arange(class_count, dtype=np.int64), per_class)
    return np.concatenate(blocks, axis=0), labels


@np.errstate(over="ignore", invalid="ignore")  # a spread that overflows is reported as a config error
def make_blobs(class_count: int, dim: int, per_class: int, spread: float, seed: int) -> tuple[Dataset, Dataset]:
    """Gaussian clusters on fixed means, min-max normalized to [0, 1].

    Returns (train, test); the test split holds 20% as many points per class,
    drawn from the same distribution with a derived seed and normalized with
    the train statistics (then clipped into [0, 1]).
    """
    if class_count < 2:
        raise ConfigError(f"class_count must be at least 2, got {class_count}")
    if dim < 2:
        raise ConfigError(f"dim must be at least 2, got {dim}")
    if per_class < 2:
        raise ConfigError(f"per_class must be at least 2, got {per_class}")
    if spread < 0:
        raise ConfigError(f"spread must be non-negative, got {spread}")
    means = _class_means(class_count, dim)
    train_rng = np.random.default_rng([int(seed), 0])
    test_rng = np.random.default_rng([int(seed), 1])
    x_train, y_train = _sample_blobs(means, per_class, spread, train_rng)
    test_per_class = max(1, round(0.2 * per_class))
    x_test, y_test = _sample_blobs(means, test_per_class, spread, test_rng)

    lo = x_train.min(axis=0)
    span = x_train.max(axis=0) - lo
    safe = np.where(span == 0, 1.0, span)
    x_train = np.where(span == 0, 0.0, (x_train - lo) / safe)
    x_test = np.clip(np.where(span == 0, 0.0, (x_test - lo) / safe), 0.0, 1.0)
    if not (np.isfinite(x_train).all() and np.isfinite(x_test).all()):
        raise ConfigError(f"dataset.spread {spread} is too large: the generated inputs are not finite")
    return Dataset(x_train, y_train, class_count), Dataset(x_test, y_test, class_count)


def _repair_empty(buckets: list[list[int]]) -> None:
    """Move one sample from the largest shard into each empty one."""
    while True:
        empties = [k for k, b in enumerate(buckets) if not b]
        if not empties:
            return
        sizes = [len(b) for b in buckets]
        donor = int(np.argmax(sizes))
        if sizes[donor] <= 1:
            raise ConfigError("cannot repair empty shards: not enough samples")
        buckets[empties[0]].append(buckets[donor].pop())


def partition_dirichlet(dataset: Dataset, client_count: int, concentration: float, seed: int) -> list[Dataset]:
    """Per class, a Dirichlet draw over clients allocates that class's samples.

    Largest-remainder rounding keeps totals exact; shards are disjoint and
    cover the dataset; empty shards are repaired from the largest shard.
    """
    if client_count < 2:
        raise ConfigError(f"client_count must be at least 2, got {client_count}")
    if concentration <= 0:
        raise ConfigError(f"concentration must be positive, got {concentration}")
    if len(dataset) < client_count:
        raise ConfigError("dataset smaller than client count")
    rng = np.random.default_rng(int(seed))
    buckets: list[list[int]] = [[] for _ in range(client_count)]
    for c in range(dataset.class_count):
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        proportions = rng.dirichlet(np.full(client_count, float(concentration)))
        counts = largest_remainder(proportions * idx.size, int(idx.size))
        start = 0
        for k in range(client_count):
            take = int(counts[k])
            buckets[k].extend(int(i) for i in idx[start : start + take])
            start += take
    _repair_empty(buckets)
    return [dataset.subset(sorted(b)) for b in buckets]


def partition_label_skew(dataset: Dataset, client_count: int, classes_per_client: int, seed: int) -> list[Dataset]:
    """Deal classes to clients round-robin over a seeded class permutation.

    Each client holds exactly `classes_per_client` distinct classes; samples
    of a class are split evenly among the clients holding it.
    """
    class_count = dataset.class_count
    if classes_per_client < 1:
        raise ConfigError(f"classes_per_client must be at least 1, got {classes_per_client}")
    if classes_per_client > class_count:
        raise ConfigError(f"classes_per_client {classes_per_client} exceeds class count {class_count}")
    if client_count * classes_per_client < class_count:
        raise ConfigError("client_count * classes_per_client must cover every class")
    rng = np.random.default_rng(int(seed))
    perm = rng.permutation(class_count)
    holders: dict[int, list[int]] = {c: [] for c in range(class_count)}
    for k in range(client_count):
        for j in range(classes_per_client):
            holders[int(perm[(k * classes_per_client + j) % class_count])].append(k)
    buckets: list[list[int]] = [[] for _ in range(client_count)]
    for c in range(class_count):
        clients = holders[c]
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size == 0 or not clients:
            continue
        rng.shuffle(idx)
        base, extra = divmod(int(idx.size), len(clients))
        start = 0
        for slot, k in enumerate(clients):
            take = base + (1 if slot < extra else 0)
            buckets[k].extend(int(i) for i in idx[start : start + take])
            start += take
    _repair_empty(buckets)
    return [dataset.subset(sorted(b)) for b in buckets]


def write_csv(dataset: Dataset, path: Path) -> Path:
    """Export a dataset as CSV with header x0..x{d-1},label."""
    path = Path(path)
    dim = dataset.inputs.shape[1]
    lines = [",".join([f"x{i}" for i in range(dim)] + ["label"])]
    for row, label in zip(dataset.inputs, dataset.labels):
        lines.append(",".join([repr(float(v)) for v in row] + [str(int(label))]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
