"""Desk-scale blob dataset generation and non-IID partitioning across clients.

The sizes and counts passed in come from a config that `validate_config`
has checked; they are not checked again here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

Array = np.ndarray


@dataclass
class Dataset:
    """Feature matrix with integer class labels; treated as immutable.

    Construction checks the rows: aligned, finite inputs, labels in
    [0, class_count). Rows taken from a checked dataset (`subset`, the
    partition shards) are not checked again. Partition shards are
    read-only row ranges of one shared table.
    """

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

    @classmethod
    def _checked(cls, inputs: Array, labels: Array, class_count: int) -> "Dataset":
        """Wrap rows taken from a checked dataset without checking them again."""
        data = object.__new__(cls)
        data.inputs, data.labels, data.class_count = inputs, labels, class_count
        return data

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset._checked(self.inputs[idx], self.labels[idx], self.class_count)

    def class_histogram(self) -> Array:
        return np.bincount(self.labels, minlength=self.class_count)


def largest_remainder(weights, total: int) -> Array:
    """Integer counts summing to `total`, proportional to non-negative weights.

    Floors first, then hands the shortfall to the largest fractional parts
    (ties broken by lowest index). The weights must sum to less than
    `total + 1`, as both callers' shares of `total` do; floors summing past
    `total` raise ValueError.
    """
    w = np.asarray(weights, dtype=np.float64)
    floors = np.floor(w).astype(np.int64)
    short = int(total - floors.sum())
    if short < 0:
        raise ValueError(f"weights floor sum {floors.sum()} exceeds total {total}")
    order = np.argsort(-(w - floors), kind="stable")
    floors[order[:short]] += 1
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
    # one draw fills the classes in order, as one draw per class would
    blobs = means[:, None, :] + spread * rng.standard_normal((class_count, per_class, dim))
    labels = np.repeat(np.arange(class_count, dtype=np.int64), per_class)
    return blobs.reshape(class_count * per_class, dim), labels


@np.errstate(over="ignore", invalid="ignore")  # a spread that overflows is reported as a config error
def make_blobs(class_count: int, dim: int, per_class: int, spread: float, seed: int) -> tuple[Dataset, Dataset]:
    """Gaussian clusters on fixed means, min-max normalized to [0, 1].

    Returns (train, test); the test split holds 20% as many points per class,
    drawn from the same distribution with a derived seed and normalized with
    the train statistics (then clipped into [0, 1]).
    """
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


def _deal(dataset: Dataset, client_count: int, rng: np.random.Generator, counts) -> list[Dataset]:
    """Deal each class's shuffled rows to clients 0, 1, ... in consecutive runs.

    `counts(c, size)` gives class c's per-client row counts, summing to its
    `size`; classes without rows are skipped. Each empty shard then takes
    the last-dealt row of the largest shard, lowest index first.

    One sort orders the dealt rows by (client, row index), as sorting each
    client's rows would, and one gather copies them into a read-only
    table. Shard k is a view of its own range of that table, taken with no
    per-client mask, gather or re-check.
    """
    order = np.argsort(dataset.labels, kind="stable")  # each class's rows, ascending
    owner = np.empty_like(order)
    start = 0
    for c, size in enumerate(np.bincount(dataset.labels, minlength=dataset.class_count).tolist()):
        if size == 0:
            continue
        stop = start + size
        rng.shuffle(order[start:stop])
        owner[start:stop] = np.repeat(np.arange(client_count), counts(c, size))
        start = stop
    sizes = np.bincount(owner, minlength=client_count)
    for k in np.flatnonzero(sizes == 0):
        donor = int(np.argmax(sizes))
        if sizes[donor] <= 1:
            raise ConfigError("cannot repair empty shards: not enough samples")
        owner[np.flatnonzero(owner == donor)[-1]] = k
        sizes[donor] -= 1
        sizes[k] += 1
    rows = order[np.lexsort((order, owner))]
    inputs, labels = dataset.inputs[rows], dataset.labels[rows]
    inputs.flags.writeable = labels.flags.writeable = False
    ends = np.cumsum(sizes).tolist()
    return [
        Dataset._checked(inputs[lo:hi], labels[lo:hi], dataset.class_count)
        for lo, hi in zip([0] + ends[:-1], ends)
    ]


def partition_dirichlet(dataset: Dataset, client_count: int, concentration: float, seed: int) -> list[Dataset]:
    """Per class, a Dirichlet draw over clients allocates that class's samples.

    Largest-remainder rounding keeps totals exact; shards are disjoint and
    cover the dataset; empty shards are repaired from the largest shard.
    """
    rng = np.random.default_rng(int(seed))
    alpha = np.full(client_count, float(concentration))
    return _deal(dataset, client_count, rng, lambda _, size: largest_remainder(rng.dirichlet(alpha) * size, size))


def partition_label_skew(dataset: Dataset, client_count: int, classes_per_client: int, seed: int) -> list[Dataset]:
    """Deal classes to clients round-robin over a seeded class permutation.

    Each client holds exactly `classes_per_client` distinct classes; samples
    of a class are split evenly among the clients holding it, the first
    holders taking one more when the split is uneven.
    """
    class_count = dataset.class_count
    rng = np.random.default_rng(int(seed))
    perm = rng.permutation(class_count)
    held = perm[np.arange(client_count * classes_per_client) % class_count].reshape(client_count, classes_per_client)

    def counts(c: int, size: int) -> Array:
        holders = np.flatnonzero((held == c).any(axis=1))
        base, extra = divmod(size, holders.size)
        out = np.zeros(client_count, dtype=np.int64)
        out[holders] = base
        out[holders[:extra]] += 1
        return out

    return _deal(dataset, client_count, rng, counts)
