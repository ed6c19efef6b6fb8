"""The mixup privacy baseline that synthetic rows are compared against.

Only acceptance criterion 4 and the unit tests build mixup rows; no run
does, so the generator lives here rather than in `fedsynth.synthesis`.
"""

import numpy as np

from fedsynth.data import Dataset
from fedsynth.synthesis import SyntheticDataset, synthetic_rows


def mixup_generate(
    shard: Dataset,
    count: int,
    rng: np.random.Generator,
    client_id: int = 0,
    round_index: int = 0,
) -> SyntheticDataset:
    """Two-sample input averaging with 50/50 soft labels (privacy baseline).

    The first parent serves as the paired real sample; same-class parents
    collapse to a hard label.
    """
    if len(shard) < 2:
        raise ValueError("mixup requires at least two real samples")
    parents = np.array([rng.choice(len(shard), size=2, replace=False) for _ in range(count)], dtype=np.int64)
    first, second = parents.reshape(count, 2).T
    rows = np.arange(count)
    target = np.zeros((count, shard.class_count))
    target[rows, shard.labels[first]] += 0.5
    target[rows, shard.labels[second]] += 0.5
    x = 0.5 * (shard.inputs[first] + shard.inputs[second])
    return SyntheticDataset(synthetic_rows(shard, first, x, target), 0, client_id, round_index, "")
