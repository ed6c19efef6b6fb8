"""The mixup privacy baseline that synthetic rows are compared against.

Only acceptance criterion 4 and the unit tests build mixup rows; no run
does, so the generator lives here rather than in `fedsynth.synthesis`.
"""

import numpy as np

from fedsynth.data import Dataset
from fedsynth.synthesis import SyntheticDataset, synthetic_rows


def mixup_generate(shard: Dataset, count: int, rng: np.random.Generator) -> SyntheticDataset:
    """Two-sample input averaging (privacy baseline).

    The first parent serves as the paired real sample, and the row takes its
    hard label.
    """
    if len(shard) < 2:
        raise ValueError("mixup requires at least two real samples")
    parents = np.array([rng.choice(len(shard), size=2, replace=False) for _ in range(count)], dtype=np.int64)
    first, second = parents.reshape(count, 2).T
    x = 0.5 * (shard.inputs[first] + shard.inputs[second])
    return SyntheticDataset(synthetic_rows(shard, first, x))
