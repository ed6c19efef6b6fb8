import json
import os
from pathlib import Path

import numpy as np
import pytest

import fedsynth.synthesis as synthesis
from fedsynth.config import config_from_dict
from fedsynth.data import make_blobs


def small_config(**overrides):
    """Tiny but complete config for fast engine-level tests."""
    base = {
        "algorithm": "hfmds_fl",
        "dataset": {"classes": 4, "dim": 8, "per_class": 40, "spread": 0.25},
        "partition": {"scheme": "label_skew", "clients": 4, "classes_per_client": 1},
        "rounds": 4,
        "syn_interval": 2,
        "syn_per_client": 8,
        "syn_steps": 15,
        "seed": 11,
    }
    for key, value in overrides.items():
        if key in ("dataset", "partition") and isinstance(value, dict):
            base[key] = {**base[key], **value}
        else:
            base[key] = value
    return config_from_dict(base)


def divergence_probe(**overrides):
    """The shipped default config cut to 50 rows per class and 4 rounds, with a synthesis event every second round."""
    base = json.loads((Path(__file__).resolve().parent.parent / "configs" / "default.json").read_text())
    base["dataset"]["per_class"] = 50
    return config_from_dict({**base, "rounds": 4, "syn_interval": 2, "syn_steps": 50, "seed": 1, **overrides})


def force_pool(monkeypatch):
    """Run every synthesis event on two forked workers, whatever its size and the CPUs this process may use."""
    monkeypatch.setattr(synthesis, "POOL_ROW_STEPS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def forced_pool(monkeypatch):
    force_pool(monkeypatch)


@pytest.fixture
def blob_data():
    train, test = make_blobs(4, 8, 40, 0.25, seed=3)
    return train, test


@pytest.fixture
def rng():
    return np.random.default_rng(123)
