"""Golden trajectory pin: seed-1 runs on a shortened desk config hash to fixed digests.

Refactors that keep every elementwise operation and its order must leave
these digests alone. A change that alters float order (fused or stacked
kernels) re-pins them and says so in CHANGES.md.
"""

import hashlib
import json

import pytest

from fedsynth.config import config_from_dict
from fedsynth.runner import run_experiment

# sha256 prefix of every artifact apart from wall-clock fields, per algorithm
GOLDEN = {
    "fedavg": "4f4b1623fb511ebb",
    # mu forced to 0: every prototype-hardened target is hard_feature(z, p, 0)
    "fmds_fl": "f3af4796ca0190ee",
    "hfmds_fl": "8e4b4096c9c9f3e2",
}


# Dirichlet(0.5) shards of 37 to 282 rows, 6 of 10 clients active: every
# client ends each epoch on a short batch, and the small shards finish their
# local steps well before the large ones. The desk partition has neither.
RAGGED = {"scheme": "dirichlet", "clients": 10, "concentration": 0.5}
RAGGED_GOLDEN = "5c712a73b41fa52a"


def short_desk_config(algorithm, out_dir, **overrides):
    """The desk dataset and partition, cut to 4 rounds with two 20-step synthesis events."""
    return config_from_dict(
        {
            "algorithm": algorithm,
            "dataset": {"classes": 6, "dim": 16, "per_class": 200, "spread": 0.25},
            "partition": {"scheme": "label_skew", "clients": 10, "classes_per_client": 1},
            "rounds": 4,
            "syn_interval": 2,
            "syn_steps": 20,
            "seed": 1,
            "out_dir": str(out_dir),
            **overrides,
        }
    )


def artifact_digest(out):
    """Hash metrics.csv without its `ms` column, the manifest without `out_dir`, and every other file."""
    digest = hashlib.sha256()
    metrics = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    digest.update("\n".join(line.rsplit(",", 1)[0] for line in metrics).encode())
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    del manifest["config"]["out_dir"]
    digest.update(json.dumps(manifest, sort_keys=True).encode())
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name not in ("metrics.csv", "manifest.json"):
            digest.update(path.relative_to(out).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_seed_one_trajectory_is_pinned(algorithm, tmp_path):
    run_experiment(short_desk_config(algorithm, tmp_path))
    assert artifact_digest(tmp_path) == GOLDEN[algorithm]


@pytest.mark.parametrize("algorithm", ["fmds_fl", "hfmds_fl"])
def test_pooled_synthesis_keeps_the_pinned_trajectory(algorithm, tmp_path, forced_pool):
    # 20,000 row-steps an event, at POOL_ROW_STEPS: forcing the workers covers a box with one CPU too
    run_experiment(short_desk_config(algorithm, tmp_path))
    assert artifact_digest(tmp_path) == GOLDEN[algorithm]


def test_ragged_shards_trajectory_is_pinned(tmp_path):
    run_experiment(short_desk_config("hfmds_fl", tmp_path, partition=RAGGED, active_clients=6))
    assert artifact_digest(tmp_path) == RAGGED_GOLDEN
