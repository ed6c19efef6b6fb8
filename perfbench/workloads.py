"""Benchmark workloads: the fedsynth config each one runs, built from a seed.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

DESK_DATASET = {"classes": 6, "dim": 16, "per_class": 200, "spread": 0.25}


def desk_fedavg(seed: int) -> dict:
    """Desk config, plain FedAvg: local training only, synthesis never fires."""
    return {
        "algorithm": "fedavg",
        "dataset": dict(DESK_DATASET),
        "partition": {"scheme": "label_skew", "clients": 10, "classes_per_client": 1},
        "rounds": 60,
        "seed": seed,
    }


def desk_hfmds(seed: int) -> dict:
    """Desk config, the paper's method: 3 synthesis events x 10 jobs of n=100, 500 steps."""
    return {**desk_fedavg(seed), "algorithm": "hfmds_fl"}


def fleet_hfmds(seed: int) -> dict:
    """100 unequal Dirichlet(0.1) clients, 10 active per round; one synthesis event.

    The event is 100 tiny jobs (about 12 rows each), so its cost is per-step
    overhead. `syn_steps` is 100 instead of 500 so that a run takes seconds,
    not half a minute, and several runs fit in one measurement.
    """
    return {
        "algorithm": "hfmds_fl",
        "dataset": dict(DESK_DATASET),
        "partition": {"scheme": "dirichlet", "clients": 100, "concentration": 0.1},
        "active_clients": 10,
        "rounds": 20,
        "syn_steps": 100,
        "seed": seed,
    }


WORKLOADS = {
    "desk_fedavg": desk_fedavg,
    "desk_hfmds": desk_hfmds,
    "fleet_hfmds": fleet_hfmds,
}
