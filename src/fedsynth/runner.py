"""End-to-end experiment runs: state construction, the guarded round loop, artifact output."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import Model
from .config import ExperimentConfig, config_to_dict, derive_seed
from .data import make_blobs, partition_dirichlet, partition_label_skew
from .engine import ClientState, GlobalState, run_round
from .errors import DivergenceError
from .metrics import export_features, write_metrics_csv
from .synthesis import dump_synthetic_dataset, synthetic_rows


@dataclass
class RunManifest:
    """Reproducibility record: resolved config, derived seeds, artifact list."""

    config: dict
    seeds: dict
    synthesis_rounds: list[int]
    artifacts: list[str]
    version: str


def build_state(cfg: ExperimentConfig) -> tuple[GlobalState, dict]:
    """Materialize dataset, shards, model, and RNG streams from a config."""
    seeds = {
        "dataset": derive_seed(cfg.seed, "dataset"),
        "partition": derive_seed(cfg.seed, "partition"),
        "model_init": derive_seed(cfg.seed, "model-init"),
        "server": derive_seed(cfg.seed, "server"),
        "clients": [derive_seed(cfg.seed, f"client/{k}") for k in range(cfg.partition.clients)],
    }
    train, test = make_blobs(
        cfg.dataset.classes, cfg.dataset.dim, cfg.dataset.per_class, cfg.dataset.spread, seeds["dataset"]
    )
    if cfg.partition.scheme == "dirichlet":
        shards = partition_dirichlet(train, cfg.partition.clients, cfg.partition.concentration, seeds["partition"])
    else:
        shards = partition_label_skew(
            train, cfg.partition.clients, cfg.partition.classes_per_client, seeds["partition"]
        )
    model = Model.initialize(cfg.architecture, np.random.default_rng(seeds["model_init"]))
    clients = [
        ClientState(k, shards[k], np.random.default_rng(seeds["clients"][k])) for k in range(cfg.partition.clients)
    ]
    state = GlobalState(
        model=model,
        clients=clients,
        test_data=test,
        server_rng=np.random.default_rng(seeds["server"]),
        syn_samples=synthetic_rows(test, [], test.inputs[:0]),
    )
    return state, seeds


def execute(cfg: ExperimentConfig) -> tuple[GlobalState, dict]:
    """Run the full round loop in memory, a diverging round raising `DivergenceError`; no files are written."""
    state, seeds = build_state(cfg)
    for t in range(1, cfg.rounds + 1):
        # the data and the initial model are finite: an inf or NaN in a round comes from an operation that raises
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                run_round(state, cfg)
        except FloatingPointError as exc:
            raise DivergenceError(f"round {t}: {exc}") from exc
    return state, seeds


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Execute a configured run, then write all artifacts below cfg.out_dir; a failed run writes nothing."""
    state, seeds = execute(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    artifacts = []
    write_metrics_csv(state.rows, out / "metrics.csv")
    artifacts.append("metrics.csv")

    for event in state.events:
        for path in dump_synthetic_dataset(event, cfg.mu, cfg.lam, out / f"synthesis_round_{event.round_index:04d}"):
            artifacts.append(str(path.relative_to(out)))

    export_features(state.model, state.test_data, state.syn_samples, out / "features.csv")
    artifacts.append("features.csv")

    manifest = RunManifest(
        config=config_to_dict(cfg),
        seeds=seeds,
        synthesis_rounds=[event.round_index for event in state.events],
        artifacts=artifacts,
        version=__version__,
    )
    (out / "manifest.json").write_text(json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest
