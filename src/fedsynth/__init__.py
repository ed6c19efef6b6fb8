"""Deterministic federated-averaging simulator with synthetic-data sharing.

Clients holding non-IID shards synthesize privacy-reduced proxy samples by
matching CAM-weighted, prototype-hardened features of real samples; a
simulated server pools the proxies and redistributes them to regularize
local training.
"""

__version__ = "0.1.0"

from .autodiff import (
    Adam,
    Model,
    Sgd,
    backward,
    backward_input,
    backward_params,
)
from .config import ExperimentConfig, derive_seed, parse_config
from .data import Dataset, make_blobs, partition_dirichlet, partition_label_skew
from .engine import ClientState, GlobalState, aggregate, local_update, run_round, sample_clients
from .errors import ConfigError
from .metrics import accuracy, alignment_score, dataset_psnr, psnr
from .runner import RunManifest, execute, run_experiment
from .synthesis import (
    SynthesisConfig,
    SyntheticDataset,
    hard_feature,
    mixup_generate,
    synthesize,
    synthetic_rows,
    update_prototypes,
)

__all__ = [
    "Adam",
    "ClientState",
    "ConfigError",
    "Dataset",
    "ExperimentConfig",
    "GlobalState",
    "Model",
    "RunManifest",
    "Sgd",
    "SynthesisConfig",
    "SyntheticDataset",
    "accuracy",
    "aggregate",
    "alignment_score",
    "backward",
    "backward_input",
    "backward_params",
    "dataset_psnr",
    "derive_seed",
    "execute",
    "hard_feature",
    "local_update",
    "make_blobs",
    "mixup_generate",
    "parse_config",
    "partition_dirichlet",
    "partition_label_skew",
    "psnr",
    "run_experiment",
    "run_round",
    "sample_clients",
    "synthesize",
    "synthetic_rows",
    "update_prototypes",
]
