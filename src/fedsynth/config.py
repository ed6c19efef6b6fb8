"""Experiment configuration: parsing, validation, defaults, seed derivation."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .autodiff import parse_architecture
from .errors import ConfigError

logger = logging.getLogger(__name__)

ALGORITHMS = ("fedavg", "fmds_fl", "hfmds_fl")
PARTITION_SCHEMES = ("dirichlet", "label_skew")


def derive_seed(master: int, label: str) -> int:
    """Stable role-labelled seed derived from the master seed."""
    digest = hashlib.sha256(f"{int(master)}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class DatasetSpec:
    classes: int = 6
    dim: int = 16
    per_class: int = 200
    spread: float = 0.25


@dataclass
class PartitionSpec:
    scheme: str = "label_skew"
    clients: int = 10
    concentration: float | None = None
    classes_per_client: int | None = 1


@dataclass
class ExperimentConfig:
    """Single source of truth for a run; defaults mirror the reference setup."""

    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    algorithm: str = "hfmds_fl"
    architecture: list[str] = field(default_factory=list)
    rounds: int = 60
    active_clients: int = 0  # 0 resolves to full participation
    local_epochs: int = 1
    batch_size: int = 10
    learning_rate: float = 0.005
    momentum: float = 0.9
    weight_decay: float = 5e-4
    alpha: float = 0.1
    mu: float = 0.5
    lam: float = 0.5
    syn_per_client: int = 100
    syn_steps: int = 500
    syn_interval: int = 20
    adam_lr: float = 0.02
    kl_eps: float = 1e-8
    seed: int = 0
    out_dir: str = "runs/default"


_DATASET_KEYS = {"classes", "dim", "per_class", "spread"}
_PARTITION_KEYS = {"scheme", "clients", "concentration", "classes_per_client"}
_TOP_KEYS = {
    "dataset": None,
    "partition": None,
    "algorithm": "algorithm",
    "architecture": "architecture",
    "rounds": "rounds",
    "active_clients": "active_clients",
    "local_epochs": "local_epochs",
    "batch_size": "batch_size",
    "learning_rate": "learning_rate",
    "momentum": "momentum",
    "weight_decay": "weight_decay",
    "alpha": "alpha",
    "mu": "mu",
    "lambda": "lam",
    "syn_per_client": "syn_per_client",
    "syn_steps": "syn_steps",
    "syn_interval": "syn_interval",
    "adam_lr": "adam_lr",
    "kl_eps": "kl_eps",
    "seed": "seed",
    "out_dir": "out_dir",
}


_INT_KEYS = (
    "rounds",
    "active_clients",
    "local_epochs",
    "batch_size",
    "syn_per_client",
    "syn_steps",
    "syn_interval",
    "seed",
)
_FLOAT_KEYS = ("learning_rate", "momentum", "weight_decay", "alpha", "mu", "lambda", "adam_lr", "kl_eps")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_int(value, key: str, optional: bool = False) -> None:
    """Integers only: bool, str, float and (unless optional) null are rejected."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")


def _check_float(value, key: str, optional: bool = False) -> None:
    """Finite numbers only (integers included); bool, str, NaN and infinities are rejected."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _check_types(cfg: ExperimentConfig) -> None:
    """Reject values of the wrong type before any range check compares them."""
    for key in ("classes", "dim", "per_class"):
        _check_int(getattr(cfg.dataset, key), f"dataset.{key}")
    _check_float(cfg.dataset.spread, "dataset.spread")
    _check_int(cfg.partition.clients, "partition.clients")
    _check_int(cfg.partition.classes_per_client, "partition.classes_per_client", optional=True)
    _check_float(cfg.partition.concentration, "partition.concentration", optional=True)
    for key in _INT_KEYS:
        _check_int(getattr(cfg, _TOP_KEYS[key]), key)
    for key in _FLOAT_KEYS:
        _check_float(getattr(cfg, _TOP_KEYS[key]), key)
    if not isinstance(cfg.architecture, (list, tuple)) or not all(isinstance(s, str) for s in cfg.architecture):
        raise ConfigError(f"architecture must be a list of layer strings, got {cfg.architecture!r}")
    if not isinstance(cfg.out_dir, str):
        raise ConfigError(f"out_dir must be a string, got {cfg.out_dir!r}")


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Validate every field and resolve derived defaults; returns a new config."""
    cfg = dataclasses.replace(
        cfg, dataset=dataclasses.replace(cfg.dataset), partition=dataclasses.replace(cfg.partition)
    )
    _check_types(cfg)
    _require(cfg.algorithm in ALGORITHMS, f"algorithm must be one of {ALGORITHMS}, got {cfg.algorithm!r}")

    ds = cfg.dataset
    _require(ds.classes >= 2, f"dataset.classes must be at least 2, got {ds.classes}")
    _require(ds.dim >= 2, f"dataset.dim must be at least 2, got {ds.dim}")
    _require(ds.per_class >= 2, f"dataset.per_class must be at least 2, got {ds.per_class}")
    _require(ds.spread >= 0, f"dataset.spread must be non-negative, got {ds.spread}")

    part = cfg.partition
    _require(
        part.scheme in PARTITION_SCHEMES,
        f"partition.scheme must be one of {PARTITION_SCHEMES}, got {part.scheme!r}",
    )
    _require(part.clients >= 2, f"partition.clients must be at least 2, got {part.clients}")
    if part.scheme == "dirichlet":
        _require(part.concentration is not None, "partition.concentration is required for the dirichlet scheme")
        _require(part.concentration > 0, f"partition.concentration must be positive, got {part.concentration}")
        _require(
            part.classes_per_client is None,
            "partition.classes_per_client is not a dirichlet field",
        )
    else:
        _require(
            part.classes_per_client is not None,
            "partition.classes_per_client is required for the label_skew scheme",
        )
        _require(
            1 <= part.classes_per_client <= ds.classes,
            f"partition.classes_per_client must lie in [1, {ds.classes}], got {part.classes_per_client}",
        )
        _require(
            part.clients * part.classes_per_client >= ds.classes,
            "partition.clients * classes_per_client must cover every class",
        )
        _require(part.concentration is None, "partition.concentration is not a label_skew field")

    _require(cfg.rounds >= 1, f"rounds must be at least 1, got {cfg.rounds}")
    _require(cfg.local_epochs >= 1, f"local_epochs must be at least 1, got {cfg.local_epochs}")
    _require(cfg.batch_size >= 1, f"batch_size must be at least 1, got {cfg.batch_size}")
    _require(cfg.learning_rate > 0, f"learning_rate must be positive, got {cfg.learning_rate}")
    _require(0 <= cfg.momentum < 1, f"momentum must lie in [0, 1), got {cfg.momentum}")
    _require(cfg.weight_decay >= 0, f"weight_decay must be non-negative, got {cfg.weight_decay}")
    _require(0 <= cfg.alpha <= 1, f"alpha must lie in [0, 1], got {cfg.alpha}")
    _require(cfg.mu >= -1, f"mu must be at least -1, got {cfg.mu}")
    _require(0 <= cfg.lam <= 1, f"lambda must lie in [0, 1], got {cfg.lam}")
    _require(cfg.syn_per_client >= 1, f"syn_per_client must be at least 1, got {cfg.syn_per_client}")
    _require(cfg.syn_steps >= 1, f"syn_steps must be at least 1, got {cfg.syn_steps}")
    _require(cfg.syn_interval >= 1, f"syn_interval must be at least 1, got {cfg.syn_interval}")
    _require(cfg.adam_lr > 0, f"adam_lr must be positive, got {cfg.adam_lr}")
    _require(cfg.kl_eps > 0, f"kl_eps must be positive, got {cfg.kl_eps}")
    _require(cfg.seed >= 0, f"seed must be non-negative, got {cfg.seed}")

    if cfg.active_clients == 0:
        cfg.active_clients = part.clients
    _require(
        1 <= cfg.active_clients <= part.clients,
        f"active_clients must lie in [1, {part.clients}], got {cfg.active_clients}",
    )

    if not cfg.architecture:
        cfg.architecture = [
            f"dense({ds.dim},32)",
            "relu",
            "dense(32,32)",
            "relu",
            f"dense(32,{ds.classes})",
        ]
    layers = parse_architecture(cfg.architecture)
    first = next(layer for layer in layers if layer[0] == "dense")
    _require(first[1] == ds.dim, f"architecture input width {first[1]} must equal dataset.dim {ds.dim}")
    _require(
        layers[-1][2] == ds.classes,
        f"architecture output width {layers[-1][2]} must equal dataset.classes {ds.classes}",
    )

    if cfg.algorithm == "fmds_fl" and cfg.mu != 0.0:
        logger.info("algorithm fmds_fl forces mu to 0 (was %s)", cfg.mu)
        cfg.mu = 0.0
    return cfg


def _check_section(raw: Mapping, allowed: set[str], section: str) -> None:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{section} must be a JSON object, got {raw!r}")
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown config key {section}.{key}")


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    """Build a validated config from a JSON-style mapping; unknown keys are rejected."""
    if not isinstance(raw, Mapping):
        raise ConfigError("config must be a JSON object")
    for key in raw:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    kwargs = {}
    if "dataset" in raw:
        _check_section(raw["dataset"], _DATASET_KEYS, "dataset")
        kwargs["dataset"] = DatasetSpec(**raw["dataset"])
    if "partition" in raw:
        _check_section(raw["partition"], _PARTITION_KEYS, "partition")
        section = dict(raw["partition"])
        # the scheme decides which optional field is live; unset the other default
        if section.get("scheme") == "dirichlet" and "classes_per_client" not in section:
            section["classes_per_client"] = None
        kwargs["partition"] = PartitionSpec(**section)
    for key, attr in _TOP_KEYS.items():
        if attr is None or key not in raw:
            continue
        kwargs[attr] = raw[key]
    try:
        cfg = ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return validate_config(cfg)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Serialize a resolved config back to its JSON key set."""
    partition: dict = {"scheme": cfg.partition.scheme, "clients": cfg.partition.clients}
    if cfg.partition.scheme == "dirichlet":
        partition["concentration"] = cfg.partition.concentration
    else:
        partition["classes_per_client"] = cfg.partition.classes_per_client
    return {
        "algorithm": cfg.algorithm,
        "dataset": {
            "classes": cfg.dataset.classes,
            "dim": cfg.dataset.dim,
            "per_class": cfg.dataset.per_class,
            "spread": cfg.dataset.spread,
        },
        "partition": partition,
        "architecture": list(cfg.architecture),
        "rounds": cfg.rounds,
        "active_clients": cfg.active_clients,
        "local_epochs": cfg.local_epochs,
        "batch_size": cfg.batch_size,
        "learning_rate": cfg.learning_rate,
        "momentum": cfg.momentum,
        "weight_decay": cfg.weight_decay,
        "alpha": cfg.alpha,
        "mu": cfg.mu,
        "lambda": cfg.lam,
        "syn_per_client": cfg.syn_per_client,
        "syn_steps": cfg.syn_steps,
        "syn_interval": cfg.syn_interval,
        "adam_lr": cfg.adam_lr,
        "kl_eps": cfg.kl_eps,
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
    }


def parse_config(source: str | Path) -> ExperimentConfig:
    """Parse a config from a JSON file path or inline JSON text."""
    if isinstance(source, Path) or not str(source).lstrip().startswith("{"):
        path = Path(source)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        text = path.read_text(encoding="utf-8")
    else:
        text = str(source)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config JSON: {exc}") from exc
    return config_from_dict(raw)
