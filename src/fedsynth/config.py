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
# size bounds that keep a validated config from asking for memory no run can have
MAX_INPUT_VALUES = 10**8  # dataset.classes * dataset.per_class * dataset.dim
MAX_PARAMETERS = 10**7  # weights and biases of the architecture
MAX_CLIENTS = 10**5  # runner.build_state derives one seed and one state per client


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
    # each scheme reads one of these two; the other is None and is not serialized
    concentration: float | None = field(default=None, metadata={"scheme": "dirichlet"})
    classes_per_client: int | None = field(default=1, metadata={"scheme": "label_skew"})


@dataclass
class ExperimentConfig:
    """Single source of truth for a run; defaults mirror the reference setup.

    The fields of this class and of its two sections are the config keys: a
    JSON key is the field name unless the field's metadata gives another, and
    its type check follows the field's annotation.
    """

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
    lam: float = field(default=0.5, metadata={"key": "lambda"})
    syn_per_client: int = 100
    syn_steps: int = 500
    syn_interval: int = 20
    adam_lr: float = 0.02
    kl_eps: float = 1e-8
    seed: int = 0
    out_dir: str = "runs/default"


_SECTIONS = {
    f.name: f.default_factory
    for f in dataclasses.fields(ExperimentConfig)
    if dataclasses.is_dataclass(f.default_factory)
}
# JSON key -> field, per config class; the key is the field name unless the metadata renames it
_KEYS = {
    cls: {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}
    for cls in (ExperimentConfig, *_SECTIONS.values())
}

# annotation -> (what the message says a value must be, the test it must pass)
_TYPES = {
    "int": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": (
        "a finite number",
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
    ),
    "str": ("a string", lambda v: isinstance(v, str)),
    "list[str]": (
        "a list of layer strings",
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v),
    ),
}

# (key path, section attribute or None, field name, None allowed, (what, test)), built once
_TYPED_FIELDS = [
    (
        f"{section}.{key}" if section else key,
        section,
        f.name,
        f.type.endswith(" | None"),
        _TYPES[f.type.removesuffix(" | None")],
    )
    for section, cls in [*_SECTIONS.items(), (None, ExperimentConfig)]
    for key, f in _KEYS[cls].items()
    if not dataclasses.is_dataclass(f.default_factory)
]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_types(cfg: ExperimentConfig) -> None:
    """Reject values of the wrong type before any range check compares them.

    Integers exclude bool; finite numbers take integers but not bool, NaN or
    infinities; a `X | None` field also takes null.
    """
    for path, section, name, optional, (what, accepts) in _TYPED_FIELDS:
        value = getattr(getattr(cfg, section) if section else cfg, name)
        if not (optional and value is None) and not accepts(value):
            raise ConfigError(f"{path} must be {what}, got {value!r}")


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
    values = ds.classes * ds.per_class * ds.dim
    _require(
        values <= MAX_INPUT_VALUES,
        f"dataset.classes * dataset.per_class * dataset.dim must be at most {MAX_INPUT_VALUES}, got {values}",
    )

    part = cfg.partition
    _require(
        part.scheme in PARTITION_SCHEMES,
        f"partition.scheme must be one of {PARTITION_SCHEMES}, got {part.scheme!r}",
    )
    _require(part.clients >= 2, f"partition.clients must be at least 2, got {part.clients}")
    # with at least one training row per client, either scheme can fill every shard
    rows = ds.classes * ds.per_class
    _require(
        part.clients <= rows,
        f"partition.clients must not exceed the {rows} training samples (dataset.classes * dataset.per_class), "
        f"got {part.clients}",
    )
    _require(part.clients <= MAX_CLIENTS, f"partition.clients must be at most {MAX_CLIENTS}, got {part.clients}")
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
    count = sum(layer[1] * layer[2] + layer[2] for layer in layers if layer[0] == "dense")
    _require(count <= MAX_PARAMETERS, f"architecture has {count} parameters, at most {MAX_PARAMETERS} are allowed")
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


def _field_values(raw, cls, section: str | None) -> dict:
    """Field-name keyword arguments for `cls` from a JSON object; unknown keys are rejected."""
    if not isinstance(raw, Mapping):
        raise ConfigError(
            f"{section} must be a JSON object, got {raw!r}" if section else "config must be a JSON object"
        )
    keys = _KEYS[cls]
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown config key {section}.{key}" if section else f"unknown config key {key!r}")
    return {keys[key].name: value for key, value in raw.items()}


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    """Build a validated config from a JSON-style mapping; unknown keys are rejected."""
    kwargs = _field_values(raw, ExperimentConfig, None)
    for key, cls in _SECTIONS.items():
        if key in kwargs:
            section = _field_values(kwargs[key], cls, key)
            if section.get("scheme") == "dirichlet":
                # the scheme decides which optional field is live; unset the other default
                section.setdefault("classes_per_client", None)
            kwargs[key] = cls(**section)
    return validate_config(ExperimentConfig(**kwargs))


def config_to_dict(cfg: ExperimentConfig | DatasetSpec | PartitionSpec) -> dict:
    """Serialize a resolved config (or one of its sections) back to its JSON keys.

    A partition field tagged with a scheme is left out under the other scheme.
    """
    scheme = getattr(cfg, "scheme", None)
    out = {}
    for key, f in _KEYS[type(cfg)].items():
        if f.metadata.get("scheme", scheme) != scheme:
            continue
        value = getattr(cfg, f.name)
        if type(value) in _KEYS:
            value = config_to_dict(value)
        elif isinstance(value, (list, tuple)):
            value = list(value)
        out[key] = value
    return out


def parse_config(source: str | Path) -> ExperimentConfig:
    """Parse a config from a JSON file path."""
    path = Path(source)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    text = path.read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config JSON: {exc}") from exc
    return config_from_dict(raw)
