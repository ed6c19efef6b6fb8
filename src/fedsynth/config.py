"""Experiment configuration: parsing, validation, defaults, seed derivation."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from .autodiff import architecture_layout
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


class Rule(NamedTuple):
    """A test one value must pass; a failure reads "<key> must <what>, got <value>"."""

    what: str
    accepts: Callable[[object], bool]


def _at_least(n: int) -> Rule:
    return Rule(f"be at least {n}", lambda v: v >= n)


def _one_of(choices: tuple) -> Rule:
    return Rule(f"be one of {choices}", lambda v: v in choices)


_POSITIVE = Rule("be positive", lambda v: v > 0)
_NON_NEGATIVE = Rule("be non-negative", lambda v: v >= 0)
_UNIT = Rule("lie in [0, 1]", lambda v: 0 <= v <= 1)


@dataclass
class DatasetSpec:
    classes: int = field(default=6, metadata={"rule": _at_least(2)})
    dim: int = field(default=16, metadata={"rule": _at_least(2)})
    per_class: int = field(default=200, metadata={"rule": _at_least(2)})
    spread: float = field(default=0.25, metadata={"rule": _NON_NEGATIVE})


@dataclass
class PartitionSpec:
    scheme: str = field(default="label_skew", metadata={"rule": _one_of(PARTITION_SCHEMES)})
    clients: int = field(default=10, metadata={"rule": _at_least(2)})
    # each scheme reads the field tagged with it; the other is None and is not serialized
    concentration: float | None = field(default=None, metadata={"scheme": "dirichlet", "rule": _POSITIVE})
    # its range [1, dataset.classes] involves another key, so validate_config checks it
    classes_per_client: int | None = field(default=1, metadata={"scheme": "label_skew"})


@dataclass
class ExperimentConfig:
    """Single source of truth for a run; defaults mirror the reference setup.

    The fields of this class and of its two sections are the config keys,
    and each field declares its key's own rules: the JSON key is the field
    name unless the metadata gives another `key`, the type check follows the
    annotation, and the metadata's `rule` (a range or the choices) and
    `scheme` tag complete them. `validate_config` checks those in one pass
    and adds only the rules that involve more than one key.
    """

    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    partition: PartitionSpec = field(default_factory=PartitionSpec)
    algorithm: str = field(default="hfmds_fl", metadata={"rule": _one_of(ALGORITHMS)})
    architecture: list[str] = field(default_factory=list)
    rounds: int = field(default=60, metadata={"rule": _at_least(1)})
    active_clients: int = 0  # 0 resolves to full participation; at most partition.clients
    local_epochs: int = field(default=1, metadata={"rule": _at_least(1)})
    batch_size: int = field(default=10, metadata={"rule": _at_least(1)})
    learning_rate: float = field(default=0.005, metadata={"rule": _POSITIVE})
    momentum: float = field(default=0.9, metadata={"rule": Rule("lie in [0, 1)", lambda v: 0 <= v < 1)})
    weight_decay: float = field(default=5e-4, metadata={"rule": _NON_NEGATIVE})
    alpha: float = field(default=0.1, metadata={"rule": _UNIT})
    mu: float = field(default=0.5, metadata={"rule": _at_least(-1)})
    lam: float = field(default=0.5, metadata={"key": "lambda", "rule": _UNIT})
    syn_per_client: int = field(default=100, metadata={"rule": _at_least(1)})
    syn_steps: int = field(default=500, metadata={"rule": _at_least(1)})
    syn_interval: int = field(default=20, metadata={"rule": _at_least(1)})
    adam_lr: float = field(default=0.02, metadata={"rule": _POSITIVE})
    kl_eps: float = field(default=1e-8, metadata={"rule": _POSITIVE})
    seed: int = field(default=0, metadata={"rule": _NON_NEGATIVE})
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

# annotation -> the rule a value of that type must pass
_TYPES = {
    "int": Rule("be an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "float": Rule(
        "be a finite number",
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v),
    ),
    "str": Rule("be a string", lambda v: isinstance(v, str)),
    "list[str]": Rule(
        "be a list of layer strings",
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(s, str) for s in v),
    ),
}


class _Check(NamedTuple):
    path: str  # the key as messages name it, e.g. "partition.clients"
    attr: str  # the attribute path from the config, e.g. "partition.clients"
    optional: bool  # a `X | None` field also takes null and then skips its rule
    type: Rule
    rule: Rule | None
    scheme: str | None  # the partition scheme that reads this field


# every leaf field's checks, built once; sections come first and `scheme` precedes the fields it tags
_CHECKS = [
    _Check(
        f"{section}.{key}" if section else key,
        f"{section}.{f.name}" if section else f.name,
        f.type.endswith(" | None"),
        _TYPES[f.type.removesuffix(" | None")],
        f.metadata.get("rule"),
        f.metadata.get("scheme"),
    )
    for section, cls in [*_SECTIONS.items(), (None, ExperimentConfig)]
    for key, f in _KEYS[cls].items()
    if not dataclasses.is_dataclass(f.default_factory)
]
_VALUES = operator.attrgetter(*(check.attr for check in _CHECKS))  # one call reads every checked value


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _check_fields(cfg: ExperimentConfig) -> None:
    """Check every key against the rules its field declares.

    All types are checked before any rule compares a value: integers exclude
    bool; finite numbers take integers but not bool, NaN or infinities; a
    `X | None` field also takes null. A field tagged with a scheme is
    required under that scheme and must be null under any other.
    """
    values = _VALUES(cfg)
    for check, value in zip(_CHECKS, values):
        if not (check.optional and value is None) and not check.type.accepts(value):
            raise ConfigError(f"{check.path} must {check.type.what}, got {value!r}")
    for check, value in zip(_CHECKS, values):
        if check.scheme is not None:
            scheme = cfg.partition.scheme
            if scheme == check.scheme and value is None:
                raise ConfigError(f"{check.path} is required for the {scheme} scheme")
            if scheme != check.scheme and value is not None:
                raise ConfigError(f"{check.path} is not a {scheme} field")
        if check.rule is not None and value is not None and not check.rule.accepts(value):
            raise ConfigError(f"{check.path} must {check.rule.what}, got {value!r}")


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Validate every field and resolve derived defaults; returns a new config.

    Each key's own rules come from its field (`_check_fields`); the checks
    here are the ones that involve more than one key.
    """
    cfg = dataclasses.replace(
        cfg, dataset=dataclasses.replace(cfg.dataset), partition=dataclasses.replace(cfg.partition)
    )
    _check_fields(cfg)

    ds = cfg.dataset
    values = ds.classes * ds.per_class * ds.dim
    _require(
        values <= MAX_INPUT_VALUES,
        f"dataset.classes * dataset.per_class * dataset.dim must be at most {MAX_INPUT_VALUES}, got {values}",
    )

    part = cfg.partition
    # with at least one training row per client, either scheme can fill every shard
    rows = ds.classes * ds.per_class
    _require(
        part.clients <= rows,
        f"partition.clients must not exceed the {rows} training samples (dataset.classes * dataset.per_class), "
        f"got {part.clients}",
    )
    _require(part.clients <= MAX_CLIENTS, f"partition.clients must be at most {MAX_CLIENTS}, got {part.clients}")
    if part.classes_per_client is not None:
        _require(
            1 <= part.classes_per_client <= ds.classes,
            f"partition.classes_per_client must lie in [1, {ds.classes}], got {part.classes_per_client}",
        )
        _require(
            part.clients * part.classes_per_client >= ds.classes,
            "partition.clients * classes_per_client must cover every class",
        )

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
    layout = architecture_layout(tuple(cfg.architecture))
    count = layout.params[-1][2]
    _require(count <= MAX_PARAMETERS, f"architecture has {count} parameters, at most {MAX_PARAMETERS} are allowed")
    width = layout.layers[layout.first_dense][1]
    _require(width == ds.dim, f"architecture input width {width} must equal dataset.dim {ds.dim}")
    _require(
        layout.layers[-1][2] == ds.classes,
        f"architecture output width {layout.layers[-1][2]} must equal dataset.classes {ds.classes}",
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
            if "scheme" in section:
                # the scheme decides which tagged field is live; unset the others' defaults
                for f in _KEYS[cls].values():
                    if f.metadata.get("scheme", section["scheme"]) != section["scheme"]:
                        section.setdefault(f.name, None)
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
