"""The accepted config keys: the README lists them, and every malformed config names one."""

import dataclasses
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fedsynth.config import (
    ALGORITHMS,
    PARTITION_SCHEMES,
    DatasetSpec,
    ExperimentConfig,
    PartitionSpec,
    Rule,
    config_from_dict,
    config_to_dict,
)
from fedsynth.errors import ConfigError
from fedsynth.runner import build_state

README = Path(__file__).resolve().parent.parent / "README.md"

# Every accepted key with a valid value. Each scheme serializes only its own
# partition field, so the partition section merges both schemes' fields.
DEFAULTS = config_to_dict(config_from_dict({}))
DEFAULTS["partition"].update(
    config_to_dict(config_from_dict({"partition": {"scheme": "dirichlet", "concentration": 1.0}}))["partition"]
)
SECTIONS = [key for key, value in DEFAULTS.items() if isinstance(value, dict)]
KEY_PATHS = {
    f"{key}.{sub}" if key in SECTIONS else key
    for key, value in DEFAULTS.items()
    for sub in (value if key in SECTIONS else [None])
}


def test_key_paths_are_the_dataclass_fields():
    leaves = [f for cls in (ExperimentConfig, DatasetSpec, PartitionSpec) for f in dataclasses.fields(cls)]
    assert len(KEY_PATHS) == len(leaves) - len(SECTIONS) == 27
    assert "lambda" in KEY_PATHS and "lam" not in KEY_PATHS


def test_every_number_key_declares_its_own_rule():
    """An int or float key's range sits on its field, so a key added without one fails here."""
    # their bounds involve other keys (partition.clients, dataset.classes), so validate_config checks them
    cross_key = {"active_clients", "partition.classes_per_client"}
    without = set()
    for section, cls in [(None, ExperimentConfig), ("dataset", DatasetSpec), ("partition", PartitionSpec)]:
        for f in dataclasses.fields(cls):
            if f.type.removesuffix(" | None") not in ("int", "float"):
                continue
            key = f.metadata.get("key", f.name)
            if "rule" in f.metadata:
                assert isinstance(f.metadata["rule"], Rule), key
            else:
                without.add(f"{section}.{key}" if section else key)
    assert without == cross_key


def test_readme_configuration_table_lists_every_key():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("## Configuration") :]
    table = table[: table.index("\n## ")]
    listed = re.findall(r"^\| `([\w.]+)` \|", table, flags=re.MULTILINE)
    assert len(listed) == len(set(listed)), "a key is listed twice"
    assert set(listed) == KEY_PATHS


def _names_a_key(message: str) -> bool:
    """True when the message names a key path or a section as a whole word."""
    names = KEY_PATHS | set(SECTIONS)
    return any(re.search(rf"(?<![\w.]){re.escape(name)}(?![\w.])", message) for name in names)


_LAYERS = st.lists(
    st.sampled_from(["relu", "dense(16,8)", "dense(8,6)", "dense(16,6)", "dense(8,8)", "dense(0,2)", 3])
)
_JUNK = st.one_of(
    st.integers(-3, 50),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    _LAYERS,
    st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2),
)


_WORDS = {"algorithm": ALGORITHMS, "scheme": PARTITION_SCHEMES}


def _typed(key: str, default) -> st.SearchStrategy:
    """Values of the default's type: the key's own words, positive small ints, non-negative floats."""
    if isinstance(default, str):
        return st.sampled_from([*_WORDS.get(key, ()), "runs/x"])
    if isinstance(default, list):
        return _LAYERS
    if isinstance(default, int):
        return st.integers(2, 50)
    return st.one_of(st.floats(0, 1), st.floats(min_value=0))


@st.composite
def _objects(draw, defaults: dict) -> dict:
    """Typed values over a few accepted keys; each section is drawn half of the time."""
    plain = [key for key, d in defaults.items() if not isinstance(d, dict)]
    chosen = draw(st.lists(st.sampled_from(plain), max_size=4, unique=True))
    raw = {key: draw(_typed(key, defaults[key])) for key in chosen}
    for key, d in defaults.items():
        if isinstance(d, dict) and draw(st.booleans()):
            raw[key] = draw(_objects(d))
    return raw


@st.composite
def _configs(draw) -> dict:
    """A typed config in which at most one key's value is then made junk, or an unknown key is added."""
    raw = draw(_objects(DEFAULTS))
    target, defaults = draw(
        st.sampled_from([(raw, DEFAULTS), *((raw[key], DEFAULTS[key]) for key in SECTIONS if key in raw)])
    )
    change = draw(st.sampled_from(["none", "junk", "unknown"]))
    if change == "junk":
        target[draw(st.sampled_from(sorted(defaults)))] = draw(_JUNK)
    elif change == "unknown":
        target[draw(st.sampled_from(["bogus", "lam"]))] = draw(_JUNK)  # `lam` is the field behind `lambda`
    return raw


def _unknown_paths(raw: dict) -> set[str]:
    paths = {repr(key) for key in raw if key not in DEFAULTS}
    for section in SECTIONS:
        if isinstance(raw.get(section), dict):
            paths |= {f"{section}.{key}" for key in raw[section] if key not in DEFAULTS[section]}
    return paths


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_configs())
def test_malformed_configs_fail_naming_a_key(raw):
    """Either parsing rejects the config naming a key, or setup succeeds or names one."""
    try:
        cfg = config_from_dict(raw)
    except ConfigError as exc:
        message = str(exc)
        if message.startswith("unknown config key"):
            assert any(message.endswith(path) for path in _unknown_paths(raw)), message
        else:
            assert _names_a_key(message), message
        return
    try:
        build_state(cfg)
    except ConfigError as exc:
        assert _names_a_key(str(exc)), str(exc)
