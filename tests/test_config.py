import json
import re

import pytest

from fedsynth.config import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    derive_seed,
    parse_config,
    validate_config,
)
from fedsynth.errors import ConfigError
from fedsynth.runner import build_state


class TestDefaults:
    def test_empty_config_fills_reference_defaults(self):
        cfg = config_from_dict({})
        assert cfg.batch_size == 10
        assert cfg.syn_per_client == 100
        assert cfg.local_epochs == 1
        assert cfg.learning_rate == 0.005
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4
        assert cfg.syn_steps == 500
        assert cfg.syn_interval == 20
        assert cfg.alpha == 0.1
        assert cfg.mu == 0.5
        assert cfg.lam == 0.5
        assert cfg.adam_lr == 0.02

    def test_resolved_fields(self):
        cfg = config_from_dict({})
        assert cfg.active_clients == cfg.partition.clients
        assert cfg.architecture[0] == f"dense({cfg.dataset.dim},32)"
        assert cfg.architecture[-1] == f"dense(32,{cfg.dataset.classes})"


class TestValidation:
    def test_alpha_out_of_range_names_key(self):
        with pytest.raises(ConfigError, match="alpha"):
            config_from_dict({"alpha": 1.5})

    def test_mu_below_minus_one_rejected(self):
        with pytest.raises(ConfigError, match="mu"):
            config_from_dict({"mu": -1.5})

    def test_lambda_out_of_range_rejected(self):
        with pytest.raises(ConfigError, match="lambda"):
            config_from_dict({"lambda": 2.0})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"bogus": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="dataset.noise"):
            config_from_dict({"dataset": {"noise": 0.1}})

    def test_fmds_forces_mu_to_zero(self):
        cfg = config_from_dict({"algorithm": "fmds_fl", "mu": 0.7})
        assert cfg.mu == 0.0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="algorithm"):
            config_from_dict({"algorithm": "fedprox"})

    def test_dirichlet_requires_concentration(self):
        with pytest.raises(ConfigError, match="concentration"):
            config_from_dict({"partition": {"scheme": "dirichlet", "clients": 4}})

    def test_dirichlet_rejects_label_skew_field(self):
        with pytest.raises(ConfigError, match="classes_per_client"):
            config_from_dict(
                {"partition": {"scheme": "dirichlet", "clients": 4, "concentration": 0.1, "classes_per_client": 2}}
            )

    def test_label_skew_rejects_concentration(self):
        with pytest.raises(ConfigError, match="concentration"):
            config_from_dict(
                {"partition": {"scheme": "label_skew", "clients": 4, "classes_per_client": 2, "concentration": 0.1}}
            )

    def test_architecture_must_match_dataset(self):
        with pytest.raises(ConfigError, match="architecture"):
            config_from_dict({"architecture": ["dense(4,8)", "dense(8,6)"]})

    def test_active_clients_bounded(self):
        with pytest.raises(ConfigError, match="active_clients"):
            config_from_dict({"active_clients": 99})

    def test_syn_steps_positive(self):
        with pytest.raises(ConfigError, match="syn_steps"):
            config_from_dict({"syn_steps": 0})


ALGORITHM_CHOICES = "('fedavg', 'fmds_fl', 'hfmds_fl')"
DIRICHLET = {"scheme": "dirichlet", "clients": 4, "concentration": 0.1}
# one fault each, with the full message it must fail with
SINGLE_FAULTS = [
    ({"dataset": {"classes": 1}}, "dataset.classes must be at least 2, got 1"),
    ({"dataset": {"dim": 1}}, "dataset.dim must be at least 2, got 1"),
    ({"dataset": {"per_class": 1}}, "dataset.per_class must be at least 2, got 1"),
    ({"dataset": {"spread": -0.1}}, "dataset.spread must be non-negative, got -0.1"),
    ({"partition": {"scheme": "iid"}}, "partition.scheme must be one of ('dirichlet', 'label_skew'), got 'iid'"),
    ({"partition": {"clients": 1, "classes_per_client": 6}}, "partition.clients must be at least 2, got 1"),
    ({"partition": {**DIRICHLET, "concentration": 0}}, "partition.concentration must be positive, got 0"),
    ({"partition": {**DIRICHLET, "concentration": -1.5}}, "partition.concentration must be positive, got -1.5"),
    (
        {"partition": {"scheme": "dirichlet", "clients": 4}},
        "partition.concentration is required for the dirichlet scheme",
    ),
    (
        {"partition": {**DIRICHLET, "classes_per_client": 2}},
        "partition.classes_per_client is not a dirichlet field",
    ),
    (
        {"partition": {"classes_per_client": None}},
        "partition.classes_per_client is required for the label_skew scheme",
    ),
    ({"partition": {"concentration": 0.1}}, "partition.concentration is not a label_skew field"),
    ({"partition": {"classes_per_client": 0}}, "partition.classes_per_client must lie in [1, 6], got 0"),
    ({"partition": {"classes_per_client": 7}}, "partition.classes_per_client must lie in [1, 6], got 7"),
    ({"partition": {"clients": 5}}, "partition.clients * classes_per_client must cover every class"),
    ({"algorithm": "fedprox"}, f"algorithm must be one of {ALGORITHM_CHOICES}, got 'fedprox'"),
    ({"rounds": 0}, "rounds must be at least 1, got 0"),
    ({"active_clients": -1}, "active_clients must lie in [1, 10], got -1"),
    ({"active_clients": 11}, "active_clients must lie in [1, 10], got 11"),
    ({"local_epochs": 0}, "local_epochs must be at least 1, got 0"),
    ({"batch_size": 0}, "batch_size must be at least 1, got 0"),
    ({"learning_rate": 0}, "learning_rate must be positive, got 0"),
    ({"learning_rate": -0.005}, "learning_rate must be positive, got -0.005"),
    ({"momentum": -0.1}, "momentum must lie in [0, 1), got -0.1"),
    ({"momentum": 1}, "momentum must lie in [0, 1), got 1"),
    ({"weight_decay": -1e-4}, "weight_decay must be non-negative, got -0.0001"),
    ({"alpha": -0.1}, "alpha must lie in [0, 1], got -0.1"),
    ({"alpha": 1.5}, "alpha must lie in [0, 1], got 1.5"),
    ({"mu": -1.5}, "mu must be at least -1, got -1.5"),
    ({"lambda": -0.1}, "lambda must lie in [0, 1], got -0.1"),
    ({"lambda": 2.0}, "lambda must lie in [0, 1], got 2.0"),
    ({"syn_per_client": 0}, "syn_per_client must be at least 1, got 0"),
    ({"syn_steps": 0}, "syn_steps must be at least 1, got 0"),
    ({"syn_interval": 0}, "syn_interval must be at least 1, got 0"),
    ({"adam_lr": 0}, "adam_lr must be positive, got 0"),
    ({"adam_lr": -0.02}, "adam_lr must be positive, got -0.02"),
    ({"kl_eps": 0.0}, "kl_eps must be positive, got 0.0"),
    ({"kl_eps": -1e-8}, "kl_eps must be positive, got -1e-08"),
    ({"seed": -1}, "seed must be non-negative, got -1"),
]
# configs that sit exactly on an inclusive bound, each of which must be accepted
ON_THE_BOUND = [
    {"dataset": {"classes": 2}},
    {"dataset": {"dim": 2}},
    {"dataset": {"per_class": 2}},
    {"dataset": {"spread": 0}},
    {"partition": {"clients": 2, "classes_per_client": 3}},
    {"partition": {"classes_per_client": 6}},
    {"active_clients": 1},
    {"active_clients": 10},
    {"rounds": 1},
    {"local_epochs": 1},
    {"batch_size": 1},
    {"momentum": 0},
    {"weight_decay": 0},
    {"alpha": 0},
    {"alpha": 1},
    {"mu": -1},
    {"lambda": 0},
    {"lambda": 1},
    {"syn_per_client": 1},
    {"syn_steps": 1},
    {"syn_interval": 1},
    {"seed": 0},
]


class TestMessages:
    @pytest.mark.parametrize("raw, message", SINGLE_FAULTS, ids=[message for _, message in SINGLE_FAULTS])
    def test_single_fault_fails_with_its_message(self, raw, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw", ON_THE_BOUND, ids=[json.dumps(raw) for raw in ON_THE_BOUND])
    def test_config_on_the_bound_is_accepted(self, raw):
        config_from_dict(raw)


class TestFieldTypes:
    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"rounds": "5"}, "rounds"),
            ({"rounds": 2.5}, "rounds"),
            ({"rounds": True}, "rounds"),
            ({"batch_size": None}, "batch_size"),
            ({"seed": 1.0}, "seed"),
            ({"active_clients": False}, "active_clients"),
            ({"dataset": {"classes": "6"}}, "dataset.classes"),
            ({"partition": {"clients": 4.0}}, "partition.clients"),
            ({"partition": {"classes_per_client": True}}, "partition.classes_per_client"),
        ],
    )
    def test_integer_fields_reject_other_types(self, raw, key):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"dataset": {"spread": float("inf")}}, "dataset.spread"),
            ({"learning_rate": float("nan")}, "learning_rate"),
            ({"weight_decay": float("inf")}, "weight_decay"),
            ({"alpha": True}, "alpha"),
            ({"mu": "0.5"}, "mu"),
            ({"lambda": None}, "lambda"),
            ({"partition": {"scheme": "dirichlet", "clients": 4, "concentration": "0.1"}}, "partition.concentration"),
        ],
    )
    def test_float_fields_must_be_finite_numbers(self, raw, key):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(raw)

    @pytest.mark.parametrize("value", ["relu", None, ["dense(16,6)", 3]])
    def test_architecture_must_be_list_of_strings(self, value):
        with pytest.raises(ConfigError, match="architecture must be a list"):
            config_from_dict({"architecture": value})

    @pytest.mark.parametrize("raw, key", [({"dataset": 5}, "dataset"), ({"out_dir": 3}, "out_dir")])
    def test_sections_and_paths_typed(self, raw, key):
        with pytest.raises(ConfigError, match=key):
            config_from_dict(raw)

    def test_integers_accepted_for_float_fields(self):
        cfg = config_from_dict({"momentum": 0, "dataset": {"spread": 1}})
        assert cfg.momentum == 0 and cfg.dataset.spread == 1


class TestRoundTrip:
    def test_parse_serialize_identity(self):
        cfg = config_from_dict(
            {
                "algorithm": "fmds_fl",
                "dataset": {"classes": 4, "dim": 8, "per_class": 50, "spread": 0.3},
                "partition": {"scheme": "dirichlet", "clients": 5, "concentration": 0.05},
                "rounds": 12,
                "seed": 77,
            }
        )
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_serialized_uses_lambda_key(self):
        raw = config_to_dict(config_from_dict({}))
        assert "lambda" in raw
        assert "lam" not in raw


class TestParseConfig:
    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"rounds": 5}))
        assert parse_config(path).rounds == 5
        assert parse_config(str(path)).rounds == 5

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{rounds: 5")
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            parse_config(path)


class TestSeedDerivation:
    def test_stable_and_label_sensitive(self):
        assert derive_seed(1, "dataset") == derive_seed(1, "dataset")
        assert derive_seed(1, "dataset") != derive_seed(1, "partition")
        assert derive_seed(1, "dataset") != derive_seed(2, "dataset")

    def test_master_change_moves_every_stream(self):
        labels = ["dataset", "partition", "model-init", "server", "client/0"]
        a = {label: derive_seed(10, label) for label in labels}
        b = {label: derive_seed(11, label) for label in labels}
        assert all(a[label] != b[label] for label in labels)

    def test_out_dir_does_not_affect_seeds(self):
        a = validate_config(ExperimentConfig(out_dir="runs/a"))
        b = validate_config(ExperimentConfig(out_dir="runs/b"))
        assert derive_seed(a.seed, "dataset") == derive_seed(b.seed, "dataset")


TINY_DATASET = {"classes": 2, "dim": 2, "per_class": 2}
MORE_CLIENTS_THAN_ROWS = [
    {"dataset": TINY_DATASET, "partition": {"scheme": "dirichlet", "clients": 10, "concentration": 1.0}},
    {"dataset": TINY_DATASET, "partition": {"scheme": "label_skew", "clients": 10, "classes_per_client": 1}},
    {"partition": {"clients": 1000000000000}},
]


class TestClientBound:
    """Every config that validation accepts can be partitioned."""

    @pytest.mark.parametrize("raw", MORE_CLIENTS_THAN_ROWS, ids=["dirichlet", "label_skew", "huge"])
    def test_more_clients_than_training_rows_rejected(self, raw):
        with pytest.raises(ConfigError, match="partition.clients must not exceed"):
            config_from_dict(raw)

    @pytest.mark.parametrize("scheme", [{"scheme": "dirichlet", "concentration": 0.01}, {"classes_per_client": 1}])
    def test_one_row_per_client_builds(self, scheme):
        cfg = config_from_dict({"dataset": TINY_DATASET, "partition": {"clients": 4, **scheme}})
        state, _ = build_state(cfg)
        assert [len(client.shard) for client in state.clients] == [1, 1, 1, 1]

    def test_spread_that_overflows_names_the_key(self):
        cfg = config_from_dict({"dataset": {"spread": 1e308}})
        with pytest.raises(ConfigError, match="dataset.spread"):
            build_state(cfg)


OVERSIZED = {
    "inputs": (
        {"dataset": {"per_class": 10**12}, "partition": {"clients": 10**12}},
        "dataset.classes * dataset.per_class * dataset.dim must be at most 100000000",
    ),
    "dim": ({"dataset": {"dim": 10**8}}, "dataset.classes * dataset.per_class * dataset.dim"),
    "parameters": (
        {"dataset": {"dim": 1000}, "architecture": ["dense(1000,10000)", "relu", "dense(10000,6)"]},
        "architecture has 10070006 parameters",
    ),
    "clients": (
        {"dataset": {"classes": 2, "dim": 2, "per_class": 100000}, "partition": {"clients": 100001}},
        "partition.clients must be at most 100000",
    ),
}


class TestSizeBounds:
    """Oversized configs fail validation naming the key; none of them is ever built."""

    @pytest.mark.parametrize("raw, message", OVERSIZED.values(), ids=list(OVERSIZED))
    def test_oversized_config_names_key(self, raw, message):
        with pytest.raises(ConfigError, match=message.replace("*", r"\*")):
            config_from_dict(raw)

    def test_configs_at_the_bounds_validate(self):
        at_inputs = config_from_dict({"dataset": {"classes": 2, "per_class": 5 * 10**6, "dim": 10}})
        assert at_inputs.dataset.per_class == 5 * 10**6
        at_clients = config_from_dict({"dataset": {"classes": 2, "per_class": 10**5}, "partition": {"clients": 10**5}})
        assert at_clients.partition.clients == 10**5
        # 992 * 10000 + 10000 + 10000 * 6 + 6 = 9,990,006 parameters, just under the bound
        at_params = config_from_dict(
            {"dataset": {"dim": 992}, "architecture": ["dense(992,10000)", "relu", "dense(10000,6)"]}
        )
        assert at_params.dataset.dim == 992
