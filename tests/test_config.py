import json

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

    def test_parse_inline_text(self):
        assert parse_config('{"rounds": 9}').rounds == 9

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{rounds: 5")
        with pytest.raises(ConfigError, match="malformed"):
            parse_config(path)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[1, 2]")


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
