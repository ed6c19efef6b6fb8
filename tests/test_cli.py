import json
from pathlib import Path

from conftest import small_config
from test_config import MORE_CLIENTS_THAN_ROWS

from fedsynth.cli import main
from fedsynth.config import config_to_dict
from fedsynth.runner import run_experiment

REPO_ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, **overrides):
    cfg = small_config(**overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return cfg, path


def strip_wall_clock(text):
    return ["," .join(line.split(",")[:-1]) for line in text.strip().split("\n")]


class TestValidateCommand:
    def test_shipped_default_config_validates(self):
        assert main(["validate", "--config", str(REPO_ROOT / "configs" / "default.json")]) == 0

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "none.json")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_value_names_key(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"alpha": 3.0}')
        assert main(["validate", "--config", str(path)]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_mistyped_value_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"rounds": "5"}')
        assert main(["validate", "--config", str(path)]) == 2
        assert "rounds must be an integer" in capsys.readouterr().err

    def test_more_clients_than_training_rows_names_key(self, tmp_path, capsys):
        for raw in MORE_CLIENTS_THAN_ROWS:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(raw))
            assert main(["validate", "--config", str(path)]) == 2
            assert "partition.clients" in capsys.readouterr().err


    def test_oversized_config_names_key(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dataset": {"per_class": 10**12}, "partition": {"clients": 10**12}}))
        assert main(["validate", "--config", str(path)]) == 2
        assert "dataset.per_class" in capsys.readouterr().err


class TestUsageErrors:
    def test_run_without_config_is_usage_error(self, capsys):
        assert main(["run"]) != 0

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["run", "--config", "x", "--frobnicate"]) != 0

    def test_unknown_command_is_usage_error(self):
        assert main(["bogus"]) != 0


class TestRunCommand:
    def test_run_writes_all_artifacts(self, tmp_path, capsys):
        cfg, path = write_config(tmp_path, out_dir=str(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert (out / "metrics.csv").is_file()
        assert (out / "manifest.json").is_file()
        assert (out / "features.csv").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["synthesis_rounds"] == [2, 4]
        for event_round in (2, 4):
            event_dir = out / f"synthesis_round_{event_round:04d}"
            assert sorted(p.name for p in event_dir.glob("client_*.json")) == [
                f"client_{k:02d}.json" for k in range(4)
            ]

    def test_seed_and_out_overrides(self, tmp_path):
        _, path = write_config(tmp_path, out_dir=str(tmp_path / "ignored"))
        override = tmp_path / "other"
        assert main(["run", "--config", str(path), "--seed", "21", "--out", str(override)]) == 0
        manifest = json.loads((override / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 21

    def test_repeat_runs_byte_identical_modulo_wall_clock(self, tmp_path):
        cfg, path = write_config(tmp_path, out_dir=str(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 0
        out = tmp_path / "out"
        first_metrics = strip_wall_clock((out / "metrics.csv").read_text())
        first_manifest = (out / "manifest.json").read_bytes()
        first_dumps = {
            str(p.relative_to(out)): p.read_bytes() for p in out.glob("synthesis_round_*/*")
        }
        assert main(["run", "--config", str(path)]) == 0
        assert strip_wall_clock((out / "metrics.csv").read_text()) == first_metrics
        assert (out / "manifest.json").read_bytes() == first_manifest
        for rel, blob in first_dumps.items():
            assert (out / rel).read_bytes() == blob

    def test_fedavg_leaves_synthetic_columns_empty(self, tmp_path):
        cfg, path = write_config(tmp_path, algorithm="fedavg", out_dir=str(tmp_path / "out"))
        assert main(["run", "--config", str(path)]) == 0
        lines = (tmp_path / "out" / "metrics.csv").read_text().strip().split("\n")
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[4] == "" and fields[5] == "" and fields[6] == ""

    def test_fmds_equals_zero_scale_hfmds_metrics(self, tmp_path):
        _, path_a = write_config(tmp_path, algorithm="fmds_fl", out_dir=str(tmp_path / "a"))
        cfg_b = small_config(algorithm="hfmds_fl", mu=0.0, out_dir=str(tmp_path / "b"))
        path_b = tmp_path / "config_b.json"
        path_b.write_text(json.dumps(config_to_dict(cfg_b)))
        assert main(["run", "--config", str(path_a)]) == 0
        assert main(["run", "--config", str(path_b)]) == 0
        a = strip_wall_clock((tmp_path / "a" / "metrics.csv").read_text())
        b = strip_wall_clock((tmp_path / "b" / "metrics.csv").read_text())
        assert a == b

    def test_overflowing_spread_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": {"spread": 1e308}, "out_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(path)]) == 2
        assert "dataset.spread" in capsys.readouterr().err


class TestSynthInspect:
    def test_summarizes_dump(self, tmp_path, capsys):
        cfg = small_config(rounds=2, syn_interval=2, out_dir=str(tmp_path / "out"))
        run_experiment(cfg)
        dump_dir = tmp_path / "out" / "synthesis_round_0002"
        assert main(["synth-inspect", "--dump", str(dump_dir)]) == 0
        overall = capsys.readouterr().out.strip().split("\n")[-1].split()
        assert overall[0] == "overall:"
        # the dumps and metrics.csv carry the same event's rows, read through two code paths
        header, _, row = (tmp_path / "out" / "metrics.csv").read_text().split("\n")[:3]
        metrics = dict(zip(header.split(","), row.split(",")))
        assert "mean_psnr=" + format(float(metrics["psnr"]), ".2f") in overall
        assert "mean_loss_drop=" + format(float(metrics["loss_drop"]), ".4f") in overall

    def test_identical_to_real_reports_cap(self, tmp_path, capsys):
        from fedsynth.data import make_blobs
        from fedsynth.synthesis import SynthesisEvent, SyntheticDataset, dump_synthetic_dataset, synthetic_rows

        shard, _ = make_blobs(3, 5, 10, 0.25, seed=1)
        samples = synthetic_rows(shard, range(5), shard.inputs[:5])
        event = SynthesisEvent(2, "", 4, [SyntheticDataset(samples)], 100.0, 0.0, 0.0)
        dump_synthetic_dataset(event, 0.5, 0.5, tmp_path / "dump")
        assert main(["synth-inspect", "--dump", str(tmp_path / "dump")]) == 0
        assert "100.0" in capsys.readouterr().out

    def test_empty_directory_fails(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["synth-inspect", "--dump", str(tmp_path / "empty")]) == 1
