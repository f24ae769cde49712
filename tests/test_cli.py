import contextlib
import json
import multiprocessing
import os
import shutil
import signal
import struct
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from ecgkit import __version__, cli
from ecgkit import tensor as tk
from ecgkit.beats import BeatDataset, read_beats_csv, write_beats_csv
from ecgkit.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from ecgkit.cli import run
from ecgkit.config import RunManifest
from ecgkit.ensemble import write_logits_csv
from ecgkit.errors import NumericalError, ShapeError
from ecgkit.gan import GanTrainConfig
from ecgkit.gradcam import grad_cam
from ecgkit.metrics import MIN_BOOTSTRAP_SAMPLES
from ecgkit.models import (ARCHITECTURES, MIN_INPUT_LEN, Model,
                           ModelDescriptor, build)
from ecgkit.wfdb_io import MNEMONIC_TO_CODE, AnnotationEvent, write_record

from helpers import toy_two_class, write_splitless_csv

BEAT_LEN = 32


def make_records_dir(directory, n_normal=48, n_ectopic=48, spacing=64):
    """Two synthetic records whose annotated beats split evenly by class."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(9)
    half_n, half_v = n_normal // 2, n_ectopic // 2
    for name, counts in (("r01", (half_n, half_v)),
                         ("r02", (n_normal - half_n, n_ectopic - half_v))):
        events = []
        position = spacing
        for mnemonic, count in zip("NV", counts):
            code = MNEMONIC_TO_CODE[mnemonic]
            for _ in range(count):
                events.append(AnnotationEvent(position, code, mnemonic))
                position += spacing
        signal = rng.integers(-800, 800, size=position + spacing)
        write_record(directory, name, [signal], leads=["MLII"],
                     annotations=events)
    return directory


def write_toy_csv(path, n_per_class=60, length=BEAT_LEN, seed=0,
                  train_fraction=0.75, include_split=True):
    dataset = toy_two_class(n_per_class=n_per_class, length=length,
                            seed=seed, train_fraction=train_fraction)
    writer = write_beats_csv if include_split else write_splitless_csv
    return writer(path, dataset)


def write_train_config(path, beats_csv, out_dir, epochs=2, batch_size=16,
                       extra=None):
    payload = {"beats_csv": str(beats_csv), "out_dir": str(out_dir),
               "beat_len": BEAT_LEN}
    for arch in ("cnn", "cnn_lstm", "cnn_lstm_attn", "resnet1d"):
        payload[arch] = {"epochs": epochs, "batch_size": batch_size,
                         "lr": 0.01}
    payload.update(extra or {})
    path.write_text(json.dumps(payload))
    return path


def config_flag(directory, **keys):
    """--config naming a file of keys, cfg.json in directory."""
    path = directory / "cfg.json"
    path.write_text(json.dumps(keys))
    return ["--config", str(path)]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Beats file, config, and four trained checkpoints, built once."""
    root = tmp_path_factory.mktemp("cliws")
    beats = write_toy_csv(root / "beats.csv")
    config = write_train_config(root / "cfg.json", beats, root / "out")
    assert run(["train", "--arch", "all", "--config", str(config)]) == 0
    return {"root": root, "beats": beats, "config": config,
            "out": root / "out"}


class TestDispatch:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_config_flag_is_usage_error(self, capsys):
        assert run(["train", "--arch", "cnn"]) == 2
        capsys.readouterr()

    def test_unknown_arch_is_usage_error(self, capsys):
        assert run(["train", "--arch", "mlp", "--config", "x.json"]) == 2
        capsys.readouterr()

    def test_version_exits_cleanly(self, capsys):
        assert run(["--version"]) == 0
        assert "ecgkit" in capsys.readouterr().out

    def test_help_exits_cleanly(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"bacth_size": 12}')
        assert run(["train", "--arch", "cnn", "--config", str(config)]) == 3
        assert "bacth_size" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["train", "--arch", "cnn"],
                                         ["reproduce"]])
    def test_config_not_utf8_is_config_error(self, tmp_path, capsys,
                                             command):
        config = tmp_path / "cfg.json"
        config.write_bytes('{"seed": 3, "lead": "é"}'.encode("latin-1"))
        assert run(command + ["--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert "config error" in err and str(config) in err

    def test_data_error_exit_code(self, tmp_path, capsys):
        beats = tmp_path / "beats.csv"
        beats.write_text("not,a,beat,file\n1,2,3,4\n")
        assert run(["augment", "--in", str(beats),
                    "--out", str(tmp_path / "o.csv")]) == 4
        assert "ParseError" in capsys.readouterr().err

    def test_missing_checkpoint_is_data_error(self, tmp_path, capsys):
        beats = write_toy_csv(tmp_path / "b.csv", n_per_class=4)
        assert run(["evaluate", "--checkpoint", str(tmp_path / "no.ckpt"),
                    "--test", str(beats),
                    "--out", str(tmp_path / "rep")]) == 4
        capsys.readouterr()

    @staticmethod
    def assert_one_line_data_error(code, capsys):
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("ecgkit: ") and err.count("\n") == 1

    def test_missing_augment_input_is_data_error(self, tmp_path, capsys):
        code = run(["augment", "--in", str(tmp_path / "missing.csv"),
                    "--out", str(tmp_path / "o.csv")])
        self.assert_one_line_data_error(code, capsys)

    def test_missing_train_beats_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"out_dir": str(tmp_path / "out")}))
        code = run(["train", "--arch", "cnn", "--config", str(config),
                    "--beats", str(tmp_path / "missing.csv")])
        self.assert_one_line_data_error(code, capsys)

    def test_ingest_missing_signal_file_is_data_error(self, tmp_path, capsys):
        records = make_records_dir(tmp_path / "records")
        (records / "r01.dat").unlink()
        code = run(["ingest", "--records-dir", str(records),
                    "--out", str(tmp_path / "beats.csv")])
        self.assert_one_line_data_error(code, capsys)

    def test_header_only_beat_file_is_data_error(self, tmp_path, capsys):
        full = imbalanced_csv(tmp_path / "full.csv")
        header = full.read_text().splitlines()[0]
        beats = tmp_path / "header_only.csv"
        beats.write_text(header + "\n")
        code = run(["augment", "--in", str(beats),
                    "--out", str(tmp_path / "o.csv")])
        self.assert_one_line_data_error(code, capsys)

    def test_out_of_range_label_is_data_error(self, tmp_path, capsys):
        beats = tmp_path / "bad_label.csv"
        beats.write_text("s0,label\n0.5,1\n0.5,7\n")
        code = run(["augment", "--in", str(beats),
                    "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("ecgkit: ParseError: line 3: ")
        assert str(beats) in err and err.count("\n") == 1

    def test_module_entry_point(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "ecgkit", "--version"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0
        assert done.stdout == f"ecgkit {__version__}\n"
        assert "RuntimeWarning" not in done.stderr

    def test_ingest_out_directory_is_data_error(self, tmp_path, capsys):
        records = make_records_dir(tmp_path / "records")
        code = run(["ingest", "--records-dir", str(records),
                    *config_flag(tmp_path, beat_len=BEAT_LEN),
                    "--out", str(tmp_path)])
        self.assert_one_line_data_error(code, capsys)

    def test_unwritable_beat_file_is_io_error_naming_it(self, tmp_path,
                                                        capsys):
        records = make_records_dir(tmp_path / "records")
        out = tmp_path / "beats.csv"
        out.mkdir()
        code = run(["ingest", "--records-dir", str(records),
                    *config_flag(tmp_path, beat_len=BEAT_LEN),
                    "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith(f"ecgkit: IoError: cannot write {out}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "beats.csv", "cfg.json", "records"]

    def test_out_under_a_file_is_io_error_before_the_stage(self, tmp_path,
                                                            capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        manifest = blocker / "report" / "run.manifest.json"
        code = run(["evaluate", "--checkpoint", str(tmp_path / "no.ckpt"),
                    "--test", str(tmp_path / "no.csv"),
                    "--out", str(blocker / "report")])
        assert code == 4
        assert capsys.readouterr().err.startswith(
            f"ecgkit: IoError: cannot remove {manifest}: ")


class TestIngest:
    def test_end_to_end(self, tmp_path):
        records = make_records_dir(tmp_path / "records")
        out = tmp_path / "beats.csv"
        code = run(["ingest", "--records-dir", str(records), "--lead", "MLII",
                    *config_flag(tmp_path, beat_len=BEAT_LEN),
                    "--out", str(out), "--seed", "17"])
        assert code == 0
        dataset = read_beats_csv(out)
        assert len(dataset) > 80
        assert dataset.X.shape[1] == BEAT_LEN
        tags = set(dataset.split)
        assert tags == {"train", "val"}

    def test_manifest_written(self, tmp_path):
        records = make_records_dir(tmp_path / "records")
        out = tmp_path / "beats.csv"
        run(["ingest", "--records-dir", str(records), "--out", str(out),
             *config_flag(tmp_path, beat_len=BEAT_LEN)])
        manifest = RunManifest.load(tmp_path / "beats.manifest.json")
        assert manifest.command.startswith("ecgkit ingest")
        assert manifest.files == [str(out)]
        assert len(manifest.config_hash) == 64
        assert manifest.version

    def test_deterministic_across_runs(self, tmp_path):
        records = make_records_dir(tmp_path / "records")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        config = config_flag(tmp_path, beat_len=BEAT_LEN)
        run(["ingest", "--records-dir", str(records), "--out", str(a),
             *config, "--seed", "3"])
        run(["ingest", "--records-dir", str(records), "--out", str(b),
             *config, "--seed", "3"])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fraction", ["1.5", "0", "1", "-0.2", "NaN"])
    def test_bad_train_fraction_is_config_error_before_reading(
            self, tmp_path, capsys, fraction):
        # the records directory does not exist: a stage that read it would
        # exit 4 with an IoError
        config = tmp_path / "cfg.json"
        config.write_text(f'{{"train_fraction": {fraction}}}')
        out = tmp_path / "beats.csv"
        assert run(["ingest", "--records-dir", str(tmp_path / "absent"),
                    "--config", str(config), "--out", str(out)]) == 3
        assert "config error: " + (
            "config key 'train_fraction' must be a finite number"
            if fraction == "NaN" else "train fraction must lie in (0, 1)") \
            in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("beat_len", [3, 7])
    def test_beat_len_below_model_minimum_is_config_error_before_reading(
            self, tmp_path, capsys, beat_len):
        # segment_beats takes 3..7, but no model accepts such beats
        out = tmp_path / "beats.csv"
        assert run(["ingest", "--records-dir", str(tmp_path / "absent"),
                    *config_flag(tmp_path, beat_len=beat_len),
                    "--out", str(out)]) == 3
        assert f"config error: beat length must be >= {MIN_INPUT_LEN}, " \
            f"got {beat_len}" in capsys.readouterr().err
        assert not out.exists()

    def test_no_records_anywhere_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "beats.csv"
        assert run(["ingest", "--out", str(out)]) == 3
        assert "ingest needs records" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_directory_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "records"
        empty.mkdir()
        assert run(["ingest", "--records-dir", str(empty),
                    "--out", str(tmp_path / "x.csv")]) == 4
        capsys.readouterr()


def imbalanced_csv(path, n_majority=48, n_minority=36, length=16, seed=4):
    from helpers import beat_set, pulse_beat
    rng = np.random.default_rng(seed)
    rows, labels, splits = [], [], []
    for label, count, center in ((0, n_majority, length // 4),
                                 (1, n_minority, 3 * length // 4)):
        for _ in range(count):
            rows.append(pulse_beat(rng, length, center))
            labels.append(label)
            splits.append("train")
    for label in (0, 1):
        rows.append(pulse_beat(rng, length, length // 2))
        labels.append(label)
        splits.append("val")
    write_beats_csv(path, beat_set(rows, labels, split=splits,
                                   source="r01:0"))
    return path


def one_epoch_gan(directory):
    """--config for a one-epoch GAN that accepts every candidate."""
    return config_flag(directory, gan={"tau": 0.0, "epochs": 1})


class TestAugment:
    def test_balances_and_tags_sources(self, tmp_path):
        src = imbalanced_csv(tmp_path / "in.csv")
        out = tmp_path / "aug.csv"
        code = run(["augment", "--in", str(src), *one_epoch_gan(tmp_path),
                    "--out", str(out), "--seed", "3"])
        assert code == 0
        dataset = read_beats_csv(out)
        counts = dataset.counts_for_split("train")
        assert counts[0] == counts[1] == 48
        sources = set(dataset.source)
        assert sources == {"real", "synthetic"}
        synthetic = dataset.source == "synthetic"
        assert synthetic.sum() == 12
        assert all(tag == "train" for tag in dataset.split[synthetic])

    def test_summary_and_manifest(self, tmp_path):
        src = imbalanced_csv(tmp_path / "in.csv")
        out = tmp_path / "aug.csv"
        run(["augment", "--in", str(src), *one_epoch_gan(tmp_path),
             "--out", str(out)])
        summary = json.loads((tmp_path / "aug.summary.json").read_text())
        assert summary["before"]["N"]["count"] == 48
        assert summary["before"]["A"]["count"] == 36
        assert summary["after"]["A"]["count"] == 48
        manifest = RunManifest.load(tmp_path / "aug.manifest.json")
        assert sorted(manifest.files) == [str(out),
                                          str(tmp_path / "aug.summary.json")]

    def test_balanced_input_skips_synthesis(self, tmp_path):
        src = imbalanced_csv(tmp_path / "in.csv", n_majority=40,
                             n_minority=40)
        out = tmp_path / "aug.csv"
        assert run(["augment", "--in", str(src), "--out", str(out)]) == 0
        dataset = read_beats_csv(out)
        assert all(source == "real" for source in dataset.source)
        assert len(dataset) == 82

    def test_deterministic(self, tmp_path):
        src = imbalanced_csv(tmp_path / "in.csv")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["augment", "--in", str(src), *one_epoch_gan(tmp_path),
                 "--out", str(out), "--seed", "11"])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_ratio_is_config_error(self, tmp_path, capsys):
        src = imbalanced_csv(tmp_path / "in.csv")
        assert run(["augment", "--in", str(src),
                    *config_flag(tmp_path, gan={"balance_ratio": 0}),
                    "--out", str(tmp_path / "o.csv")]) == 3
        capsys.readouterr()

    def test_bad_tau_is_config_error(self, tmp_path, capsys):
        src = imbalanced_csv(tmp_path / "in.csv")
        assert run(["augment", "--in", str(src),
                    *config_flag(tmp_path, gan={"tau": 1.5}),
                    "--out", str(tmp_path / "o.csv")]) == 3
        capsys.readouterr()

    def test_short_beats_are_config_error_before_any_gan(self, tmp_path,
                                                        monkeypatch, capsys):
        def gan_train(*args):
            raise AssertionError("a GAN trained on beats no model takes")

        monkeypatch.setattr(cli, "gan_train", gan_train)
        src = imbalanced_csv(tmp_path / "in.csv", length=5)
        assert run(["augment", "--in", str(src), *one_epoch_gan(tmp_path),
                    "--out", str(tmp_path / "aug.csv")]) == 3
        assert "5 samples long" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json",
                                                               "in.csv"]

    def test_gan_section_reaches_gan_train(self, tmp_path, monkeypatch):
        seen = []
        real_gan_train = cli.gan_train

        def recording_train(beats, label, config, seed):
            result = real_gan_train(beats, label, config, seed=seed)
            seen.append((config, result[0].beat_len))
            return result

        monkeypatch.setattr(cli, "gan_train", recording_train)
        src = imbalanced_csv(tmp_path / "in.csv")
        gan = {"tau": 0.0, "balance_ratio": 0.9, "epochs": 1,
               "batch_size": 8, "hidden": 8, "dense_width": 16}
        assert run(["augment", "--in", str(src),
                    *config_flag(tmp_path, gan=gan),
                    "--out", str(tmp_path / "o.csv")]) == 0
        assert len(seen) == 1
        config, beat_len = seen[0]
        assert config == GanTrainConfig(**gan)
        assert beat_len == 16

    def test_scarce_minority_is_config_error(self, tmp_path, capsys):
        src = imbalanced_csv(tmp_path / "in.csv", n_minority=20)
        assert run(["augment", "--in", str(src), *one_epoch_gan(tmp_path),
                    "--out", str(tmp_path / "o.csv")]) == 3
        assert "32" in capsys.readouterr().err


class TestMasterSeed:
    """--seed is the master seed on every command, as in reproduce."""

    @pytest.mark.parametrize("command", ["ingest", "augment"])
    def test_negative_seed_is_its_64_bit_twin(self, tmp_path, command):
        # derive_seed reads the master seed modulo 2**64
        if command == "ingest":
            source = make_records_dir(tmp_path / "records")
            argv = ["ingest", "--records-dir", str(source),
                    *config_flag(tmp_path, beat_len=BEAT_LEN)]
        else:
            source = imbalanced_csv(tmp_path / "in.csv")
            argv = ["augment", "--in", str(source), *one_epoch_gan(tmp_path)]
        written = []
        for seed in ("-1", str(2**64 - 1)):
            out = tmp_path / seed
            assert run(argv + ["--seed", seed,
                               "--out", str(out / "beats.csv")]) == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()
                            if not p.name.endswith("manifest.json")})
        assert "beats.csv" in written[0]
        assert written[0] == written[1]

    def test_arch_seed_key_is_refused(self, tmp_path, capsys):
        beats = write_toy_csv(tmp_path / "beats.csv", n_per_class=20)
        config = write_train_config(tmp_path / "cfg.json", beats,
                                    tmp_path / "out",
                                    extra={"cnn": {"seed": 1}})
        assert run(["train", "--arch", "cnn", "--config", str(config)]) == 3
        assert "unknown config key 'seed' in section 'cnn'" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_shuffle_follows_master_seed_and_arch(self, tmp_path,
                                                  monkeypatch):
        # each training's first batch, logged to a file: the trainings may
        # run in worker processes
        real_forward = Model.forward

        def logged_forward(model, x, training=False, rng=None):
            if training:
                with open(tmp_path / "batches.log", "a") as handle:
                    handle.write(f"{model.descriptor.arch} "
                                 f"{x.data.tobytes().hex()}\n")
            return real_forward(model, x, training=training, rng=rng)

        monkeypatch.setattr(Model, "forward", logged_forward)
        beats = write_toy_csv(tmp_path / "beats.csv", n_per_class=10)
        first = []
        for seed in (1, 2):
            (tmp_path / "batches.log").write_text("")
            config = write_train_config(tmp_path / f"cfg{seed}.json", beats,
                                        tmp_path / f"out{seed}", epochs=1,
                                        batch_size=8, extra={"seed": seed})
            assert run(["train", "--arch", "all",
                        "--config", str(config)]) == 0
            batches = {}
            for line in (tmp_path / "batches.log").read_text().splitlines():
                arch, batch = line.split()
                batches.setdefault(arch, batch)
            assert sorted(batches) == sorted(ARCHITECTURES)
            # four architectures, four shuffle streams
            assert len(set(batches.values())) == len(ARCHITECTURES)
            first.append(batches)
        for arch in ARCHITECTURES:
            assert first[0][arch] != first[1][arch], arch


class TestTrain:
    def test_stage_artifacts(self, workspace):
        for arch in ("cnn", "cnn_lstm", "cnn_lstm_attn", "resnet1d"):
            stage = workspace["out"] / "train" / arch
            names = {p.name for p in stage.iterdir()}
            assert names == {"model.ckpt", "history.csv", "summary.json",
                             "run.manifest.json"}

    def test_summary_contents(self, workspace):
        stage = workspace["out"] / "train" / "cnn"
        summary = json.loads((stage / "summary.json").read_text())
        assert summary["arch"] == "cnn"
        assert 0.0 <= summary["val_macro_f1"] <= 1.0
        assert summary["epochs_run"] >= 1
        assert 1 <= summary["best_epoch"] <= summary["epochs_run"]
        assert Path(summary["checkpoint"]).exists()

    def test_history_row_count_matches_summary(self, workspace):
        stage = workspace["out"] / "train" / "cnn_lstm"
        summary = json.loads((stage / "summary.json").read_text())
        lines = (stage / "history.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == summary["epochs_run"]

    def test_checkpoint_restores_and_scores(self, workspace):
        model = load_checkpoint(workspace["out"] / "train" / "cnn"
                                / "model.ckpt")
        dataset = read_beats_csv(workspace["beats"])
        val = dataset.split == "val"
        X, y = dataset.X[val], dataset.y[val]
        accuracy = float((model.logits_array(X).argmax(axis=1) == y).mean())
        assert accuracy >= 0.9

    def test_manifest_covers_stage_files(self, workspace):
        stage = workspace["out"] / "train" / "resnet1d"
        manifest = RunManifest.load(stage / "run.manifest.json")
        expected = {str(stage / n)
                    for n in ("model.ckpt", "history.csv", "summary.json")}
        assert set(manifest.files) == expected

    def test_beats_flag_overrides_config(self, tmp_path):
        beats = write_toy_csv(tmp_path / "other.csv", n_per_class=20)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"out_dir": str(tmp_path / "out"),
             "cnn": {"epochs": 1, "batch_size": 8}}))
        code = run(["train", "--arch", "cnn", "--config", str(config),
                    "--beats", str(beats)])
        assert code == 0
        assert (tmp_path / "out" / "train" / "cnn" / "model.ckpt").exists()

    @pytest.mark.parametrize("override", ["train --beats", "ingest --seed",
                                          "ingest --lead", "augment --seed"])
    def test_override_flag_enters_config_hash(self, tmp_path, override):
        command, flag = override.split()
        config = config_flag(tmp_path, out_dir=str(tmp_path / "out"),
                             beat_len=BEAT_LEN,
                             gan={"tau": 0.0, "epochs": 1},
                             cnn={"epochs": 1, "batch_size": 8})
        if command == "train":
            argv = ["train", "--arch", "cnn"]
            manifest = tmp_path / "out" / "train" / "cnn" / \
                "run.manifest.json"
            values = [["--beats", str(write_toy_csv(
                tmp_path / f"beats{seed}.csv", n_per_class=20, seed=seed))]
                for seed in (0, 1)]
        else:
            argv = ["ingest", "--records-dir",
                    str(make_records_dir(tmp_path / "records"))] \
                if command == "ingest" else \
                ["augment", "--in", str(imbalanced_csv(tmp_path / "in.csv"))]
            argv += ["--out", str(tmp_path / "beats.csv")]
            manifest = tmp_path / "beats.manifest.json"
            # --lead MLII names the lead the config's null lead picks
            values = [[], ["--lead", "MLII"]] if flag == "--lead" else \
                [["--seed", "0"], ["--seed", "1"]]
        hashes = []
        for value in values:
            assert run(argv + config + value) == 0
            hashes.append(RunManifest.load(manifest).config_hash)
        assert hashes[0] != hashes[1]

    def test_no_beats_anywhere_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text("{}")
        assert run(["train", "--arch", "cnn", "--config", str(config)]) == 3
        assert "beats" in capsys.readouterr().err


class TestEvaluate:
    def test_report_layout(self, workspace, tmp_path):
        out = tmp_path / "report"
        checkpoint = workspace["out"] / "train" / "cnn" / "model.ckpt"
        code = run(["evaluate", "--checkpoint", str(checkpoint),
                    "--test", str(workspace["beats"]), "--split", "val",
                    "--gradcam", "2", "--resamples", "150",
                    "--out", str(out)])
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert {"metrics.json", "confusion.csv", "confusion_normalized.csv",
                "ci.csv", "gradcam_0.csv", "gradcam_1.csv",
                "run.manifest.json"} <= names
        assert "gradcam_2.csv" not in names
        assert any(n.startswith("roc_class_") for n in names)
        # each map explains its row's predicted class
        model = load_checkpoint(checkpoint)
        dataset = read_beats_csv(workspace["beats"])
        X_val = dataset.X[dataset.split == "val"]
        for index in (0, 1):
            path = out / f"gradcam_{index}.csv"
            assert path.read_text().splitlines()[0] == "position,value"
            rows = np.loadtxt(path, delimiter=",", skiprows=1)
            target = int(model.logits_array(X_val[index:index + 1]).argmax())
            expected = grad_cam(model, X_val[index], target)
            np.testing.assert_array_equal(rows[:, 1], expected.values)

    def test_gradcam_count_above_row_count_maps_every_row(self, workspace,
                                                          tmp_path):
        out = tmp_path / "report"
        assert run(["evaluate", "--checkpoint",
                    str(workspace["out"] / "train" / "cnn" / "model.ckpt"),
                    "--test", str(workspace["beats"]), "--split", "val",
                    "--gradcam", "9999", "--resamples", "150",
                    "--out", str(out)]) == 0
        dataset = read_beats_csv(workspace["beats"])
        n_val = int((dataset.split == "val").sum())
        maps = {p.name for p in out.glob("gradcam_*.csv")}
        assert maps == {f"gradcam_{i}.csv" for i in range(n_val)}

    def test_metrics_contents(self, workspace, tmp_path):
        out = tmp_path / "report"
        run(["evaluate",
             "--checkpoint",
             str(workspace["out"] / "train" / "cnn" / "model.ckpt"),
             "--test", str(workspace["beats"]), "--split", "val",
             "--resamples", "150", "--out", str(out)])
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert "ensemble" not in metrics
        ci_lines = (out / "ci.csv").read_text().strip().splitlines()
        assert len(ci_lines) == 3  # header + accuracy + macro_f1

    def test_two_runs_byte_identical(self, workspace, tmp_path):
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            run(["evaluate",
                 "--checkpoint",
                 str(workspace["out"] / "train" / "cnn" / "model.ckpt"),
                 "--test", str(workspace["beats"]), "--split", "val",
                 "--resamples", "150", "--out", str(out), "--seed", "5"])
        a = (outs[0] / "metrics.json").read_bytes()
        assert a == (outs[1] / "metrics.json").read_bytes()

    def test_missing_split_is_config_error(self, workspace, tmp_path,
                                           capsys):
        code = run(["evaluate",
                    "--checkpoint",
                    str(workspace["out"] / "train" / "cnn" / "model.ckpt"),
                    "--test", str(workspace["beats"]), "--split", "test",
                    "--out", str(tmp_path / "r")])
        assert code == 3
        assert "test" in capsys.readouterr().err

    @pytest.mark.parametrize("n_classes", [2, 7])
    def test_checkpoint_without_five_classes_is_shape_error(
            self, workspace, tmp_path, capsys, n_classes):
        checkpoint = save_checkpoint(
            tmp_path / "odd.ckpt",
            build(ModelDescriptor(arch="resnet1d", input_len=BEAT_LEN,
                                  n_classes=n_classes), seed=3))
        code = run(["evaluate", "--checkpoint", str(checkpoint),
                    "--test", str(workspace["beats"]), "--split", "val",
                    "--out", str(tmp_path / "r")])
        assert code == 4
        err = capsys.readouterr().err
        assert "ShapeError" in err and str(checkpoint) in err
        assert f"{n_classes} classes" in err

    @pytest.mark.parametrize("field, value", [
        ("attention_dim", 0), ("attention_dim", -1),
        ("blocks_per_stage", -1), ("lstm_dropout", 3.0),
        ("input_len", 8.5),
    ])
    def test_bad_descriptor_field_is_format_error(self, workspace, tmp_path,
                                                  capsys, field, value):
        raw = (workspace["out"] / "train" / "cnn_lstm_attn"
               / "model.ckpt").read_bytes()
        start = len(MAGIC) + 4
        (length,) = struct.unpack("<I", raw[len(MAGIC):start])
        header = json.loads(raw[start:start + length])
        header["descriptor"][field] = value
        block = json.dumps(header).encode()
        checkpoint = tmp_path / "edited.ckpt"
        checkpoint.write_bytes(raw[:len(MAGIC)] + struct.pack("<I", len(block))
                               + block + raw[start + length:])
        code = run(["evaluate", "--checkpoint", str(checkpoint),
                    "--test", str(workspace["beats"]), "--split", "val",
                    "--out", str(tmp_path / "r")])
        assert code == 4
        err = capsys.readouterr().err
        assert "FormatError" in err and field in err

    def test_manifest_lists_every_report_file(self, workspace, tmp_path):
        out = tmp_path / "report"
        run(["evaluate",
             "--checkpoint",
             str(workspace["out"] / "train" / "cnn" / "model.ckpt"),
             "--test", str(workspace["beats"]), "--split", "val",
             "--resamples", "150", "--out", str(out)])
        manifest = RunManifest.load(out / "run.manifest.json")
        on_disk = {str(p) for p in out.iterdir()
                   if p.name != "run.manifest.json"}
        assert set(manifest.files) == on_disk

    def test_failed_rerun_leaves_no_manifest(self, workspace, tmp_path,
                                             monkeypatch, capsys):
        out = tmp_path / "report"
        argv = ["evaluate", "--test", str(workspace["beats"]),
                "--split", "val", "--resamples", "150", "--out", str(out)]
        checkpoints = [workspace["out"] / "train" / arch / "model.ckpt"
                       for arch in ("cnn", "resnet1d")]
        assert run(argv + ["--checkpoint", str(checkpoints[0])]) == 0
        assert (out / "run.manifest.json").exists()
        real_render = cli.render_report

        def render_then_fail(*args, **kwargs):
            real_render(*args, **kwargs)
            raise NumericalError("failed after the report was written")

        monkeypatch.setattr(cli, "render_report", render_then_fail)
        assert run(argv + ["--checkpoint", str(checkpoints[1])]) == 4
        capsys.readouterr()
        assert (out / "metrics.json").exists()
        assert not (out / "run.manifest.json").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("evaluate", "--resamples", "5"), ("evaluate", "--resamples", "0"),
    ("evaluate", "--gradcam", "-1"), ("ensemble", "--resamples", "99"),
])
def test_bad_count_flag_is_config_error_before_the_stage(
        workspace, ensemble_inputs, tmp_path, capsys, command, flag, value):
    out = tmp_path / "report"
    if command == "evaluate":
        argv = ["evaluate", "--checkpoint",
                str(workspace["out"] / "train" / "cnn" / "model.ckpt"),
                "--test", str(workspace["beats"]), "--split", "val"]
    else:
        argv = ["ensemble", "--manifest", str(ensemble_inputs["manifest"]),
                "--test", str(ensemble_inputs["test"])]
    assert run(argv + [flag, value, "--out", str(out)]) == 3
    assert f"config error: {flag} must be >= " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "ensemble"])
def test_split_below_bootstrap_minimum_writes_no_ci(
        workspace, ensemble_inputs, tmp_path, command):
    # 28 scored rows, two short of MIN_BOOTSTRAP_SAMPLES: the stage
    # succeeds with the point metrics and skips the intervals
    rows = MIN_BOOTSTRAP_SAMPLES - 2
    out = tmp_path / "report"
    if command == "evaluate":
        beats = write_toy_csv(tmp_path / "small.csv", n_per_class=rows,
                              train_fraction=0.5)
        argv = ["evaluate", "--checkpoint",
                str(workspace["out"] / "train" / "cnn" / "model.ckpt"),
                "--test", str(beats), "--split", "val"]
    else:
        beats = write_toy_csv(tmp_path / "small.csv", n_per_class=rows // 2,
                              include_split=False)
        argv = ["ensemble", "--manifest", str(ensemble_inputs["manifest"]),
                "--test", str(beats)]
    assert run(argv + ["--out", str(out)]) == 0
    assert 0.0 <= json.loads((out / "metrics.json").read_text())[
        "accuracy"] <= 1.0
    confusion = (out / "confusion.csv").read_text().splitlines()[1:]
    assert sum(int(count) for line in confusion
               for count in line.split(",")[1:]) == rows
    assert not (out / "ci.csv").exists()
    manifest = RunManifest.load(out / "run.manifest.json")
    assert str(out / "metrics.json") in manifest.files
    assert not any(name.endswith("ci.csv") for name in manifest.files)


@pytest.fixture(scope="module")
def ensemble_inputs(workspace, tmp_path_factory):
    root = tmp_path_factory.mktemp("ens")
    entries = []
    for arch in ("cnn", "cnn_lstm", "cnn_lstm_attn", "resnet1d"):
        summary = json.loads((workspace["out"] / "train" / arch /
                              "summary.json").read_text())
        entries.append({"id": arch, "checkpoint": summary["checkpoint"],
                        "val_macro_f1": summary["val_macro_f1"]})
    manifest_path = root / "models.json"
    manifest_path.write_text(json.dumps({"models": entries}))
    test_csv = write_toy_csv(root / "test.csv", n_per_class=25, seed=77,
                             include_split=False)
    return {"manifest": manifest_path, "test": test_csv, "root": root}


class TestEnsemble:
    def test_fused_report(self, ensemble_inputs, tmp_path):
        out = tmp_path / "report"
        code = run(["ensemble", "--manifest",
                    str(ensemble_inputs["manifest"]),
                    "--test", str(ensemble_inputs["test"]),
                    "--resamples", "150", "--out", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        ensemble = metrics["ensemble"]
        assert len(ensemble["members"]) == 2
        assert ensemble["strategy"] == "top2_weighted"
        assert abs(sum(ensemble["weights"]) - 1.0) < 1e-9
        for arch in ("cnn", "cnn_lstm", "cnn_lstm_attn", "resnet1d"):
            assert (out / f"logits_{arch}.csv").exists()

    def test_logit_dumps_match_models(self, ensemble_inputs, workspace,
                                      tmp_path):
        out = tmp_path / "report"
        run(["ensemble", "--manifest", str(ensemble_inputs["manifest"]),
             "--test", str(ensemble_inputs["test"]),
             "--resamples", "150", "--out", str(out)])
        logits = np.loadtxt(out / "logits_cnn.csv", delimiter=",",
                            skiprows=1)[:, 1:]
        model = load_checkpoint(workspace["out"] / "train" / "cnn"
                                / "model.ckpt")
        X = read_beats_csv(ensemble_inputs["test"]).X
        np.testing.assert_array_equal(logits,
                                      model.logits_array(X).astype(np.float64))

    def test_manifest_not_utf8_is_data_error(self, ensemble_inputs,
                                             tmp_path, capsys):
        bad = tmp_path / "models.json"
        bad.write_bytes(b'{"models": ["\xff"]}')
        code = run(["ensemble", "--manifest", str(bad),
                    "--test", str(ensemble_inputs["test"]),
                    "--out", str(tmp_path / "r")])
        assert code == 4
        err = capsys.readouterr().err
        assert "ParseError" in err and str(bad) in err

    def test_single_member_manifest_fails(self, ensemble_inputs, tmp_path,
                                          capsys):
        single = tmp_path / "one.json"
        payload = json.loads(ensemble_inputs["manifest"].read_text())
        single.write_text(json.dumps({"models": payload["models"][:1]}))
        code = run(["ensemble", "--manifest", str(single),
                    "--test", str(ensemble_inputs["test"]),
                    "--out", str(tmp_path / "r")])
        assert code == 3
        assert "at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, key", [
        ({"models": 5}, "'models'"),
        ({"models": [{"id": "cnn", "checkpoint": "c.ckpt",
                      "val_macro_f1": "high"}]}, "'val_macro_f1'"),
        ({"models": [{"id": "cnn", "checkpoint": "c.ckpt",
                      "val_macro_f1": True}]}, "'val_macro_f1'"),
        ({"models": [{"id": "cnn", "checkpoint": None,
                      "val_macro_f1": 0.9}]}, "'checkpoint'"),
        ({"models": [{"id": "cnn", "checkpoint": 5,
                      "val_macro_f1": 0.9}]}, "'checkpoint'"),
        ({"models": [{"id": ["x"], "checkpoint": "c.ckpt",
                      "val_macro_f1": 0.9}]}, "'id'"),
    ])
    def test_malformed_manifest_is_config_error(self, ensemble_inputs,
                                                tmp_path, capsys, payload,
                                                key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        code = run(["ensemble", "--manifest", str(bad),
                    "--test", str(ensemble_inputs["test"]),
                    "--out", str(tmp_path / "r")])
        assert code == 3
        err = capsys.readouterr().err
        assert "config error" in err and key in err

    def test_mixed_class_counts_are_shape_error(self, workspace,
                                                ensemble_inputs, tmp_path,
                                                capsys):
        two_class = save_checkpoint(
            tmp_path / "two.ckpt",
            build(ModelDescriptor(arch="cnn", input_len=BEAT_LEN,
                                  n_classes=2), seed=3))
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps({"models": [
            {"id": "cnn", "val_macro_f1": 0.9, "checkpoint":
             str(workspace["out"] / "train" / "cnn" / "model.ckpt")},
            {"id": "two", "val_macro_f1": 0.8, "checkpoint": str(two_class)},
        ]}))
        code = run(["ensemble", "--manifest", str(mixed),
                    *config_flag(tmp_path, strategy="all_equal"),
                    "--test", str(ensemble_inputs["test"]),
                    "--out", str(tmp_path / "r")])
        assert code == 4
        assert "ShapeError" in capsys.readouterr().err

    def test_checkpoints_without_five_classes_are_shape_error(
            self, ensemble_inputs, tmp_path, capsys):
        models = []
        for seed in (3, 4):
            checkpoint = save_checkpoint(
                tmp_path / f"two{seed}.ckpt",
                build(ModelDescriptor(arch="cnn", input_len=BEAT_LEN,
                                      n_classes=2), seed=seed))
            models.append({"id": f"two{seed}", "val_macro_f1": 0.8,
                           "checkpoint": str(checkpoint)})
        manifest = tmp_path / "two.json"
        manifest.write_text(json.dumps({"models": models}))
        code = run(["ensemble", "--manifest", str(manifest),
                    *config_flag(tmp_path, strategy="all_equal"),
                    "--test", str(ensemble_inputs["test"]),
                    "--out", str(tmp_path / "r")])
        assert code == 4
        err = capsys.readouterr().err
        assert "ShapeError" in err and "2 classes" in err

    def test_checkpoints_relative_to_manifest(self, ensemble_inputs,
                                              tmp_path, monkeypatch):
        payload = json.loads(ensemble_inputs["manifest"].read_text())
        moved = tmp_path / "models"
        moved.mkdir()
        for entry in payload["models"]:
            name = f"{entry['id']}.ckpt"
            shutil.copyfile(entry["checkpoint"], moved / name)
            entry["checkpoint"] = name
        relative = moved / "models.json"
        relative.write_text(json.dumps(payload))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        reports = {}
        for label, manifest in (("absolute", ensemble_inputs["manifest"]),
                                ("relative", relative)):
            out = tmp_path / label
            assert run(["ensemble", "--manifest", str(manifest),
                        "--test", str(ensemble_inputs["test"]),
                        "--resamples", "150", "--out", str(out)]) == 0
            reports[label] = (out / "metrics.json").read_bytes()
        assert reports["relative"] == reports["absolute"]

    def test_working_directory_decoy_is_not_picked(self, ensemble_inputs,
                                                   tmp_path, monkeypatch):
        payload = json.loads(ensemble_inputs["manifest"].read_text())
        moved = tmp_path / "models"
        moved.mkdir()
        for entry in payload["models"]:
            name = f"{entry['id']}.ckpt"
            shutil.copyfile(entry["checkpoint"], moved / name)
            entry["checkpoint"] = name
        (moved / "models.json").write_text(json.dumps(payload))
        decoys = tmp_path / "decoys"
        decoys.mkdir()
        save_checkpoint(decoys / "cnn.ckpt",
                        build(ModelDescriptor("cnn", input_len=BEAT_LEN), 99))
        monkeypatch.chdir(decoys)
        logits = {}
        for label, manifest in (("absolute", ensemble_inputs["manifest"]),
                                ("relative", moved / "models.json")):
            out = tmp_path / label
            assert run(["ensemble", "--manifest", str(manifest),
                        "--test", str(ensemble_inputs["test"]),
                        "--resamples", "150", "--out", str(out)]) == 0
            logits[label] = (out / "logits_cnn.csv").read_bytes()
        assert logits["relative"] == logits["absolute"]

    def test_unknown_strategy_is_config_error(self, ensemble_inputs,
                                              tmp_path, capsys):
        out = tmp_path / "r"
        assert run(["ensemble", "--manifest",
                    str(ensemble_inputs["manifest"]),
                    *config_flag(tmp_path, strategy="best_one"),
                    "--test", str(ensemble_inputs["test"]),
                    "--out", str(out)]) == 3
        assert "unknown strategy 'best_one'" in capsys.readouterr().err
        assert not out.exists()


def reproduce_config(tmp_path, records_dir, out_dir, **extra):
    payload = {"records_dir": str(records_dir), "out_dir": str(out_dir),
               "beat_len": BEAT_LEN, "seed": 21, "train_fraction": 0.8,
               "gan": {"epochs": 1, "hidden": 8, "dense_width": 16},
               "strategy": "top2_weighted"}
    for arch in ("cnn", "cnn_lstm", "cnn_lstm_attn", "resnet1d"):
        payload[arch] = {"epochs": 1, "batch_size": 8, "lr": 0.01}
    payload.update(extra)
    path = tmp_path / "repro.json"
    path.write_text(json.dumps(payload))
    return path


def logged_reproduce(config, log):
    """Run reproduce, logging to the file log one line per checkpoint load
    ("load <path> in <caller>") and per Model.logits_array call ("logits
    <rows> in <caller>"); a file, not a list, so the calls of forked
    workers are logged too.  Returns the logged lines."""
    log.write_text("")

    def logged(line, call):
        def wrapper(*args):
            caller = sys._getframe(1).f_code.co_name
            with open(log, "a") as handle:
                handle.write(f"{line(*args)} in {caller}\n")
            return call(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "load_checkpoint",
                      logged(lambda path: f"load {path}", load_checkpoint))
        patch.setattr(Model, "logits_array",
                      logged(lambda model, X: f"logits {len(X)}",
                             Model.logits_array))
        assert run(["reproduce", "--config", str(config)]) == 0
    return log.read_text().splitlines()


def val_row_count(out):
    """The val rows of a reproduce run's training set."""
    dataset = read_beats_csv(out / "augment" / "beats_aug.csv")
    return int((dataset.split == "val").sum())


@pytest.fixture(scope="module")
def reproduced(tmp_path_factory):
    """A records_dir reproduce run, logging network calls; the records are
    noise, and a val split of 38 rows gets confidence intervals."""
    root = tmp_path_factory.mktemp("repro")
    records = make_records_dir(root / "records")
    out = root / "out"
    config = reproduce_config(root, records, out, train_fraction=0.6)
    calls = logged_reproduce(config, root / "calls.log")
    return {"root": root, "out": out, "config": config, "calls": calls}


def mislabelled_csv(path, n_per_class, seed):
    """A beat file with no split column whose every fifth label is
    flipped, so a model that learned the pulses scores it imperfectly."""
    dataset = toy_two_class(n_per_class=n_per_class, length=BEAT_LEN,
                            seed=seed)
    dataset.y[::5] = 1 - dataset.y[::5]
    return write_splitless_csv(path, dataset)


@pytest.fixture(scope="module")
def reproduced_with_test_csv(tmp_path_factory):
    """A beats_csv + test_csv reproduce run, logging network calls; the 40
    test rows get confidence intervals."""
    root = tmp_path_factory.mktemp("repro_csv")
    beats = write_toy_csv(root / "beats.csv", n_per_class=30)
    test_csv = mislabelled_csv(root / "test.csv", n_per_class=20, seed=5)
    out = root / "out"
    config = reproduce_config(root, "unused", out, beats_csv=str(beats),
                              test_csv=str(test_csv))
    payload = json.loads(config.read_text())
    del payload["records_dir"]
    config.write_text(json.dumps(payload))
    calls = logged_reproduce(config, root / "calls.log")
    return {"out": out, "config": config, "payload": payload,
            "calls": calls}


def assert_imperfect(report):
    """The report scored its rows imperfectly, so its confidence intervals
    depend on its seed."""
    assert json.loads((report / "metrics.json").read_text())[
        "accuracy"] < 1.0


class TestReproduce:
    def test_stage_layout(self, reproduced):
        out = reproduced["out"]
        assert (out / "ingest" / "beats.csv").exists()
        assert (out / "augment" / "beats_aug.csv").exists()
        assert (out / "augment" / "beats_aug.summary.json").exists()
        for arch in ("cnn", "cnn_lstm", "cnn_lstm_attn", "resnet1d"):
            assert (out / "train" / arch / "model.ckpt").exists()
            assert (out / "evaluate" / arch / "metrics.json").exists()
        assert (out / "ensemble" / "models.json").exists()
        assert (out / "ensemble" / "report" / "metrics.json").exists()
        assert (out / "reproduce.manifest.json").exists()

    def test_rerun_is_byte_identical(self, reproduced):
        out = reproduced["out"]
        tracked = [out / "ensemble" / "report" / "metrics.json",
                   out / "evaluate" / "cnn" / "metrics.json",
                   out / "ingest" / "beats.csv"]
        before = {p: p.read_bytes() for p in tracked}
        assert run(["reproduce", "--config",
                    str(reproduced["config"])]) == 0
        for path, payload in before.items():
            assert path.read_bytes() == payload, path

    def test_every_file_in_exactly_one_manifest(self, reproduced):
        out = reproduced["out"]
        manifests = list(out.rglob("*.manifest.json"))
        listed = []
        for path in manifests:
            listed.extend(RunManifest.load(path).files)
        on_disk = {str(p) for p in out.rglob("*")
                   if p.is_file() and not p.name.endswith("manifest.json")}
        assert sorted(listed) == sorted(on_disk)
        assert len(set(listed)) == len(listed)

    def test_ensemble_weights_recorded(self, reproduced):
        metrics = json.loads((reproduced["out"] / "ensemble" / "report" /
                              "metrics.json").read_text())
        assert metrics["ensemble"]["strategy"] == "top2_weighted"
        assert len(metrics["ensemble"]["members"]) == 2

    def test_missing_inputs_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"out_dir": str(tmp_path / "o")}))
        assert run(["reproduce", "--config", str(config)]) == 3
        capsys.readouterr()

    def test_short_beats_fail_before_augment(self, tmp_path, capsys):
        records = make_records_dir(tmp_path / "records")
        out = tmp_path / "out"
        config = reproduce_config(tmp_path, records, out, beat_len=5)
        assert run(["reproduce", "--config", str(config)]) == 3
        assert "beat length must be >= 8" in capsys.readouterr().err
        assert not (out / "augment").exists()

    def test_short_beat_file_fails_before_augment(self, tmp_path, capsys):
        beats = write_toy_csv(tmp_path / "beats.csv", length=5)
        out = tmp_path / "out"
        config = reproduce_config(tmp_path, "unused", out,
                                  beats_csv=str(beats))
        payload = json.loads(config.read_text())
        del payload["records_dir"]
        config.write_text(json.dumps(payload))
        assert run(["reproduce", "--config", str(config)]) == 3
        assert "5 samples long" in capsys.readouterr().err
        assert not (out / "augment").exists()

    def test_beats_csv_and_test_csv_route(self, reproduced_with_test_csv):
        out = reproduced_with_test_csv["out"]
        assert not (out / "ingest").exists()
        report = json.loads((out / "ensemble" / "report" /
                             "metrics.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0

    @pytest.mark.parametrize("damage", ["removed", "header only"])
    def test_bad_test_csv_fails_before_augment(self, tmp_path, monkeypatch,
                                               capsys, damage):
        beats = write_toy_csv(tmp_path / "beats.csv", n_per_class=30)
        test_csv = write_toy_csv(tmp_path / "test.csv", n_per_class=10,
                                 seed=5, include_split=False)
        out = tmp_path / "out"
        config = reproduce_config(tmp_path, "unused", out,
                                  beats_csv=str(beats),
                                  test_csv=str(test_csv))
        payload = json.loads(config.read_text())
        del payload["records_dir"]
        config.write_text(json.dumps(payload))
        if damage == "header only":
            test_csv.write_text(test_csv.read_text().splitlines()[0] + "\n")
        else:  # gone after the config's own existence check
            real_load = cli.load_config

            def load_then_remove(path):
                loaded = real_load(path)
                test_csv.unlink()
                return loaded

            monkeypatch.setattr(cli, "load_config", load_then_remove)
        assert run(["reproduce", "--config", str(config)]) == 4
        error = {"removed": "FileNotFoundError", "header only": "ParseError"}
        assert capsys.readouterr().err.startswith(
            f"ecgkit: {error[damage]}: ")
        assert not (out / "augment").exists()


class TestStageManifests:
    def test_stamped_before_work_one_per_stage(self, tmp_path,
                                               monkeypatch):
        # a file, not a list: the trainings may run in worker processes
        log = tmp_path / "entered.txt"
        real_train = cli.train

        def stamped_train(model, *args, **kwargs):
            with open(log, "a") as handle:
                handle.write(f"{model.descriptor.arch} {RunManifest.now()}\n")
            return real_train(model, *args, **kwargs)

        monkeypatch.setattr(cli, "train", stamped_train)
        records = make_records_dir(tmp_path / "records")
        out = tmp_path / "out"
        config = reproduce_config(tmp_path, records, out)
        assert run(["reproduce", "--config", str(config)]) == 0

        manifests = {p.relative_to(out).as_posix(): RunManifest.load(p)
                     for p in out.rglob("*.manifest.json")}
        expected = {"reproduce.manifest.json", "ingest/beats.manifest.json",
                    "augment/beats_aug.manifest.json",
                    "ensemble/run.manifest.json"}
        expected |= {f"{stage}/{arch}/run.manifest.json"
                     for stage in ("train", "evaluate")
                     for arch in ARCHITECTURES}
        assert set(manifests) == expected

        def span(manifest):
            return (datetime.fromisoformat(manifest.started_at),
                    datetime.fromisoformat(manifest.finished_at))

        entered = [line.split() for line in log.read_text().splitlines()]
        assert sorted(arch for arch, _ in entered) == sorted(ARCHITECTURES)
        for arch, entered_at in entered:
            started, _ = span(manifests[f"train/{arch}/run.manifest.json"])
            assert started <= datetime.fromisoformat(entered_at), arch
        whole = manifests.pop("reproduce.manifest.json")
        assert whole.files == []
        run_start, run_end = span(whole)
        for name, manifest in manifests.items():
            started, finished = span(manifest)
            assert run_start <= started <= finished <= run_end, name


class TestReproduceEnsembleStage:
    def test_no_checkpoint_loads(self, reproduced_with_test_csv):
        # each training job scores the val beats once in its one epoch and
        # the test beats once before it returns; the ensemble stage fuses
        # what the jobs handed back
        payload = reproduced_with_test_csv["payload"]
        rows = len(read_beats_csv(payload["test_csv"]))
        val_rows = val_row_count(reproduced_with_test_csv["out"])
        assert sorted(reproduced_with_test_csv["calls"]) == sorted(
            [f"logits {rows} in _train_one_arch",
             f"logits {val_rows} in evaluate_split"] * len(ARCHITECTURES))

    def test_models_json_paths_are_relative_to_it(self,
                                                  reproduced_with_test_csv):
        out = reproduced_with_test_csv["out"]
        payload = json.loads((out / "ensemble" / "models.json").read_text())
        assert [m["checkpoint"] for m in payload["models"]] == [
            os.path.join("..", "train", arch, "model.ckpt")
            for arch in ARCHITECTURES]

    def test_ensemble_command_matches_reproduce(self,
                                                reproduced_with_test_csv,
                                                tmp_path):
        out = reproduced_with_test_csv["out"]
        again = tmp_path / "ensemble"
        assert run(["ensemble",
                    "--config", str(reproduced_with_test_csv["config"]),
                    "--manifest", str(out / "ensemble" / "models.json"),
                    "--test", reproduced_with_test_csv["payload"]["test_csv"],
                    "--out", str(again)]) == 0
        assert_imperfect(out / "ensemble" / "report")
        # reproduce keeps the logits in ensemble/ and the report one below
        staged = [*(out / "ensemble").glob("logits_*.csv"),
                  *(out / "ensemble" / "report").iterdir()]
        staged = {p.name: p.read_bytes() for p in staged}
        fresh = {p.name: p.read_bytes() for p in again.iterdir()
                 if p.name != "run.manifest.json"}
        assert len(fresh) > len(ARCHITECTURES)
        assert "ci.csv" in staged
        assert fresh == staged


class TestReproduceValRoute:
    def test_no_network_after_training(self, reproduced):
        # the val logits come from the trainings' own epoch passes, one
        # per epoch of each one-epoch training, and nothing scores again
        val_rows = val_row_count(reproduced["out"])
        assert reproduced["calls"] == \
            [f"logits {val_rows} in evaluate_split"] * len(ARCHITECTURES)

    def test_reports_match_evaluate_command(self, reproduced, tmp_path):
        out = reproduced["out"]
        beats = out / "augment" / "beats_aug.csv"
        dataset = read_beats_csv(beats)
        X_val = dataset.X[dataset.split == "val"]
        for arch in ARCHITECTURES:
            checkpoint = out / "train" / arch / "model.ckpt"
            again = tmp_path / arch
            assert run(["evaluate", "--config", str(reproduced["config"]),
                        "--checkpoint", str(checkpoint),
                        "--test", str(beats), "--split", "val",
                        "--out", str(again)]) == 0
            assert_imperfect(out / "evaluate" / arch)
            staged = {p.name: p.read_bytes()
                      for p in (out / "evaluate" / arch).iterdir()
                      if p.name != "run.manifest.json"}
            fresh = {p.name: p.read_bytes() for p in again.iterdir()
                     if p.name != "run.manifest.json"}
            assert len(fresh) > 1
            assert "ci.csv" in staged
            assert fresh == staged, arch
            dump = write_logits_csv(
                tmp_path / f"logits_{arch}.csv",
                load_checkpoint(checkpoint).logits_array(X_val))
            assert dump.read_bytes() == \
                (out / "ensemble" / f"logits_{arch}.csv").read_bytes(), arch


@pytest.fixture(scope="module")
def chained(tmp_path_factory):
    """reproduce, and the command chain ingest, augment, train --arch all
    and evaluate --split val, each run on the one config file, on its GAN
    widths and beat_len; reproduce's out_dir is moved aside before the
    chain writes its own there."""
    root = tmp_path_factory.mktemp("chain")
    # a val split of at least MIN_BOOTSTRAP_SAMPLES rows, so the reports
    # draw confidence intervals from their seeds
    records = make_records_dir(root / "records", n_normal=80, n_ectopic=56)
    out = root / "out"
    config = reproduce_config(root, records, out, train_fraction=0.6,
                              gan={"epochs": 1, "batch_size": 8, "tau": 0.0,
                                   "hidden": 8, "dense_width": 16})
    assert run(["reproduce", "--config", str(config)]) == 0
    out.rename(root / "reproduce")
    config = ["--config", str(config)]
    beats = out / "ingest" / "beats.csv"
    balanced = out / "augment" / "beats_aug.csv"
    assert run(["ingest", *config, "--out", str(beats)]) == 0
    assert run(["augment", *config, "--in", str(beats),
                "--out", str(balanced)]) == 0
    assert run(["train", "--arch", "all", *config,
                "--beats", str(balanced)]) == 0
    for arch in ARCHITECTURES:
        assert run(["evaluate", *config,
                    "--checkpoint", str(out / "train" / arch / "model.ckpt"),
                    "--test", str(balanced), "--split", "val",
                    "--out", str(out / "evaluate" / arch)]) == 0
    return {"reproduce": root / "reproduce", "chain": out, "config": config}


def stage_bytes(out):
    """Every file under out's ingest, augment, train and evaluate stages
    but the manifests, by relative path; summary.json without its
    checkpoint path."""
    files = {}
    for stage in ("ingest", "augment", "train", "evaluate"):
        for path in sorted((out / stage).rglob("*")):
            if not path.is_file() or path.name.endswith("manifest.json"):
                continue
            data = path.read_bytes()
            if path.name == "summary.json" and path.parent.parent.name == \
                    "train":
                summary = json.loads(data)
                del summary["checkpoint"]
                data = summary
            files[path.relative_to(out).as_posix()] = data
    return files


class TestCommandChain:
    def test_records_route_writes_reproduce_bytes(self, chained):
        reproduced = chained["reproduce"]
        staged = stage_bytes(reproduced)
        assert {"ingest/beats.csv", "augment/beats_aug.csv",
                "augment/beats_aug.summary.json"} <= set(staged)
        for arch in ARCHITECTURES:
            assert {f"train/{arch}/model.ckpt", f"train/{arch}/history.csv",
                    f"train/{arch}/summary.json",
                    f"evaluate/{arch}/ci.csv"} <= set(staged)
        # the augment stage synthesized beats, so synthesize's seed counts
        dataset = read_beats_csv(reproduced / "augment" / "beats_aug.csv")
        assert (dataset.source == "synthetic").any()
        assert (dataset.split == "val").sum() >= MIN_BOOTSTRAP_SAMPLES
        chained_files = stage_bytes(chained["chain"])
        assert sorted(chained_files) == sorted(staged)
        for name, data in staged.items():
            assert chained_files[name] == data, name
        # one config, one hash; train's --beats puts its beats_csv in it
        for name in ("ingest/beats.manifest.json",
                     "augment/beats_aug.manifest.json",
                     *(f"evaluate/{arch}/run.manifest.json"
                       for arch in ARCHITECTURES)):
            assert RunManifest.load(chained["chain"] / name).config_hash \
                == RunManifest.load(reproduced / name).config_hash, name

    def test_ensemble_command_writes_reproduce_bytes(self, chained,
                                                     tmp_path):
        # the val rows as a file with no split column, which ensemble
        # scores whole: the rows and labels reproduce's ensemble stage fused
        reproduced = chained["reproduce"]
        dataset = read_beats_csv(reproduced / "augment" / "beats_aug.csv")
        val = dataset.split == "val"
        held_out = write_splitless_csv(tmp_path / "val.csv", BeatDataset(
            dataset.X[val], dataset.y[val], dataset.split[val],
            dataset.source[val]))
        again = tmp_path / "ensemble"
        assert run(["ensemble", *chained["config"], "--manifest",
                    str(reproduced / "ensemble" / "models.json"),
                    "--test", str(held_out), "--out", str(again)]) == 0
        staged = {p.name: p.read_bytes() for p in
                  [*(reproduced / "ensemble").glob("logits_*.csv"),
                   *(reproduced / "ensemble" / "report").iterdir()]}
        fresh = {p.name: p.read_bytes() for p in again.iterdir()
                 if p.name != "run.manifest.json"}
        assert "ci.csv" in staged
        assert fresh == staged


def three_class_csv(path, counts=(80, 40, 40), seed=6):
    """A split beat file whose two minority classes each need a GAN."""
    from ecgkit.beats import stratified_split
    from helpers import beat_set, pulse_beat
    rng = np.random.default_rng(seed)
    labels = [label for label, count in enumerate(counts)
              for _ in range(count)]
    dataset = beat_set([pulse_beat(rng, BEAT_LEN, (2 * label + 1) * 5)
                        for label in labels], labels)
    stratified_split(dataset, 0.8, seed=seed)
    return write_beats_csv(path, dataset)


def fan_out_config(tmp_path, epochs=1):
    """A beats_csv reproduce config with two GANs and four trainings."""
    beats = three_class_csv(tmp_path / "beats.csv")
    config = reproduce_config(
        tmp_path, "unused", tmp_path / "out", beats_csv=str(beats),
        gan={"epochs": 1, "hidden": 8, "dense_width": 16, "batch_size": 8,
             "tau": 0.0})
    payload = json.loads(config.read_text())
    del payload["records_dir"]
    for arch in ARCHITECTURES:
        payload[arch]["epochs"] = epochs
    config.write_text(json.dumps(payload))
    return config


def force_workers(monkeypatch, count):
    monkeypatch.setattr(cli, "_worker_count",
                        lambda jobs: max(1, min(jobs, count)))


def process_alive(pid):
    """pid runs and is not a zombie, as /proc tells."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def child_pids(pid):
    """The processes whose parent is pid, as /proc tells."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry.name))
    return found


class TestFanOut:
    @pytest.mark.parametrize("env, cores, jobs, expected", [
        ({}, 2, 4, 1),
        ({}, 8, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 4, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3, 3),
        ({"OPENBLAS_NUM_THREADS": "2"}, 8, 4, 4),
        ({"OPENBLAS_NUM_THREADS": "3"}, 2, 4, 1),
        ({"OMP_NUM_THREADS": "1"}, 2, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 8, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "many"}, 2, 4, 1),
    ])
    def test_worker_count_rule(self, monkeypatch, env, cores, jobs,
                               expected):
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
        assert cli._worker_count(jobs) == expected

    def test_jobs_run_in_forked_workers_in_item_order(self, monkeypatch):
        force_workers(monkeypatch, 2)
        # a lambda cannot be pickled, so it reaches the workers by fork
        results = cli._map_jobs(lambda item: (item, os.getpid()), range(5))
        assert [item for item, _ in results] == list(range(5))
        assert os.getpid() not in {pid for _, pid in results}
        assert multiprocessing.active_children() == []

    def test_first_failure_in_item_order_is_raised(self, monkeypatch):
        force_workers(monkeypatch, 2)

        def job(item):
            if item == 1:
                time.sleep(0.3)
            if item in (1, 2):
                raise ShapeError(f"item {item}")
            return item

        with pytest.raises(ShapeError, match="item 1"):
            cli._map_jobs(job, range(6))
        assert multiprocessing.active_children() == []

    def test_two_workers_write_the_bytes_of_one(self, tmp_path, monkeypatch):
        config = fan_out_config(tmp_path)
        out = tmp_path / "out"
        outputs = {}
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            shutil.rmtree(out, ignore_errors=True)
            assert run(["reproduce", "--config", str(config)]) == 0
            outputs[workers] = {
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in out.rglob("*")
                if p.is_file() and not p.name.endswith(".manifest.json")}
        summary = json.loads(outputs[2]["augment/beats_aug.summary.json"])
        assert {name: counts["count"]
                for name, counts in summary["after"].items()} == \
            {"N": 64, "A": 64, "V": 64, "f": 0, "F": 0}  # two GANs ran
        assert sorted(outputs[1]) == sorted(outputs[2])
        for name, payload in outputs[1].items():
            assert outputs[2][name] == payload, name
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("stage, fails", [
        ("gan_train", lambda real, label, *_: label == 2),
        ("train", lambda model, *_: model.descriptor.arch == "cnn_lstm_attn"),
    ])
    def test_worker_failure_reads_as_in_process(self, tmp_path, monkeypatch,
                                                capsys, stage, fails):
        real = getattr(cli, stage)

        def failing(first, *args, **kwargs):
            if fails(first, *args):
                raise NumericalError("loss went non-finite")
            return real(first, *args, **kwargs)

        monkeypatch.setattr(cli, stage, failing)
        config = fan_out_config(tmp_path)
        seen = []
        for workers in (1, 2):
            force_workers(monkeypatch, workers)
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            code = run(["reproduce", "--config", str(config)])
            seen.append((code, capsys.readouterr().err))
            assert multiprocessing.active_children() == []
        assert seen[0] == seen[1]
        assert seen[0] == (4, "ecgkit: NumericalError: loss went "
                              "non-finite\n")

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="finds the workers through /proc")
    def test_killed_parent_leaves_no_worker(self, tmp_path):
        config = fan_out_config(tmp_path, epochs=40)
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        script = ("import sys\n"
                  "from ecgkit import cli\n"
                  "cli._worker_count = lambda jobs: min(jobs, 2)\n"
                  "sys.exit(cli.run(sys.argv[1:]))\n")
        proc = subprocess.Popen([sys.executable, "-c", script, "reproduce",
                                 "--config", str(config)], env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        workers = []
        try:
            deadline = time.monotonic() + 60
            while len(workers) < 2 and proc.poll() is None and \
                    time.monotonic() < deadline:
                time.sleep(0.05)
                workers = child_pids(proc.pid)
            assert len(workers) == 2, "the run never forked two workers"
            proc.kill()
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(map(process_alive, workers)) and \
                    time.monotonic() < deadline:
                time.sleep(0.1)
            assert not any(map(process_alive, workers))
        finally:
            proc.kill()
            proc.wait(timeout=10)
            # a failed run's orphans
            for pid in filter(process_alive, workers):
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)


def softmax_rows(logits):
    """Row softmax of a logit matrix, as the report path computes it."""
    with tk.no_grad():
        return tk.softmax(tk.Tensor(logits)).data


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(40, 5)) * 30
        probs = softmax_rows(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs >= 0).all()

    def test_shift_invariant_and_overflow_safe(self):
        logits = np.array([[1e4, 1e4 + 1.0, 1e4 - 2.0]])
        probs = softmax_rows(logits)
        expected = softmax_rows(np.array([[0.0, 1.0, -2.0]]))
        np.testing.assert_allclose(probs, expected, rtol=1e-12)
        assert np.isfinite(probs).all()
