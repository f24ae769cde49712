import json
import stat
from datetime import datetime

import pytest

from ecgkit import config as config_module
from ecgkit.config import (PipelineConfig, RunManifest, config_from_payload,
                           config_hash, derive_seed, load_config)
from ecgkit.errors import ConfigError, FormatError, IoError
from ecgkit.models import _DEFAULT_PLANS, ARCHITECTURES
from ecgkit.training import TABLE1


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        path.write_text(json.dumps(payload))
    return path


NULL = type(None)
# every accepted key and the JSON types it takes; the schema is derived from
# the settings dataclasses, so a changed field shows up here
TOP_LEVEL_SCHEMA = {
    "records_dir": (str, NULL),
    "beats_csv": (str, NULL),
    "test_csv": (str, NULL),
    "beat_len": (int,),
    "lead": (str, NULL),
    "seed": (int,),
    "train_fraction": (float, int),
    "out_dir": (str,),
    "strategy": (str,),
}
ARCH_SCHEMA = {
    "batch_size": (int,),
    "lr": (float, int),
    "epochs": (int,),
    "early_stop_patience": (int,),
    "weight_decay": (float, int),
    "focal_alpha": (float, int),
    "focal_gamma": (float, int),
}
GAN_SCHEMA = {
    "noise_dim": (int,),
    "epochs": (int,),
    "batch_size": (int,),
    "g_lr": (float, int),
    "d_lr": (float, int),
    "tau": (float, int),
    "hidden": (int,),
    "dense_width": (int,),
    "dropout": (float, int),
    "balance_ratio": (float, int),
}

FLOAT_KEYS = [
    f"{section}.{key}".lstrip(".")
    for section, types in [("", TOP_LEVEL_SCHEMA), ("gan", GAN_SCHEMA)]
    + [(arch, ARCH_SCHEMA) for arch in ARCHITECTURES]
    for key, allowed in types.items() if float in allowed]
# whole numbers the float keys accept; other keys take 1, and the one whose
# open range holds no whole number must report it as 1.0
WHOLE_VALUES = {"weight_decay": 0, "focal_gamma": 0, "dropout": 0}
NO_WHOLE_VALUE = {"train_fraction"}


class TestDefaults:
    def test_plain_construction(self):
        cfg = PipelineConfig()
        assert cfg.beat_len == 187
        assert cfg.seed == 17
        assert cfg.train_fraction == 0.85
        assert cfg.out_dir == "out"
        assert cfg.strategy == "top2_weighted"
        assert cfg.records_dir is None and cfg.beats_csv is None

    def test_all_archs_resolved(self):
        cfg = PipelineConfig()
        assert set(cfg.train_configs) == set(TABLE1)
        for arch, defaults in TABLE1.items():
            run = cfg.train_configs[arch]
            assert run.batch_size == defaults["batch_size"]
            assert run.lr == defaults["lr"]
            assert run.epochs == 50
            assert run.early_stop_patience == 8

    def test_per_arch_tables_cover_the_one_architecture_list(self):
        assert set(TABLE1) == set(ARCHITECTURES) == set(_DEFAULT_PLANS)
        cfg = PipelineConfig()
        assert tuple(cfg.train_configs) == ARCHITECTURES
        resolved = cfg.to_dict()
        assert tuple(k for k in resolved if k in TABLE1) == ARCHITECTURES

    def test_resolved_defaults_are_pinned(self):
        def arch(batch_size, lr):
            return {"batch_size": batch_size, "lr": lr, "epochs": 50,
                    "early_stop_patience": 8, "weight_decay": 0.0001,
                    "focal_alpha": 1.0, "focal_gamma": 2.0}

        assert PipelineConfig().to_dict() == {
            "records_dir": None, "beats_csv": None, "test_csv": None,
            "beat_len": 187, "lead": None, "seed": 17,
            "train_fraction": 0.85, "out_dir": "out",
            "strategy": "top2_weighted",
            "cnn": arch(128, 0.00115),
            "cnn_lstm": arch(96, 0.001),
            "cnn_lstm_attn": arch(96, 0.001),
            "resnet1d": arch(96, 0.00122),
            "gan": {"noise_dim": 1, "epochs": 200, "batch_size": 32,
                    "g_lr": 0.0002, "d_lr": 0.0002, "tau": 0.5,
                    "hidden": 32, "dense_width": 64, "dropout": 0.2,
                    "balance_ratio": 1.0}}

    def test_schema_is_pinned(self):
        assert config_module._TOP_SCHEMA == TOP_LEVEL_SCHEMA
        assert config_module._ARCH_SCHEMA == ARCH_SCHEMA
        assert config_module._GAN_SCHEMA == GAN_SCHEMA

    def test_empty_file_means_defaults(self, tmp_path):
        path = write_config(tmp_path, "")
        cfg = load_config(path)
        assert cfg.to_dict() == PipelineConfig().to_dict()

    def test_whitespace_file_means_defaults(self, tmp_path):
        path = write_config(tmp_path, "  \n\t\n")
        assert load_config(path).to_dict() == PipelineConfig().to_dict()

    def test_empty_object_means_defaults(self, tmp_path):
        path = write_config(tmp_path, {})
        assert load_config(path).to_dict() == PipelineConfig().to_dict()


class TestOverrides:
    def test_single_arch_field_override(self, tmp_path):
        path = write_config(tmp_path, {"cnn": {"lr": 0.00115}})
        cfg = load_config(path)
        assert cfg.train_configs["cnn"].lr == 0.00115
        assert cfg.train_configs["cnn"].batch_size == 128
        assert cfg.train_configs["cnn_lstm"].lr == TABLE1["cnn_lstm"]["lr"]

    def test_arch_focal_overrides(self, tmp_path):
        payload = {"resnet1d": {"focal_gamma": 1.5, "focal_alpha": 0.25,
                                "epochs": 3}}
        cfg = load_config(write_config(tmp_path, payload))
        run = cfg.train_configs["resnet1d"]
        assert run.focal_gamma == 1.5
        assert run.focal_alpha == 0.25
        assert run.epochs == 3

    def test_top_level_overrides(self, tmp_path):
        payload = {"seed": 5, "train_fraction": 0.7, "out_dir": "runs",
                   "strategy": "all_equal", "beat_len": 64}
        cfg = load_config(write_config(tmp_path, payload))
        assert (cfg.seed, cfg.train_fraction) == (5, 0.7)
        assert cfg.out_dir == "runs"
        assert cfg.strategy == "all_equal"
        assert cfg.beat_len == 64

    def test_gan_section(self, tmp_path):
        payload = {"gan": {"epochs": 5, "tau": 0.9, "hidden": 8}}
        cfg = load_config(write_config(tmp_path, payload))
        assert cfg.gan.epochs == 5
        assert cfg.gan.tau == 0.9
        assert cfg.gan.hidden == 8

    def test_integer_accepted_for_float_field(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"cnn": {"lr": 1}}))
        assert cfg.train_configs["cnn"].lr == 1.0
        assert isinstance(cfg.train_configs["cnn"].lr, float)

    @pytest.mark.parametrize("name", FLOAT_KEYS)
    def test_whole_number_resolves_to_float(self, tmp_path, name):
        *section, key = name.split(".")
        whole = WHOLE_VALUES.get(key, 1)

        def resolve(value, file_name):
            payload = {key: value}
            for outer in section:
                payload = {outer: payload}
            return load_config(write_config(tmp_path, payload, file_name))

        if key in NO_WHOLE_VALUE:
            with pytest.raises(ConfigError, match=r"got 1\.0$"):
                resolve(whole, "whole.json")
            return
        cfg = resolve(whole, "whole.json")
        resolved = cfg.to_dict()
        for outer in section:
            resolved = resolved[outer]
        assert isinstance(resolved[key], float) and resolved[key] == whole
        assert config_hash(cfg) == config_hash(resolve(float(whole),
                                                       "float.json"))


class TestRejection:
    def test_misspelled_arch_key_is_named(self, tmp_path):
        path = write_config(tmp_path, {"cnn": {"bacth_size": 96}})
        with pytest.raises(ConfigError, match="bacth_size"):
            load_config(path)

    def test_misspelled_top_level_key_is_named(self, tmp_path):
        path = write_config(tmp_path, {"beatlen": 187})
        with pytest.raises(ConfigError, match="beatlen"):
            load_config(path)

    @pytest.mark.parametrize("bad_key", [
        "batchsize", "learning_rate", "epoch", "early_stopping",
        "weight_decays", "gamma", "sedd",
    ])
    def test_fuzzed_arch_keys_are_named(self, bad_key):
        with pytest.raises(ConfigError, match=bad_key):
            config_from_payload({"cnn_lstm": {bad_key: 1}})

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="beat_len"):
            config_from_payload({"beat_len": "187"})
        with pytest.raises(ConfigError, match="cnn.lr"):
            config_from_payload({"cnn": {"lr": "fast"}})
        with pytest.raises(ConfigError, match="gan.tau"):
            config_from_payload({"gan": {"tau": True}})

    def test_whole_number_beyond_float_range_names_key(self, tmp_path):
        path = write_config(tmp_path, '{"cnn": {"lr": 1' + "0" * 400 + "}}")
        with pytest.raises(ConfigError, match="cnn.lr"):
            load_config(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity",
                                       "1e400"])
    @pytest.mark.parametrize("name", FLOAT_KEYS)
    def test_non_finite_number_names_key(self, tmp_path, name, value):
        *section, key = name.split(".")
        text = f'{{"{key}": {value}}}'
        for outer in section:
            text = f'{{"{outer}": {text}}}'
        with pytest.raises(ConfigError, match=f"'{name}' must be a finite "
                                              f"number"):
            load_config(write_config(tmp_path, text))

    def test_config_not_utf8_is_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{"out_dir": "r\xe9sultats"}')
        with pytest.raises(ConfigError, match="cfg.json"):
            load_config(path)

    def test_null_only_where_the_default_is_null(self):
        assert config_from_payload({"lead": None}).lead is None
        with pytest.raises(ConfigError, match="out_dir"):
            config_from_payload({"out_dir": None})
        with pytest.raises(ConfigError, match="cnn.lr"):
            config_from_payload({"cnn": {"lr": None}})

    @pytest.mark.parametrize("decay", [-1.0, -1e-12])
    def test_negative_weight_decay_names_key(self, decay):
        with pytest.raises(ConfigError, match="weight_decay"):
            config_from_payload({"cnn": {"weight_decay": decay}})

    def test_non_object_root(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "[1, 2]"))

    def test_non_object_section(self):
        with pytest.raises(ConfigError, match="cnn"):
            config_from_payload({"cnn": [1]})

    def test_invalid_json(self, tmp_path):
        path = write_config(tmp_path, "{nope")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    def test_repeated_key_is_named(self, tmp_path):
        path = write_config(tmp_path, '{"seed": 1, "seed": 2}')
        with pytest.raises(ConfigError, match="repeats key 'seed'"):
            load_config(path)

    @pytest.mark.parametrize("key", ["beat_len", "noise_len"])
    def test_gan_lengths_are_unknown_keys(self, tmp_path, key):
        # the augment stage takes the beat length from the data
        path = write_config(tmp_path, {"gan": {key: 32}})
        with pytest.raises(ConfigError,
                           match=f"unknown config key '{key}' in section "
                                 f"'gan'"):
            load_config(path)

    def test_ensemble_manifest_is_an_unknown_key(self, tmp_path):
        path = write_config(tmp_path, {"ensemble_manifest": "models.json"})
        with pytest.raises(ConfigError,
                           match="unknown config key 'ensemble_manifest'"):
            load_config(path)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError, match="strategy"):
            config_from_payload({"strategy": "best_one"})

    def test_train_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ConfigError):
                config_from_payload({"train_fraction": bad})

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")


class TestPathChecks:
    def test_missing_beats_csv_rejected(self, tmp_path):
        path = write_config(tmp_path, {"beats_csv": "not/here.csv"})
        with pytest.raises(ConfigError, match="beats_csv"):
            load_config(path)

    def test_existing_beats_csv_accepted(self, tmp_path):
        beats = tmp_path / "beats.csv"
        beats.write_text("s0,label\n")
        path = write_config(tmp_path, {"beats_csv": str(beats)})
        assert load_config(path).beats_csv == str(beats)

    def test_missing_records_dir_rejected(self, tmp_path):
        path = write_config(tmp_path, {"records_dir": "no/such/dir"})
        with pytest.raises(ConfigError, match="records_dir"):
            load_config(path)

    def test_missing_test_csv_rejected(self, tmp_path):
        path = write_config(tmp_path, {"test_csv": "gone.csv"})
        with pytest.raises(ConfigError, match="test_csv"):
            load_config(path)


class TestHash:
    def test_key_order_does_not_matter(self, tmp_path):
        a = write_config(tmp_path, '{"seed": 3, "beat_len": 64}', "a.json")
        b = write_config(tmp_path, '{"beat_len": 64, "seed": 3}', "b.json")
        assert config_hash(load_config(a)) == config_hash(load_config(b))

    def test_value_change_changes_hash(self, tmp_path):
        a = load_config(write_config(tmp_path, {"cnn": {"lr": 0.001}}, "a.json"))
        b = load_config(write_config(tmp_path, {"cnn": {"lr": 0.002}}, "b.json"))
        assert config_hash(a) != config_hash(b)

    def test_defaults_hash_matches_empty_file(self, tmp_path):
        loaded = load_config(write_config(tmp_path, ""))
        assert config_hash(loaded) == config_hash(PipelineConfig())

    def test_digests_are_pinned(self):
        assert config_hash(PipelineConfig()) == \
            "1bd3c4914acf9a2ea70634b239c1a3cd0bf7f0a97febb273151bc793372db6ff"
        overridden = config_from_payload(
            {"resnet1d": {"focal_gamma": 1.5, "focal_alpha": 0.25},
             "gan": {"tau": 1}})
        assert config_hash(overridden) == \
            "c30e6520901c46c975bb4d67c17b92c3408cc1acdefe77aafbb20442a0930af8"

    def test_hash_is_hex_sha256(self):
        digest = config_hash(PipelineConfig())
        assert len(digest) == 64
        int(digest, 16)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(17, "ingest") == derive_seed(17, "ingest")

    def test_frozen_values(self):
        assert derive_seed(17, "ingest") == 520311432159976929
        assert derive_seed(17, "train/cnn") == 13874364877954572065
        # seed 0 with an empty stage reduces to the mixer's first output,
        # which pins the constants to the reference stream
        assert derive_seed(0, "") == 0xE220A8397B1DCDAF

    def test_stage_names_fan_out(self):
        stages = ["ingest", "augment", "train/cnn", "train/cnn_lstm",
                  "train/cnn_lstm_attn", "train/resnet1d", "ensemble",
                  "evaluate"]
        values = {derive_seed(17, s) for s in stages}
        assert len(values) == len(stages)

    def test_master_seed_fans_out(self):
        assert derive_seed(1, "ingest") != derive_seed(2, "ingest")

    def test_range_is_64_bit(self):
        for master in (0, 17, 2**64 - 1, 12345678901234567890):
            value = derive_seed(master, "train/cnn")
            assert 0 <= value < 2**64


class TestRunManifest:
    def make_manifest(self):
        return RunManifest(command="ingest --records-dir data",
                           config_hash="ab" * 32,
                           version="0.1.0",
                           started_at=RunManifest.now())

    def test_round_trip(self, tmp_path):
        manifest = self.make_manifest()
        manifest.add_files([tmp_path / "beats.csv", tmp_path / "log.txt"])
        path = manifest.write(tmp_path / "ingest.manifest.json")
        loaded = RunManifest.load(path)
        assert loaded.command == manifest.command
        assert loaded.config_hash == manifest.config_hash
        assert loaded.version == "0.1.0"
        assert loaded.files == sorted(str(tmp_path / n)
                                      for n in ("beats.csv", "log.txt"))

    def test_timestamps_parse(self, tmp_path):
        manifest = self.make_manifest()
        path = manifest.write(tmp_path / "m.json")
        loaded = RunManifest.load(path)
        start = datetime.fromisoformat(loaded.started_at)
        finish = datetime.fromisoformat(loaded.finished_at)
        assert start <= finish

    def test_no_temp_files_left_behind(self, tmp_path):
        self.make_manifest().write(tmp_path / "m.json")
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"m.json"}

    def test_write_creates_parents(self, tmp_path):
        path = self.make_manifest().write(tmp_path / "a" / "b" / "m.json")
        assert path.exists()

    def test_file_ends_with_newline(self, tmp_path):
        path = self.make_manifest().write(tmp_path / "m.json")
        assert path.read_text().endswith("}\n")

    def test_mode_follows_umask_like_other_artifacts(self, tmp_path):
        path = self.make_manifest().write(tmp_path / "m.json")
        plain = tmp_path / "plain.txt"
        with open(plain, "w"):
            pass
        assert stat.S_IMODE(path.stat().st_mode) == \
            stat.S_IMODE(plain.stat().st_mode)

    def valid_payload(self, tmp_path):
        path = self.make_manifest().write(tmp_path / "m.json")
        return json.loads(path.read_text())

    @pytest.mark.parametrize("text", ["{not json", "", "\xff\xfe"])
    def test_malformed_json_is_format_error(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text, encoding="latin-1")
        with pytest.raises(FormatError, match="m.json"):
            RunManifest.load(path)

    @pytest.mark.parametrize("payload", [[], "manifest", 3, None])
    def test_non_object_is_format_error(self, tmp_path, payload):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="m.json"):
            RunManifest.load(path)

    @pytest.mark.parametrize("key", ["command", "config_hash", "version",
                                     "started_at", "finished_at", "files"])
    def test_missing_key_is_format_error(self, tmp_path, key):
        payload = self.valid_payload(tmp_path)
        del payload[key]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=key):
            RunManifest.load(path)

    def test_unknown_key_is_format_error(self, tmp_path):
        payload = self.valid_payload(tmp_path)
        payload["resumed"] = True
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="resumed"):
            RunManifest.load(path)

    def test_repeated_key_is_format_error(self, tmp_path):
        path = tmp_path / "m.json"
        text = json.dumps(self.valid_payload(tmp_path))
        path.write_text(text[:-1] + ', "version": "0"}')
        with pytest.raises(FormatError, match="repeats key 'version'"):
            RunManifest.load(path)

    def test_missing_file_is_io_error_naming_path(self, tmp_path):
        with pytest.raises(IoError, match="absent.json"):
            RunManifest.load(tmp_path / "absent.json")

    @pytest.mark.parametrize("files", ["beats.csv", [1], ["a", None],
                                       {"a": "b"}])
    def test_files_not_a_list_of_strings_is_format_error(self, tmp_path,
                                                         files):
        payload = self.valid_payload(tmp_path)
        payload["files"] = files
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="files"):
            RunManifest.load(path)

    def test_non_string_field_is_format_error(self, tmp_path):
        payload = self.valid_payload(tmp_path)
        payload["config_hash"] = 17
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="config_hash"):
            RunManifest.load(path)
