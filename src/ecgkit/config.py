"""Pipeline configuration, seed derivation, and run bookkeeping.

Config files are strict JSON: every key must be a field of the settings
dataclasses (PipelineConfig, TrainRunConfig, GanTrainConfig), whose
annotations give its JSON type (artifacts.json_schema), and anything the
file leaves out falls back to the published per-architecture training
defaults. A resolved config hashes canonically so reordered keys produce
the same fingerprint.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .artifacts import json_fields, json_schema, parse_json, write_json
from .beats import DEFAULT_BEAT_LEN
from .ensemble import STRATEGIES
from .errors import ConfigError, FormatError, IoError
from .gan import GanTrainConfig
from .models import ARCHITECTURES, MIN_INPUT_LEN
from .training import TrainRunConfig

@dataclass
class PipelineConfig:
    records_dir: str = None
    beats_csv: str = None
    test_csv: str = None
    beat_len: int = DEFAULT_BEAT_LEN
    lead: str = None
    seed: int = 17
    train_fraction: float = 0.85
    out_dir: str = "out"
    strategy: str = "top2_weighted"
    train_configs: dict = field(default_factory=dict)
    gan: GanTrainConfig = field(default_factory=GanTrainConfig)

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; expected "
                              f"one of {', '.join(STRATEGIES)}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train fraction must lie in (0, 1), got "
                              f"{self.train_fraction}")
        if self.beat_len < MIN_INPUT_LEN:
            raise ConfigError(f"beat length must be >= {MIN_INPUT_LEN}, "
                              f"got {self.beat_len}")
        for arch in ARCHITECTURES:
            self.train_configs.setdefault(arch,
                                          TrainRunConfig.for_arch(arch))

    def to_dict(self):
        """Fully resolved plain dict; the canonical hashing input."""
        out = {key: getattr(self, key) for key in _TOP_SCHEMA}
        for arch in ARCHITECTURES:
            cfg = self.train_configs[arch]
            out[arch] = {key: getattr(cfg, key) for key in _ARCH_SCHEMA}
        out["gan"] = {key: getattr(self.gan, key) for key in _GAN_SCHEMA}
        return out


_TOP_SCHEMA = json_schema(PipelineConfig, skip=("train_configs", "gan"))
_ARCH_SCHEMA = json_schema(TrainRunConfig, skip=("arch",))
_GAN_SCHEMA = json_schema(GanTrainConfig, ())
# a config file's sections: one per architecture, then the GAN's
_SECTIONS = {**dict.fromkeys(ARCHITECTURES, _ARCH_SCHEMA), "gan": _GAN_SCHEMA}
_ROOT_SCHEMA = {**_TOP_SCHEMA, **dict.fromkeys(_SECTIONS, (dict,))}


def config_from_payload(payload):
    """Check a parsed JSON object against the schema and resolve it."""
    kwargs = json_fields(payload, _ROOT_SCHEMA, "config", None, ConfigError,
                         ())
    sections = {name: json_fields(kwargs.pop(name), schema, "config", name,
                                  ConfigError, ())
                for name, schema in _SECTIONS.items() if name in kwargs}
    train_configs = {arch: TrainRunConfig.for_arch(arch, **sections[arch])
                     for arch in ARCHITECTURES if arch in sections}
    return PipelineConfig(train_configs=train_configs,
                          gan=GanTrainConfig(**sections.get("gan", {})),
                          **kwargs)


def load_config(path):
    """Read, validate, and resolve a config file.

    An empty file means "all defaults". Referenced input paths must exist.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    payload = parse_json(data, f"config {path}", ConfigError) \
        if data.strip() else {}
    config = config_from_payload(payload)
    for key in ("records_dir", "beats_csv", "test_csv"):
        value = getattr(config, key)
        if value is not None and not Path(value).exists():
            raise ConfigError(f"config key {key!r} references missing path "
                              f"{value!r}")
    return config


def config_hash(config):
    """Canonical fingerprint of a PipelineConfig, identical for
    reordered-but-equal config files."""
    canonical = json.dumps(config.to_dict(), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_MASK64 = (1 << 64) - 1


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed, stage):
    """Fan a master seed out to one 64-bit seed per named stage."""
    state = master_seed & _MASK64
    for byte in stage.encode("utf-8"):
        state = _splitmix64(state ^ byte)
    return _splitmix64(state)


@dataclass
class RunManifest:
    """What a run produced, stamped with its configuration fingerprint."""

    command: str
    config_hash: str
    version: str
    started_at: str
    finished_at: str = ""
    files: list[str] = field(default_factory=list)

    @staticmethod
    def now():
        return datetime.now(timezone.utc).isoformat()

    def add_files(self, paths):
        self.files.extend(str(p) for p in paths)

    def write(self, path):
        """Atomic: the manifest appears complete or not at all."""
        self.finished_at = self.now()
        return write_json(path, dict(asdict(self), files=sorted(self.files)))

    @classmethod
    def load(cls, path):
        """The manifest at path; IoError names path when it cannot be
        read, FormatError when the file is not a JSON object of exactly
        the manifest's keys and types."""
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise IoError(f"cannot read manifest {path}: {exc}") from None
        where = f"manifest {path}"
        payload = parse_json(data, where, FormatError)
        return cls(**json_fields(payload, _MANIFEST_SCHEMA, where, None,
                                 FormatError, _MANIFEST_SCHEMA))


_MANIFEST_SCHEMA = json_schema(RunManifest, ())
