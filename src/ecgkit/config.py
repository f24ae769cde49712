"""Pipeline configuration, seed derivation, and run bookkeeping.

Config files are strict JSON: every key must be a field of the settings
dataclasses (PipelineConfig, TrainRunConfig, GanTrainConfig), whose
annotations give its JSON type, and anything the file leaves out falls back
to the published per-architecture training defaults. A resolved config hashes canonically
so reordered keys produce the same fingerprint.
"""

import hashlib
import json
import typing
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

from .artifacts import write_json
from .beats import DEFAULT_BEAT_LEN
from .ensemble import STRATEGIES
from .errors import ConfigError, FormatError
from .gan import GanTrainConfig
from .models import ARCHITECTURES, MIN_INPUT_LEN
from .training import TrainRunConfig

# JSON types a config value may take, by the annotation of its field
_JSON_TYPES = {int: (int,), float: (float, int), str: (str,)}


def _schema(cls, skip):
    """{key: accepted JSON types} over the fields of a settings dataclass;
    a field whose default is None also accepts null."""
    hints = typing.get_type_hints(cls)
    return {f.name: _JSON_TYPES[hints[f.name]]
            + ((type(None),) if f.default is None else ())
            for f in fields(cls) if f.name not in skip}


def _check_type(key, value, allowed):
    """The value of a schema-conforming key; float keys come back float."""
    if isinstance(value, bool) or not isinstance(value, allowed):
        names = "/".join("null" if t is type(None) else t.__name__
                         for t in allowed)
        raise ConfigError(f"config key {key!r} expects {names}, "
                          f"got {value!r}")
    if float not in allowed:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"config key {key!r} is out of float "
                          f"range") from None


def _check_section(name, payload, schema):
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {name!r} must be an object, "
                          f"got {payload!r}")
    unknown = set(payload) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r} "
                          f"in section {name!r}")
    return {key: _check_type(f"{name}.{key}", value, schema[key])
            for key, value in payload.items()}


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


_TOP_SCHEMA = _schema(PipelineConfig, skip=("train_configs", "gan"))
_ARCH_SCHEMA = _schema(TrainRunConfig, skip=("arch",))
_GAN_SCHEMA = _schema(GanTrainConfig, ())


def config_from_payload(payload):
    """Validate a parsed JSON object against the schema and resolve it."""
    if not isinstance(payload, dict):
        raise ConfigError(f"config root must be an object, got {payload!r}")
    known = set(_TOP_SCHEMA) | set(ARCHITECTURES) | {"gan"}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")

    kwargs = {}
    for key, allowed in _TOP_SCHEMA.items():
        if key in payload:
            kwargs[key] = _check_type(key, payload[key], allowed)

    train_configs = {}
    for arch in ARCHITECTURES:
        if arch in payload:
            section = _check_section(arch, payload[arch], _ARCH_SCHEMA)
            train_configs[arch] = TrainRunConfig.for_arch(arch, **section)
    gan_payload = {}
    if "gan" in payload:
        gan_payload = _check_section("gan", payload["gan"], _GAN_SCHEMA)
    return PipelineConfig(train_configs=train_configs,
                          gan=GanTrainConfig(**gan_payload), **kwargs)


def load_config(path):
    """Read, validate, and resolve a config file.

    An empty file means "all defaults". Referenced input paths must exist.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not text.strip():
        payload = {}
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: "
                              f"{exc}") from None
    config = config_from_payload(payload)
    for key in ("records_dir", "beats_csv", "test_csv"):
        value = getattr(config, key)
        if value is not None and not Path(value).exists():
            raise ConfigError(f"config key {key!r} references missing path "
                              f"{value!r}")
    return config


def config_hash(config):
    """Canonical fingerprint, identical for reordered-but-equal configs."""
    payload = config.to_dict() if isinstance(config, PipelineConfig) \
        else config
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
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
    files: list = field(default_factory=list)

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
        """The manifest at path; FormatError names path when the file is
        not a JSON object of exactly the manifest's keys and types."""
        try:
            payload = json.loads(Path(path).read_text())
        except ValueError as exc:
            raise FormatError(f"manifest {path} is not valid JSON: "
                              f"{exc}") from None
        if not isinstance(payload, dict):
            raise FormatError(f"manifest {path} must hold a JSON object")
        keys = {f.name for f in fields(cls)}
        if set(payload) != keys:
            raise FormatError(
                f"manifest {path} has keys {sorted(payload)}, "
                f"expected {sorted(keys)}")
        files = payload["files"]
        if not (isinstance(files, list)
                and all(isinstance(name, str) for name in files)):
            raise FormatError(f"manifest {path}: files must be a list of "
                              f"strings")
        for key in sorted(keys - {"files"}):
            if not isinstance(payload[key], str):
                raise FormatError(f"manifest {path}: {key} must be a string")
        return cls(**payload)
