"""Convex fusion of per-model logits.

Member models score the same samples independently; the ensemble takes a
weighted average of the raw logit matrices and predicts by argmax. Four
weighting strategies are supported: uniform over every member, uniform
over the best three or best two by validation macro-F1, and a two-member
blend weighted by those scores.
"""

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IoError, ParseError, ShapeError, UsageError

STRATEGIES = ("all_equal", "top3_equal", "top2_equal", "top2_weighted")
WEIGHT_SUM_TOL = 1e-9


@dataclass
class EnsembleSpec:
    """Chosen members with their fusion weights, in ranked order."""

    members: tuple
    weights: tuple
    strategy: str

    def __post_init__(self):
        self.members = tuple(self.members)
        self.weights = tuple(float(w) for w in self.weights)
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; expected "
                              f"one of {', '.join(STRATEGIES)}")
        if len(self.members) != len(self.weights):
            raise ConfigError(f"{len(self.members)} members but "
                              f"{len(self.weights)} weights")
        if len(self.members) < 2:
            raise ConfigError("an ensemble needs at least two members")
        if any(w < 0 for w in self.weights):
            raise ConfigError(f"negative weight in {self.weights}")
        if abs(sum(self.weights) - 1.0) > WEIGHT_SUM_TOL:
            raise ConfigError(f"weights sum to {sum(self.weights)!r}, not 1")

    def to_dict(self):
        return {"strategy": self.strategy,
                "members": list(self.members),
                "weights": list(self.weights)}


class LogitSet:
    """Per-model logit matrices sharing one sample ordering."""

    def __init__(self, matrices):
        matrices = tuple(np.asarray(m, dtype=np.float64) for m in matrices)
        if not matrices:
            raise ShapeError("a logit set needs at least one member")
        shape = matrices[0].shape
        if len(shape) != 2:
            raise ShapeError(f"logit matrices must be 2-D, got {shape}")
        for m in matrices[1:]:
            if m.shape != shape:
                raise ShapeError(f"logit shape {m.shape} does not match "
                                 f"{shape}")
        self.matrices = matrices

    def __len__(self):
        return len(self.matrices)


def fuse(logit_set, weights):
    """Weighted average of member logits.

    With a single member and weight 1 this is the identity. Weights must
    be nonnegative and sum to 1 within 1e-9.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size != len(logit_set):
        raise ShapeError(f"{weights.size} weights for {len(logit_set)} "
                         "member matrices")
    if (weights < 0).any():
        raise ConfigError(f"negative weight in {weights.tolist()}")
    if abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"weights sum to {weights.sum()!r}, not 1")
    stacked = np.stack(logit_set.matrices)
    return np.tensordot(weights, stacked, axes=1)


def predict_classes(logits):
    """Argmax per row; exact ties resolve to the lowest class index."""
    return np.asarray(logits).argmax(axis=1)


def top2_weights(f1_best, f1_second):
    """Blend weights proportional to the two validation macro-F1 scores."""
    for value in (f1_best, f1_second):
        if not 0.0 <= value <= 1.0:
            raise UsageError(f"macro-F1 {value} outside [0, 1]")
    total = f1_best + f1_second
    if total == 0.0:
        raise UsageError("both scores are zero; weights undefined")
    return f1_best / total, f1_second / total


def rank_members(val_macro_f1):
    """Indices sorted best-first; ties keep the earlier member first."""
    scores = np.asarray(val_macro_f1, dtype=np.float64)
    return np.argsort(-scores, kind="stable")


def build_strategy(models, val_macro_f1, strategy):
    """Pick members and weights for one strategy.

    models is an ordered list of model identifiers; val_macro_f1 the
    matching validation scores used for ranking.
    """
    models = list(models)
    if len(set(models)) != len(models):
        raise ConfigError(f"duplicate model refs in {models}")
    if len(models) != len(val_macro_f1):
        raise UsageError(f"{len(models)} models but {len(val_macro_f1)} "
                         "validation scores")
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}; expected one of "
                          f"{', '.join(STRATEGIES)}")
    needed = {"all_equal": 2, "top3_equal": 3, "top2_equal": 2,
              "top2_weighted": 2}[strategy]
    if len(models) < needed:
        raise ConfigError(f"{strategy} needs at least {needed} models, "
                          f"got {len(models)}")

    ranked = rank_members(val_macro_f1)
    if strategy == "all_equal":
        chosen = list(range(len(models)))
        weights = [1.0 / len(models)] * len(models)
    elif strategy == "top3_equal":
        chosen = list(ranked[:3])
        weights = [1.0 / 3] * 3
    elif strategy == "top2_equal":
        chosen = list(ranked[:2])
        weights = [0.5, 0.5]
    else:
        chosen = list(ranked[:2])
        weights = list(top2_weights(val_macro_f1[chosen[0]],
                                    val_macro_f1[chosen[1]]))
    return EnsembleSpec(members=tuple(models[i] for i in chosen),
                        weights=tuple(weights), strategy=strategy)


def logit_header(n_classes):
    return ["sample_id"] + [f"logit_{k}" for k in range(n_classes)]


def write_logits_csv(path, logits):
    """One row per sample: its row index followed by the per-class logits."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got {logits.shape}")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(logit_header(logits.shape[1]))
        for index, row in enumerate(logits):
            writer.writerow([str(index)] + [repr(float(v)) for v in row])
    return path


def read_logits_csv(path):
    """Returns (sample_ids, logits[n, k]); malformed content is a ParseError."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows:
        raise ParseError("empty logit file", line=1)
    header = rows[0]
    if len(header) < 2 or header != logit_header(len(header) - 1):
        raise ParseError(f"unexpected logit header {header}", line=1)
    width = len(header)
    sample_ids = []
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ParseError(f"expected {width} columns, got {len(row)}",
                             line=lineno)
        sample_ids.append(row[0])
        try:
            values.append([float(cell) for cell in row[1:]])
        except ValueError as exc:
            raise ParseError(f"bad logit value: {exc}", line=lineno) from None
    return sample_ids, np.array(values, dtype=np.float64)


@dataclass
class ManifestEntry:
    model_id: str
    checkpoint: str
    val_macro_f1: float

    def __post_init__(self):
        if not 0.0 <= self.val_macro_f1 <= 1.0:
            raise ConfigError(f"validation macro-F1 {self.val_macro_f1} for "
                              f"{self.model_id!r} outside [0, 1]")


_MANIFEST_KEYS = {"id", "checkpoint", "val_macro_f1"}


def load_manifest(path):
    """Model roster for the ensemble: ids, checkpoint paths, val scores."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise IoError(f"cannot read manifest {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "models" not in payload:
        raise ConfigError("manifest must be an object with a 'models' list")
    extra = set(payload) - {"models"}
    if extra:
        raise ConfigError(f"unknown manifest keys: {sorted(extra)}")
    entries = []
    for item in payload["models"]:
        if not isinstance(item, dict):
            raise ConfigError(f"manifest model entry {item!r} is not an "
                              "object")
        unknown = set(item) - _MANIFEST_KEYS
        if unknown:
            raise ConfigError(f"unknown model keys: {sorted(unknown)}")
        missing = _MANIFEST_KEYS - set(item)
        if missing:
            raise ConfigError(f"model entry missing keys: {sorted(missing)}")
        entries.append(ManifestEntry(model_id=str(item["id"]),
                                     checkpoint=str(item["checkpoint"]),
                                     val_macro_f1=float(item["val_macro_f1"])))
    ids = [entry.model_id for entry in entries]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate model ids in manifest: {ids}")
    if not entries:
        raise ConfigError("manifest lists no models")
    return entries


def write_manifest(path, entries):
    payload = {"models": [{"id": entry.model_id,
                           "checkpoint": entry.checkpoint,
                           "val_macro_f1": entry.val_macro_f1}
                          for entry in entries]}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path
