"""Convex fusion of per-model logits.

Member models score the same samples independently; the ensemble takes a
weighted average of the raw logit matrices and predicts by argmax. Four
weighting strategies are supported: uniform over every member, uniform
over the best three or best two by validation macro-F1, and a two-member
blend weighted by those scores.
"""

import csv
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .artifacts import atomic_open, json_fields, json_schema, parse_json, \
    write_json
from .errors import ConfigError, IoError, ParseError, ShapeError, UsageError

# strategy name -> fewest members it needs
STRATEGIES = {"all_equal": 2, "top3_equal": 3, "top2_equal": 2,
              "top2_weighted": 2}
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


def fuse(spec, logits_by_model):
    """Weighted average of the spec's member logits, in float64.

    logits_by_model maps each member id to its [n, k] logit matrix; the
    members' matrices must be 2-D and share one shape. The spec has
    already checked the weights.
    """
    matrices = [np.asarray(logits_by_model[m], dtype=np.float64)
                for m in spec.members]
    shapes = [m.shape for m in matrices]
    if len(shapes[0]) != 2 or len(set(shapes)) != 1:
        raise ShapeError("member logits must be 2-D and share one shape, "
                         f"got {dict(zip(spec.members, shapes))}")
    return np.tensordot(np.asarray(spec.weights, dtype=np.float64),
                        np.stack(matrices), axes=1)


def predict_classes(logits):
    """Argmax per row; exact ties resolve to the lowest class index."""
    return np.asarray(logits).argmax(axis=1)


def build_strategy(models, val_macro_f1, strategy):
    """Pick members and weights for one strategy.

    models is an ordered list of model identifiers; val_macro_f1 the
    matching validation scores used for ranking, best first with ties
    keeping the earlier member first. top2_weighted blends its pair in
    proportion to their scores.
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
    needed = STRATEGIES[strategy]
    if len(models) < needed:
        raise ConfigError(f"{strategy} needs at least {needed} models, "
                          f"got {len(models)}")

    if strategy == "all_equal":
        chosen = list(range(len(models)))
    else:
        # the top-k strategies take exactly the k members they need
        ranked = np.argsort(-np.asarray(val_macro_f1, dtype=np.float64),
                            kind="stable")
        chosen = list(ranked[:needed])
    if strategy == "top2_weighted":
        best, second = (val_macro_f1[i] for i in chosen)
        for value in (best, second):
            if not 0.0 <= value <= 1.0:
                raise UsageError(f"macro-F1 {value} outside [0, 1]")
        total = best + second
        if total == 0.0:
            raise UsageError("both scores are zero; weights undefined")
        weights = [best / total, second / total]
    else:
        weights = [1.0 / len(chosen)] * len(chosen)
    return EnsembleSpec(members=tuple(models[i] for i in chosen),
                        weights=tuple(weights), strategy=strategy)


def write_logits_csv(path, logits):
    """One row per sample: its row index followed by the per-class logits."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise ShapeError(f"logits must be 2-D, got {logits.shape}")
    with atomic_open(path, "w") as handle:
        writer = csv.writer(handle)
        writer.writerow(["sample_id"] + [f"logit_{k}" for k in
                                         range(logits.shape[1])])
        for index, row in enumerate(logits):
            writer.writerow([str(index)] + [repr(float(v)) for v in row])
    return path


@dataclass
class ManifestEntry:
    id: str
    checkpoint: str
    val_macro_f1: float

    def __post_init__(self):
        # range first: an integer too large for a float still compares
        if not 0.0 <= self.val_macro_f1 <= 1.0:
            raise ConfigError(f"validation macro-F1 {self.val_macro_f1} for "
                              f"{self.id!r} outside [0, 1]")
        self.val_macro_f1 = float(self.val_macro_f1)


_ENTRY_SCHEMA = json_schema(ManifestEntry, ())


def load_manifest(path):
    """Model roster for the ensemble: ids, checkpoint paths, val scores;
    ParseError when path is not UTF-8 JSON, ConfigError when its content
    is not a roster."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read manifest {path}: {exc}") from None
    where = f"manifest {path}"
    roster = json_fields(parse_json(data, where, ParseError),
                         {"models": (list,)}, where, None, ConfigError,
                         ("models",))
    entries = [ManifestEntry(**json_fields(item, _ENTRY_SCHEMA,
                                           f"{where} model {i}", None,
                                           ConfigError, _ENTRY_SCHEMA))
               for i, item in enumerate(roster["models"])]
    ids = [entry.id for entry in entries]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate model ids in manifest: {ids}")
    if not entries:
        raise ConfigError("manifest lists no models")
    return entries


def write_manifest(path, entries):
    return write_json(path, {"models": [asdict(entry) for entry in entries]})
