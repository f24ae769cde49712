"""Classification metrics over beat predictions.

Everything here is a pure function of prediction arrays: confusion
matrices, precision/recall/F1, one-vs-rest ROC curves with AUC, and
percentile-bootstrap confidence intervals.
"""

from dataclasses import dataclass, field

import numpy as np

from .beats import CLASS_NAMES
from .errors import MetricError, UsageError

N_CLASSES = len(CLASS_NAMES)
DEFAULT_RESAMPLES = 1000
MIN_BOOTSTRAP_SAMPLES = 30
MIN_RESAMPLES = 100
# resamples bootstrap_ci scores per metric_fn call; the block of resampled
# outcomes is BOOTSTRAP_BLOCK times the size of the outcomes
BOOTSTRAP_BLOCK = 64
# coverage of bootstrap_ci's 2.5/97.5 percentile bounds
CI_LEVEL = 0.95


@dataclass
class ConfusionMatrix:
    """Counts[true][predicted]; call normalized() for row-stochastic rates."""

    counts: np.ndarray

    @property
    def n_samples(self):
        return int(self.counts.sum())

    def support(self):
        return self.counts.sum(axis=1)

    def normalized(self):
        """Each row divided by its support; zero-support rows stay zero."""
        rates = np.zeros(self.counts.shape, dtype=np.float64)
        support = self.support()
        rows = support > 0
        rates[rows] = self.counts[rows] / support[rows, None]
        return rates


def confusion(y_true, y_pred, n_classes=N_CLASSES):
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise UsageError("true and predicted labels must be equal-length "
                         "1-D arrays")
    for name, labels in (("true", y_true), ("predicted", y_pred)):
        if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
            raise UsageError(f"{name} labels fall outside 0..{n_classes - 1}")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return ConfusionMatrix(counts)


@dataclass
class MetricBundle:
    """Threshold metrics plus optional ranking metrics.

    Per-class entries are tuples indexed by class label. AUC entries are
    None for classes the test labels never exercise on both sides. The
    bundle keeps the confusion matrix its numbers came from and, with the
    AUCs, the ROC curves by class index.
    """

    accuracy: float
    precision: tuple
    recall: tuple
    f1: tuple
    macro_precision: float
    macro_recall: float
    macro_f1: float
    auc: tuple = None
    macro_auc: float = None
    matrix: ConfusionMatrix = field(default=None, compare=False, repr=False)
    curves: dict = field(default=None, compare=False, repr=False)

    def to_dict(self):
        per_class = {}
        for index, name in enumerate(CLASS_NAMES[:len(self.precision)]):
            entry = {"precision": self.precision[index],
                     "recall": self.recall[index],
                     "f1": self.f1[index]}
            if self.auc is not None:
                entry["auc"] = self.auc[index]
            per_class[name] = entry
        result = {"accuracy": self.accuracy,
                  "macro": {"precision": self.macro_precision,
                            "recall": self.macro_recall,
                            "f1": self.macro_f1},
                  "per_class": per_class}
        if self.macro_auc is not None:
            result["macro"]["auc"] = self.macro_auc
        return result


def _rates(counts):
    """Precision, recall and F1 per class of counts[..., true, predicted],
    along any leading axes: one definition for prf1 and the bootstrap."""
    tp = np.diagonal(counts, axis1=-2, axis2=-1).astype(np.float64)
    predicted = counts.sum(axis=-2).astype(np.float64)
    actual = counts.sum(axis=-1).astype(np.float64)
    precision = np.divide(tp, predicted, out=np.zeros_like(tp),
                          where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros_like(tp), where=actual > 0)
    pr_sum = precision + recall
    f1 = np.divide(2 * precision * recall, pr_sum,
                   out=np.zeros_like(tp), where=pr_sum > 0)
    return tp, precision, recall, f1


def prf1(matrix):
    """Precision, recall and F1 per class plus unweighted macro means.

    Zero-denominator cells resolve to 0: a class never predicted has
    precision 0, a class never present has recall 0, and F1 is 0 when
    both are.
    """
    n = matrix.n_samples
    if n == 0:
        raise MetricError("empty confusion matrix")
    tp, precision, recall, f1 = _rates(matrix.counts)
    return MetricBundle(
        accuracy=float(tp.sum() / n),
        precision=tuple(precision),
        recall=tuple(recall),
        f1=tuple(f1),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        matrix=matrix,
    )


def block_macro_f1(pairs):
    """Macro-F1 of each resample in a [r, n, 2] block of (true, predicted)
    label pairs: one bincount builds the r confusion matrices."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= N_CLASSES):
        raise UsageError(f"labels fall outside 0..{N_CLASSES - 1}")
    r = pairs.shape[0]
    cells = ((np.arange(r)[:, None] * N_CLASSES + pairs[..., 0]) * N_CLASSES
             + pairs[..., 1])
    counts = np.bincount(cells.ravel(), minlength=r * N_CLASSES * N_CLASSES)
    return _rates(counts.reshape(r, N_CLASSES, N_CLASSES))[3].mean(axis=-1)


@dataclass
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float


def roc_auc(scores, labels):
    """One-vs-rest ROC sweep; ties share a threshold so the trapezoid area
    equals the Mann-Whitney pair statistic with half-credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise UsageError("scores and labels must be equal-length 1-D arrays")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("ROC needs at least one positive and one negative "
                          f"label, got {n_pos} positives and {n_neg} negatives")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    # one curve point per distinct score, taken at the end of each tie group
    boundary = np.nonzero(np.diff(sorted_scores))[0]
    last = np.concatenate([boundary, [scores.size - 1]])
    cum_tp = np.cumsum(sorted_labels)[last]
    cum_fp = (last + 1) - cum_tp
    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2))
    return RocCurve(fpr=fpr, tpr=tpr, auc=auc)


def one_vs_rest_auc(probabilities, y_true, n_classes=N_CLASSES):
    """Per-class AUC tuple (None where the class lacks a positive or a
    negative example), their unweighted mean, and the RocCurve of every
    class that has both, keyed by class index."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    y_true = np.asarray(y_true, dtype=np.int64)
    if probabilities.ndim != 2 or probabilities.shape[0] != y_true.size:
        raise UsageError("probabilities must be [n_samples, n_classes]")
    curves = {}
    for label in range(n_classes):
        positives = y_true == label
        if positives.any() and (~positives).any():
            curves[label] = roc_auc(probabilities[:, label], positives)
    if not curves:
        raise MetricError("labels cover a single class; AUC undefined")
    per_class = tuple(curves[label].auc if label in curves else None
                      for label in range(n_classes))
    macro = float(np.mean([curve.auc for curve in curves.values()]))
    return per_class, macro, curves


def evaluate_predictions(y_true, y_pred, probabilities=None,
                         n_classes=N_CLASSES):
    """Full metric bundle; ranking metrics only when probabilities given."""
    bundle = prf1(confusion(y_true, y_pred, n_classes))
    if probabilities is not None:
        bundle.auc, bundle.macro_auc, bundle.curves = one_vs_rest_auc(
            probabilities, y_true, n_classes)
    return bundle


@dataclass
class ConfidenceInterval:
    name: str
    mean: float
    lower: float
    upper: float
    n_resamples: int = DEFAULT_RESAMPLES

    def __post_init__(self):
        if not self.lower <= self.mean <= self.upper:
            raise MetricError(
                f"interval for {self.name} does not cover its mean: "
                f"[{self.lower}, {self.upper}] vs {self.mean}")


def bootstrap_ci(outcomes, metric_fn, *, seed, name,
                 n_resamples=DEFAULT_RESAMPLES):
    """Percentile bootstrap over per-sample outcomes.

    Resamples rows of `outcomes` with replacement, one draw of n row
    indices per resample, and reports the resample mean with the 2.5/97.5
    percentile bounds as the interval called name.  metric_fn scores
    BOOTSTRAP_BLOCK resamples at a time: it maps a block of resampled
    outcomes, shaped [r, n, ...], to the r statistics.
    """
    outcomes = np.asarray(outcomes)
    n = outcomes.shape[0]
    if n < MIN_BOOTSTRAP_SAMPLES:
        raise MetricError(f"bootstrap needs at least {MIN_BOOTSTRAP_SAMPLES} "
                          f"samples, got {n}")
    if n_resamples < MIN_RESAMPLES:
        raise MetricError(f"bootstrap needs at least {MIN_RESAMPLES} "
                          f"resamples, got {n_resamples}")
    rng = np.random.default_rng(seed)
    values = np.empty(n_resamples, dtype=np.float64)
    rows = np.empty((BOOTSTRAP_BLOCK, n), dtype=np.int64)
    for start in range(0, n_resamples, BOOTSTRAP_BLOCK):
        r = min(BOOTSTRAP_BLOCK, n_resamples - start)
        for j in range(r):
            rows[j] = rng.integers(0, n, size=n)
        scores = np.asarray(metric_fn(outcomes[rows[:r]]), dtype=np.float64)
        if scores.shape != (r,):
            raise UsageError(f"metric_fn must map a block of {r} resamples "
                             f"to {r} values, got shape {scores.shape}")
        values[start:start + r] = scores
    lower, upper = np.percentile(values, [2.5, 97.5])
    mean = float(values.mean())
    # on a degenerate resample distribution, summation error can land the
    # mean one ulp outside the percentile range; clamp to keep coverage
    return ConfidenceInterval(name=name, mean=mean,
                              lower=min(float(lower), mean),
                              upper=max(float(upper), mean),
                              n_resamples=n_resamples)
