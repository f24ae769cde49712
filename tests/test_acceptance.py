"""End-to-end acceptance checks for the toolkit's headline guarantees.

Each test verifies one externally visible behavior at its stated
tolerance and shows up as a single pass/fail line under ``pytest -v``.
Three tiers:

* numeric and property checks that always run and finish in seconds,
* desk-scale smoke training on synthetic beats (under a minute),
* clinical-data runs gated on environment variables, because the
  MIT-BIH recordings cannot ship with the package:

  - ``ECGKIT_MITBIH_DIR``: directory holding the WFDB files (100.hea, ...)
  - ``ECGKIT_RUN_FULL=1``: additionally enable the hour-scale full runs
"""

import functools
import math
import os
import time

import numpy as np
import pytest

import test_gradcheck as gradcheck
from helpers import beat_set, pulse_beat, toy_two_class

from ecgkit.beats import (
    BeatDataset,
    DEFAULT_BEAT_LEN,
    load_records_dir,
    stratified_split,
)
from ecgkit.config import derive_seed
from ecgkit.ensemble import (
    STRATEGIES,
    EnsembleSpec,
    build_strategy,
    fuse,
    predict_classes,
)
from ecgkit.gan import (GanTrainConfig, balance_dataset, balance_deficits,
                        gan_train, synthesize)
from ecgkit.gradcam import grad_cam
from ecgkit.metrics import confusion, evaluate_predictions, prf1, roc_auc
from ecgkit.models import ModelDescriptor, build
from ecgkit.tensor import Tensor
from ecgkit.training import TrainRunConfig, focal_loss, train
from ecgkit.wfdb_io import decode_format212, encode_format212, parse_header

MITBIH_DIR = os.environ.get("ECGKIT_MITBIH_DIR")
RUN_FULL = os.environ.get("ECGKIT_RUN_FULL") == "1"

needs_clinical_data = pytest.mark.skipif(
    MITBIH_DIR is None,
    reason="needs the MIT-BIH recordings; point ECGKIT_MITBIH_DIR at the "
           "directory holding the WFDB files")
needs_full_budget = pytest.mark.skipif(
    MITBIH_DIR is None or not RUN_FULL,
    reason="hour-scale training run; set ECGKIT_MITBIH_DIR and "
           "ECGKIT_RUN_FULL=1 to enable")


def test_format212_round_trip_and_reference_header():
    rng = np.random.default_rng(212)
    n = 100_000
    first = rng.integers(-2048, 2048, size=n)
    second = rng.integers(-2048, 2048, size=n)
    decoded = decode_format212(encode_format212([first, second]), n, 2)
    np.testing.assert_array_equal(decoded[0], first)
    np.testing.assert_array_equal(decoded[1], second)

    header = parse_header(
        "100 2 360 650000 0:0:0 0/0/0\n"
        "100.dat 212 200 11 1024 995 -22131 0 MLII\n"
        "100.dat 212 200 11 1024 1011 20052 0 V5\n")
    assert header.sampling_rate == 360.0
    assert header.n_samples == 650000
    assert header.lead_index("MLII") == 0
    assert [s.format_code for s in header.signals] == [212, 212]


def test_autodiff_matches_finite_differences_for_every_op():
    failures = []
    for name in sorted(gradcheck.CASES):
        for seed in range(gradcheck.N_SEEDS):
            rng = np.random.default_rng(seed * 7919 + 13)
            build_case, arrays = gradcheck.CASES[name](rng)
            try:
                gradcheck.assert_gradients_match(build_case, arrays, seed)
            except AssertionError as exc:
                failures.append(f"{name} seed {seed}: {exc}")
    assert not failures, "gradient mismatches:\n" + "\n".join(failures)


def test_focal_loss_with_unit_alpha_zero_gamma_is_cross_entropy():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        k = int(rng.integers(2, 6))
        logits = 3.0 * rng.normal(size=(n, k))
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        targets = rng.integers(0, k, size=n)
        focal = focal_loss(Tensor(probs), targets, alpha=1.0,
                           gamma=0.0).item()
        picked = np.clip(probs[np.arange(n), targets], 1e-12, None)
        worst = max(worst, abs(focal - float(-np.log(picked).mean())))
    assert worst < 1e-9


def test_both_sequence_models_fit_separable_toy_perfectly():
    for arch in ("cnn", "cnn_lstm"):
        dataset = toy_two_class(n_per_class=20, length=64, seed=0,
                                train_fraction=0.8)
        model = build(ModelDescriptor(arch=arch, input_len=64, n_classes=2),
                      seed=1)
        run = TrainRunConfig.for_arch(arch, epochs=30, batch_size=8,
                                      lr=1e-2)
        _, history, _ = train(model, dataset, run, seed=1)
        top = max(record.train_acc for record in history.records)
        assert top == 1.0, f"{arch} peaked at train accuracy {top}"


def test_balancing_restores_minority_classes_with_valid_synthetics():
    rng = np.random.default_rng(77)
    length = DEFAULT_BEAT_LEN
    before = {0: 96, 2: 64, 4: 48}
    rows, labels = [], []
    for label, count in sorted(before.items()):
        center = 30 + 30 * label
        for _ in range(count):
            rows.append(pulse_beat(rng, length, center))
            labels.append(label)
    dataset = beat_set(rows, labels, split="train", source="real")

    config = GanTrainConfig(epochs=1, batch_size=32, hidden=16,
                            dense_width=32)
    balance = GanTrainConfig(tau=0.2)
    deficits = balance_deficits(dataset, balance)
    synthetic = {}
    for label in (2, 4):
        gen, disc, _ = gan_train(dataset.X[dataset.y == label], label,
                                 config, seed=1000 + label)
        synthetic[label] = synthesize(gen, disc, deficits[label],
                                      tau=balance.tau, seed=[5, label])

    balanced = balance_dataset(dataset, synthetic, balance)
    after = balanced.counts_for_split("train")
    majority = max(after.values())
    for label in before:
        assert after[label] >= math.ceil(0.99 * majority)

    synthetic = balanced.X[balanced.source == "synthetic"]
    assert len(synthetic) == (96 - 64) + (96 - 48)
    for samples in synthetic:
        assert len(samples) == length
        assert float(samples.min()) >= 0.0
        assert float(samples.max()) <= 1.0


def test_threshold_metrics_and_auc_match_brute_force():
    rng = np.random.default_rng(505)
    for _ in range(50):
        n = int(rng.integers(10, 201))
        k = int(rng.integers(2, 6))
        y_true = rng.integers(0, k, size=n)
        y_pred = rng.integers(0, k, size=n)
        counts = [[0] * k for _ in range(k)]
        for t, p in zip(y_true.tolist(), y_pred.tolist()):
            counts[t][p] += 1
        matrix = confusion(y_true, y_pred, n_classes=k)
        assert matrix.counts.tolist() == counts

        bundle = prf1(matrix)
        assert bundle.accuracy == sum(counts[c][c] for c in range(k)) / n
        f1s = []
        for c in range(k):
            tp = counts[c][c]
            predicted = sum(counts[r][c] for r in range(k))
            actual = sum(counts[c][r] for r in range(k))
            precision = tp / predicted if predicted else 0.0
            recall = tp / actual if actual else 0.0
            f1 = (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
            assert bundle.precision[c] == precision
            assert bundle.recall[c] == recall
            assert bundle.f1[c] == f1
            f1s.append(f1)
        assert bundle.macro_f1 == sum(f1s) / k

        scores = rng.integers(0, 8, size=n) / 7.0   # coarse grid forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = 0.0
        for s_pos in pos:
            for s_neg in neg:
                if s_pos > s_neg:
                    wins += 1.0
                elif s_pos == s_neg:
                    wins += 0.5
        pairwise = wins / (len(pos) * len(neg))
        assert abs(roc_auc(scores, labels).auc - pairwise) <= 1e-9


def test_fusion_weights_match_reference_pair_and_scale_invariance():
    w_best, w_second = build_strategy(["best", "second"], [0.956, 0.951],
                                      "top2_weighted").weights
    assert abs(w_best - 0.50131) <= 1e-5
    assert abs(w_second - 0.49869) <= 1e-5
    assert abs((w_best + w_second) - 1.0) <= 1e-9

    ids = ["m0", "m1", "m2", "m3"]
    scores = [0.91, 0.956, 0.94, 0.951]
    for strategy in STRATEGIES:
        spec = build_strategy(ids, scores, strategy)
        assert abs(sum(spec.weights) - 1.0) <= 1e-9

    rng = np.random.default_rng(4)
    for _ in range(1000):
        n_models = int(rng.integers(2, 5))
        n = int(rng.integers(1, 8))
        mats = [rng.normal(size=(n, 5)) for _ in range(n_models)]
        raw = rng.uniform(0.1, 1.0, size=n_models)
        weights = raw / raw.sum()
        spec = EnsembleSpec(ids[:n_models], weights, "all_equal")
        base = predict_classes(fuse(spec, dict(zip(ids, mats))))
        scale = float(rng.uniform(0.25, 4.0))
        scaled = np.tensordot(weights * scale, np.stack(mats), axes=1)
        assert (predict_classes(scaled) == base).all()


def test_saliency_peak_tracks_the_discriminative_pulse():
    rng = np.random.default_rng(88)
    length = DEFAULT_BEAT_LEN
    rows, labels, centers = [], [], []
    for label in (0, 1):
        lo, hi = (25, 70) if label == 0 else (117, 162)
        for _ in range(60):
            center = int(rng.integers(lo, hi))
            rows.append(pulse_beat(rng, length, center))
            labels.append(label)
            centers.append(center)
    dataset = beat_set(rows, labels, source="real")
    stratified_split(dataset, 0.75, seed=3)

    model = build(ModelDescriptor(arch="cnn", input_len=length, n_classes=2),
                  seed=1)
    model, _, _ = train(model, dataset,
                     TrainRunConfig.for_arch("cnn", epochs=10, batch_size=16,
                                             lr=1e-2), seed=1)

    val = dataset.split == "val"
    held_out = list(zip(dataset.X[val], np.array(centers)[val]))
    stacked = dataset.X[val]
    predicted = predict_classes(model.logits_array(stacked))
    hits = 0
    for (samples, center), label in zip(held_out, predicted):
        saliency = grad_cam(model, samples, int(label))
        if abs(int(np.argmax(saliency.values)) - center) <= 10:
            hits += 1
    assert hits / len(held_out) >= 0.90


def _synthetic_beat(rng, label, length=DEFAULT_BEAT_LEN):
    """Five visually distinct morphologies on a noisy baseline."""
    t = np.linspace(0.0, 1.0, length)
    x = rng.normal(scale=0.05, size=length)
    if label == 0:
        x += np.exp(-0.5 * ((t - 0.50) / 0.02) ** 2)
    elif label == 1:
        x += np.exp(-0.5 * ((t - 0.30) / 0.02) ** 2)
        x -= 0.6 * np.exp(-0.5 * ((t - 0.70) / 0.05) ** 2)
    elif label == 2:
        x += np.exp(-0.5 * ((t - 0.35) / 0.12) ** 2)
    elif label == 3:
        x += np.exp(-0.5 * ((t - 0.40) / 0.02) ** 2)
        x += np.exp(-0.5 * ((t - 0.60) / 0.02) ** 2)
    else:
        x += t * (1.0 + 0.2 * np.sin(8.0 * np.pi * t))
    low = float(x.min())
    return ((x - low) / (float(x.max()) - low)).astype(np.float32)


def test_smoke_training_reaches_strong_macro_f1_on_synthetic_beats():
    rng = np.random.default_rng(909)
    labels = [label for label in range(5) for _ in range(400)]
    dataset = beat_set([_synthetic_beat(rng, label) for label in labels],
                       labels, source="real")
    stratified_split(dataset, 0.85, seed=17)

    start = time.monotonic()
    model = build(ModelDescriptor(arch="cnn"), seed=17)
    model, _, _ = train(model, dataset,
                     TrainRunConfig.for_arch("cnn", epochs=5), seed=17)
    elapsed = time.monotonic() - start

    val = dataset.split == "val"
    X, y = dataset.X[val], dataset.y[val]
    bundle = evaluate_predictions(y, predict_classes(model.logits_array(X)))
    assert bundle.macro_f1 >= 0.70
    assert elapsed <= 600.0


def _proportional_subset(dataset, n_total, seed):
    """Stratified subsample: largest-remainder quotas, >= 2 beats a class."""
    rng = np.random.default_rng(seed)
    by_label = {}
    for i, label in enumerate(dataset.y.tolist()):
        by_label.setdefault(label, []).append(i)
    total = len(dataset)
    quotas = {label: n_total * len(b) / total for label, b in by_label.items()}
    take = {label: int(q) for label, q in quotas.items()}
    leftover = n_total - sum(take.values())
    for label in sorted(by_label, key=lambda l: take[l] - quotas[l])[:leftover]:
        take[label] += 1
    chosen = []
    for label, beats in sorted(by_label.items()):
        want = min(len(beats), max(2, take[label]))
        picked = sorted(rng.permutation(len(beats))[:want].tolist())
        chosen.extend(beats[i] for i in picked)
    return BeatDataset(dataset.X[chosen], dataset.y[chosen],
                       dataset.split[chosen], dataset.source[chosen])


@needs_clinical_data
def test_smoke_training_on_clinical_subset():
    dataset = load_records_dir(MITBIH_DIR, lead="MLII")
    subset = _proportional_subset(dataset, 2000, seed=17)
    stratified_split(subset, 0.85, seed=17)

    start = time.monotonic()
    model = build(ModelDescriptor(arch="cnn"), seed=17)
    model, _, _ = train(model, subset,
                     TrainRunConfig.for_arch("cnn", epochs=5), seed=17)
    elapsed = time.monotonic() - start

    val = subset.split == "val"
    X, y = subset.X[val], subset.y[val]
    bundle = evaluate_predictions(y, predict_classes(model.logits_array(X)))
    assert bundle.macro_f1 >= 0.70
    assert elapsed <= 600.0


@functools.lru_cache(maxsize=1)
def _clinical_run():
    """Full pipeline on the clinical recordings, shared by the slow tests.

    Returns per-architecture held-out logits, their validation macro-F1
    scores, and the held-out labels.
    """
    dataset = load_records_dir(MITBIH_DIR, lead="MLII")
    stratified_split(dataset, 0.85, seed=17)

    train_counts = dataset.counts_for_split("train")
    majority = max(train_counts.values())
    balance = GanTrainConfig(tau=0.5)
    deficits = balance_deficits(dataset, balance)
    synthetic = {}
    for label, count in sorted(train_counts.items()):
        if 0 < count < majority:
            minority = dataset.X[(dataset.split == "train")
                                 & (dataset.y == label)]
            gen, disc, _ = gan_train(minority, label, GanTrainConfig(),
                                     seed=derive_seed(17, f"gan/{label}"))
            synthetic[label] = synthesize(gen, disc, deficits[label],
                                          tau=balance.tau, seed=[17, label])
    balanced = balance_dataset(dataset, synthetic, balance)

    y_val = balanced.y[balanced.split == "val"]
    logits = {}
    scores = {}
    for arch in ("cnn", "cnn_lstm"):
        model = build(ModelDescriptor(arch=arch),
                      seed=derive_seed(17, f"train/{arch}"))
        _, _, logits[arch] = train(model, balanced,
                                   TrainRunConfig.for_arch(arch), seed=17)
        scores[arch] = evaluate_predictions(
            y_val, predict_classes(logits[arch])).macro_f1
    return logits, scores, y_val


@needs_full_budget
def test_full_recurrent_model_macro_f1_in_expected_band():
    _, scores, _ = _clinical_run()
    assert 0.951 - 0.03 <= scores["cnn_lstm"] <= 0.955 + 0.03


@needs_full_budget
def test_full_weighted_pair_metrics_in_expected_bands():
    logits, scores, y_val = _clinical_run()
    spec = build_strategy(["cnn", "cnn_lstm"],
                          [scores["cnn"], scores["cnn_lstm"]], "top2_weighted")
    fused = fuse(spec, logits)
    bundle = evaluate_predictions(y_val, predict_classes(fused))
    assert abs(bundle.macro_f1 - 0.958) <= 0.03
    assert abs(bundle.macro_precision - 0.986) <= 0.02
    assert abs(bundle.macro_recall - 0.934) <= 0.03
