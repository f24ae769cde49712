import numpy as np
import pytest

from ecgkit.errors import MetricError, UsageError
from ecgkit.metrics import (
    BOOTSTRAP_BLOCK,
    ConfidenceInterval,
    ConfusionMatrix,
    block_macro_f1,
    bootstrap_ci,
    confusion,
    evaluate_predictions,
    one_vs_rest_auc,
    prf1,
    roc_auc,
)

from helpers import reference_bootstrap, reference_macro_f1


def brute_force_confusion(y_true, y_pred, k):
    counts = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        counts[t][p] += 1
    return counts


def brute_force_auc(scores, labels):
    """Average pairwise concordance with half-credit for tied scores."""
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    credit = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                credit += 1.0
            elif p == n:
                credit += 0.5
    return credit / (len(pos) * len(neg))


class TestConfusion:
    def test_two_class_worked_example(self):
        matrix = confusion([0, 0, 1], [0, 1, 1], n_classes=2)
        np.testing.assert_array_equal(matrix.counts, [[1, 1], [0, 1]])

    def test_perfect_predictions_are_diagonal(self):
        y = np.array([0, 1, 2, 3, 4, 2, 2])
        matrix = confusion(y, y)
        assert (matrix.counts == np.diag(np.diag(matrix.counts))).all()
        np.testing.assert_array_equal(np.diag(matrix.counts),
                                      [1, 1, 3, 1, 1])

    def test_matches_brute_force_tally(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 5, size=500)
        y_pred = rng.integers(0, 5, size=500)
        matrix = confusion(y_true, y_pred)
        np.testing.assert_array_equal(
            matrix.counts, brute_force_confusion(y_true, y_pred, 5))
        assert matrix.n_samples == 500

    def test_label_validation(self):
        with pytest.raises(UsageError):
            confusion([0, 1], [0])
        with pytest.raises(UsageError):
            confusion([0, 5], [0, 0])
        with pytest.raises(UsageError):
            confusion([0, 0], [0, -1])

    def test_normalized_rows(self):
        matrix = confusion([0, 0, 0, 1], [0, 0, 1, 1], n_classes=3)
        rates = matrix.normalized()
        np.testing.assert_allclose(rates[0], [2 / 3, 1 / 3, 0], atol=1e-12)
        np.testing.assert_allclose(rates[1], [0, 1, 0], atol=1e-12)
        # class 2 has no support: its row stays exactly zero
        np.testing.assert_array_equal(rates[2], [0, 0, 0])
        occupied = matrix.support() > 0
        np.testing.assert_allclose(rates[occupied].sum(axis=1), 1.0,
                                   atol=1e-9)


class TestPrf1:
    def test_diagonal_gives_ones(self):
        bundle = prf1(ConfusionMatrix(np.diag([3, 1, 4, 1, 5])))
        assert bundle.accuracy == 1.0
        assert bundle.precision == (1.0,) * 5
        assert bundle.recall == (1.0,) * 5
        assert bundle.f1 == (1.0,) * 5
        assert bundle.macro_f1 == 1.0

    def test_never_predicted_class_scores_zero(self):
        bundle = prf1(confusion([2, 2, 0], [0, 0, 0], n_classes=3))
        assert bundle.precision[2] == 0.0
        assert bundle.recall[2] == 0.0
        assert bundle.f1[2] == 0.0

    def test_hand_computed_three_class_case(self):
        counts = np.array([[5, 1, 0],
                           [2, 3, 0],
                           [0, 0, 4]])
        bundle = prf1(ConfusionMatrix(counts))
        assert bundle.accuracy == pytest.approx(12 / 15)
        assert bundle.precision[0] == pytest.approx(5 / 7)
        assert bundle.recall[0] == pytest.approx(5 / 6)
        assert bundle.precision[1] == pytest.approx(3 / 4)
        assert bundle.recall[1] == pytest.approx(3 / 5)
        assert bundle.f1[2] == 1.0
        assert bundle.macro_precision == pytest.approx(
            (5 / 7 + 3 / 4 + 1) / 3)

    def test_accuracy_is_trace_over_n(self):
        rng = np.random.default_rng(1)
        y_true = rng.integers(0, 5, size=200)
        y_pred = rng.integers(0, 5, size=200)
        matrix = confusion(y_true, y_pred)
        bundle = prf1(matrix)
        assert bundle.accuracy == np.trace(matrix.counts) / 200

    def test_f1_between_precision_and_recall(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            y_true = rng.integers(0, 5, size=120)
            y_pred = rng.integers(0, 5, size=120)
            bundle = prf1(confusion(y_true, y_pred))
            for p, r, f in zip(bundle.precision, bundle.recall, bundle.f1):
                assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12
                if p + r > 0:
                    assert f == pytest.approx(2 * p * r / (p + r))

    def test_macro_is_unweighted_mean(self):
        bundle = prf1(confusion([0, 1, 1, 2], [0, 1, 2, 2], n_classes=3))
        assert bundle.macro_f1 == pytest.approx(np.mean(bundle.f1))
        assert bundle.macro_precision == pytest.approx(
            np.mean(bundle.precision))

    def test_empty_matrix_rejected(self):
        with pytest.raises(MetricError):
            prf1(ConfusionMatrix(np.zeros((5, 5), dtype=np.int64)))

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(3)
        y_true = rng.integers(0, 5, size=80)
        y_pred = rng.integers(0, 3, size=80)
        bundle = prf1(confusion(y_true, y_pred))
        values = [bundle.accuracy, bundle.macro_precision,
                  bundle.macro_recall, bundle.macro_f1,
                  *bundle.precision, *bundle.recall, *bundle.f1]
        assert all(0.0 <= v <= 1.0 for v in values)


class TestRocAuc:
    def test_perfect_separation(self):
        curve = roc_auc([0.9, 0.8, 0.3, 0.2], [1, 1, 0, 0])
        assert curve.auc == 1.0

    def test_three_of_four_pairs_concordant(self):
        curve = roc_auc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0])
        assert curve.auc == pytest.approx(0.75, abs=1e-12)

    def test_all_ties_give_half(self):
        curve = roc_auc([0.4, 0.4, 0.4, 0.4], [1, 0, 1, 0])
        assert curve.auc == pytest.approx(0.5, abs=1e-12)

    def test_inverted_ranking_gives_zero(self):
        curve = roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0])
        assert curve.auc == 0.0

    def test_curve_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(4)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50).astype(bool)
        labels[0], labels[1] = True, False
        curve = roc_auc(scores, labels)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()

    def test_sweep_equals_pairwise_on_random_instances(self):
        rng = np.random.default_rng(5)
        for trial in range(50):
            n = int(rng.integers(5, 201))
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), 2)
            labels = rng.integers(0, 2, size=n).astype(bool)
            if labels.all() or not labels.any():
                labels[0] = ~labels[0]
            fast = roc_auc(scores, labels).auc
            slow = brute_force_auc(scores, labels)
            assert abs(fast - slow) < 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            roc_auc([0.1, 0.9], [1, 1])
        with pytest.raises(MetricError):
            roc_auc([0.1, 0.9], [0, 0])


class TestOneVsRest:
    def test_perfect_probabilities(self):
        y = np.array([0, 1, 2, 3, 4] * 3)
        probs = np.eye(5)[y]
        per_class, macro, curves = one_vs_rest_auc(probs, y)
        assert per_class == (1.0,) * 5
        assert macro == 1.0
        assert sorted(curves) == [0, 1, 2, 3, 4]

    def test_absent_class_skipped(self):
        y = np.array([0, 0, 1, 1])
        probs = np.array([[0.7, 0.1, 0.05, 0.05, 0.1],
                          [0.6, 0.2, 0.05, 0.05, 0.1],
                          [0.2, 0.6, 0.05, 0.05, 0.1],
                          [0.1, 0.7, 0.05, 0.05, 0.1]])
        per_class, macro, curves = one_vs_rest_auc(probs, y)
        assert per_class[0] == 1.0 and per_class[1] == 1.0
        assert per_class[2] is None
        assert macro == 1.0
        assert sorted(curves) == [0, 1]

    def test_single_class_labels_rejected(self):
        probs = np.full((4, 5), 0.2)
        with pytest.raises(MetricError):
            one_vs_rest_auc(probs, np.zeros(4, dtype=int))

    def test_bundle_integration(self):
        rng = np.random.default_rng(6)
        y = rng.integers(0, 5, size=60)
        logits = rng.normal(size=(60, 5))
        logits[np.arange(60), y] += 3.0
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        bundle = evaluate_predictions(y, probs.argmax(axis=1), probs)
        assert bundle.macro_auc is not None
        assert all(a is None or 0 <= a <= 1 for a in bundle.auc)
        report = bundle.to_dict()
        assert set(report) == {"accuracy", "macro", "per_class"}
        assert "auc" in report["per_class"]["N"]


def row_mean(block):
    return block.mean(axis=1)


class TestBootstrap:
    def test_all_correct_collapses_to_one(self):
        outcomes = np.ones(50)
        ci = bootstrap_ci(outcomes, row_mean, seed=0, name="mean")
        assert (ci.lower, ci.mean, ci.upper) == (1.0, 1.0, 1.0)

    def test_fixed_seed_is_deterministic(self):
        rng = np.random.default_rng(7)
        outcomes = (rng.random(100) < 0.9).astype(float)
        a = bootstrap_ci(outcomes, row_mean, seed=3, name="mean")
        b = bootstrap_ci(outcomes, row_mean, seed=3, name="mean")
        assert (a.lower, a.mean, a.upper) == (b.lower, b.mean, b.upper)

    def test_degenerate_distribution_still_covers_mean(self):
        # averaging 150 copies of 0.4 drifts a ulp below 0.4; the interval
        # must still contain its own mean
        ci = bootstrap_ci(np.zeros(40),
                          lambda block: np.full(len(block), 0.4),
                          n_resamples=150, seed=0, name="const")
        assert ci.lower <= ci.mean <= ci.upper
        assert ci.lower == pytest.approx(0.4)
        assert ci.upper == 0.4

    def test_width_shrinks_with_sample_size(self):
        outcomes_small = np.zeros(100)
        outcomes_small[:90] = 1.0
        outcomes_big = np.zeros(10000)
        outcomes_big[:9000] = 1.0
        narrow = bootstrap_ci(outcomes_big, row_mean, seed=1, name="mean")
        wide = bootstrap_ci(outcomes_small, row_mean, seed=1,
                            name="mean")
        ratio = (wide.upper - wide.lower) / (narrow.upper - narrow.lower)
        # binomial standard error predicts a factor of ~10
        assert 5 < ratio < 20

    def test_interval_covers_mean(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            outcomes = rng.random(60)
            ci = bootstrap_ci(outcomes, row_mean, seed=seed, name="mean")
            assert ci.lower <= ci.mean <= ci.upper

    def test_preconditions(self):
        with pytest.raises(MetricError):
            bootstrap_ci(np.ones(29), row_mean, seed=17, name="mean")
        with pytest.raises(MetricError):
            bootstrap_ci(np.ones(50), row_mean, n_resamples=99, seed=17,
                         name="mean")

    def test_accepts_paired_outcomes(self):
        rng = np.random.default_rng(9)
        paired = np.stack([rng.integers(0, 5, 80),
                           rng.integers(0, 5, 80)], axis=1)

        def macro_f1(block):
            from ecgkit.metrics import confusion as cm
            return [prf1(cm(rows[:, 0], rows[:, 1])).macro_f1
                    for rows in block]

        ci = bootstrap_ci(paired, macro_f1, n_resamples=200, seed=2,
                          name="macro_f1")
        assert 0.0 <= ci.lower <= ci.upper <= 1.0
        assert ci.name == "macro_f1"

    def test_interval_invariant_enforced(self):
        with pytest.raises(MetricError):
            ConfidenceInterval("x", mean=2.0, lower=0.0, upper=1.0)

    @pytest.mark.parametrize("n", [30, 111, 900])
    @pytest.mark.parametrize("n_resamples", [100, 1000, 2 * BOOTSTRAP_BLOCK,
                                             3 * BOOTSTRAP_BLOCK + 1])
    def test_blocks_equal_per_resample_reference(self, n, n_resamples):
        # the statistics evaluate and ensemble pass, bit for bit against
        # scoring one resample at a time on the same random stream
        rng = np.random.default_rng(n)
        y_true = rng.integers(0, 5, n)
        y_pred = np.where(rng.random(n) < 0.7, y_true, rng.integers(0, 5, n))
        correct = (y_pred == y_true).astype(np.float64)
        pairs = np.stack([y_true, y_pred], axis=1)
        for outcomes, block_fn, one_fn in (
                (correct, row_mean, lambda a: float(a.mean())),
                (pairs, block_macro_f1, reference_macro_f1)):
            ci = bootstrap_ci(outcomes, block_fn, seed=n_resamples,
                              name="x", n_resamples=n_resamples)
            assert (ci.mean, ci.lower, ci.upper) == reference_bootstrap(
                outcomes, one_fn, n_resamples, n_resamples)

    def test_block_macro_f1_refuses_labels_outside_the_classes(self):
        pairs = np.zeros((2, 40, 2), dtype=np.int64)
        pairs[1, 3, 1] = 5
        with pytest.raises(UsageError, match="outside 0..4"):
            block_macro_f1(pairs)

    def test_metric_fn_must_give_one_value_per_resample(self):
        with pytest.raises(UsageError, match=f"{BOOTSTRAP_BLOCK} values, got shape"):
            bootstrap_ci(np.ones(40), np.mean, seed=0, name="mean")

    def test_resample_count_recorded(self):
        ci = bootstrap_ci(np.ones(40), row_mean, n_resamples=250, seed=0,
                          name="mean")
        assert ci.n_resamples == 250
