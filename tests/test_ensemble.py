import numpy as np
import pytest

from ecgkit.errors import ConfigError, ParseError, ShapeError, UsageError
from ecgkit.ensemble import (
    EnsembleSpec,
    LogitSet,
    ManifestEntry,
    build_strategy,
    fuse,
    load_manifest,
    predict_classes,
    rank_members,
    read_logits_csv,
    top2_weights,
    write_logits_csv,
    write_manifest,
)

MODELS = ["cnn", "cnn_lstm", "cnn_lstm_attn", "resnet1d"]


class TestEnsembleSpec:
    def test_valid_spec(self):
        spec = EnsembleSpec(("a", "b"), (0.6, 0.4), "top2_weighted")
        assert spec.to_dict() == {"strategy": "top2_weighted",
                                  "members": ["a", "b"],
                                  "weights": [0.6, 0.4]}

    def test_needs_two_members(self):
        with pytest.raises(ConfigError):
            EnsembleSpec(("a",), (1.0,), "all_equal")

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            EnsembleSpec(("a", "b"), (0.6, 0.5), "all_equal")

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ConfigError):
            EnsembleSpec(("a", "b"), (1.5, -0.5), "all_equal")

    def test_strategy_must_be_known(self):
        with pytest.raises(ConfigError):
            EnsembleSpec(("a", "b"), (0.5, 0.5), "stacked")

    def test_member_weight_count_must_match(self):
        with pytest.raises(ConfigError):
            EnsembleSpec(("a", "b", "c"), (0.5, 0.5), "all_equal")


class TestLogitSet:
    def test_shape_agreement_required(self):
        good = LogitSet([np.zeros((4, 5)), np.ones((4, 5))])
        assert len(good) == 2
        assert [m.shape for m in good.matrices] == [(4, 5), (4, 5)]
        with pytest.raises(ShapeError):
            LogitSet([np.zeros((4, 5)), np.zeros((3, 5))])
        with pytest.raises(ShapeError):
            LogitSet([])
        with pytest.raises(ShapeError):
            LogitSet([np.zeros(4)])


class TestFuse:
    def test_equal_weights_tie_goes_to_lowest_index(self):
        logits = LogitSet([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
        fused = fuse(logits, [0.5, 0.5])
        np.testing.assert_allclose(fused, [[0.5, 0.5]])
        assert predict_classes(fused)[0] == 0

    def test_degenerate_weight_recovers_single_model(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 10, 5))
        fused = fuse(LogitSet([a, b]), [1.0, 0.0])
        np.testing.assert_array_equal(fused, a)
        np.testing.assert_array_equal(predict_classes(fused),
                                      a.argmax(axis=1))

    def test_three_model_weighted_sum_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        mats = [rng.normal(size=(20, 5)) for _ in range(3)]
        weights = np.array([0.5, 0.3, 0.2])
        fused = fuse(LogitSet(mats), weights)
        direct = weights[0] * mats[0] + weights[1] * mats[1] \
            + weights[2] * mats[2]
        np.testing.assert_allclose(fused, direct, atol=1e-12)

    def test_single_member_identity(self):
        rng = np.random.default_rng(2)
        only = rng.normal(size=(6, 5))
        np.testing.assert_array_equal(fuse(LogitSet([only]), [1.0]), only)

    def test_weight_validation(self):
        logits = LogitSet([np.zeros((2, 5)), np.zeros((2, 5))])
        with pytest.raises(ShapeError):
            fuse(logits, [1.0])
        with pytest.raises(ConfigError):
            fuse(logits, [0.7, 0.7])
        with pytest.raises(ConfigError):
            fuse(logits, [1.5, -0.5])

    def test_shared_argmax_survives_fusion(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            base = rng.normal(size=(3, 30, 5))
            winners = rng.integers(0, 5, size=30)
            base[:, np.arange(30), winners] += 10.0
            raw = rng.random(3)
            weights = raw / raw.sum()
            fused = fuse(LogitSet(list(base)), weights)
            np.testing.assert_array_equal(predict_classes(fused), winners)

    def test_weight_scaling_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(4)
        mats = [rng.normal(size=(40, 5)) for _ in range(3)]
        raw = np.array([0.2, 0.5, 0.3])
        for c in (0.1, 3.0, 250.0):
            scaled = (c * raw) / (c * raw).sum()
            a = predict_classes(fuse(LogitSet(mats), raw))
            b = predict_classes(fuse(LogitSet(mats), scaled))
            np.testing.assert_array_equal(a, b)

    def test_exact_tie_prefers_lowest_class(self):
        fused = np.array([[0.3, 0.7, 0.7, 0.1, 0.0],
                          [0.2, 0.2, 0.2, 0.2, 0.2]])
        np.testing.assert_array_equal(predict_classes(fused), [1, 0])


class TestTop2Weights:
    def test_reported_scores_worked_example(self):
        w1, w2 = top2_weights(0.956, 0.951)
        assert w1 == pytest.approx(0.50131, abs=1e-5)
        assert w2 == pytest.approx(0.49869, abs=1e-5)
        assert w1 + w2 == pytest.approx(1.0, abs=1e-9)

    def test_equal_scores_split_evenly(self):
        assert top2_weights(0.9, 0.9) == (0.5, 0.5)

    def test_vanishing_second_score(self):
        w1, w2 = top2_weights(1.0, 1e-9)
        assert w1 == pytest.approx(1.0, abs=1e-8)
        assert w2 == pytest.approx(0.0, abs=1e-8)

    def test_order_preserved(self):
        w1, w2 = top2_weights(0.97, 0.91)
        assert w1 > w2

    def test_both_zero_rejected(self):
        with pytest.raises(UsageError):
            top2_weights(0.0, 0.0)

    def test_range_checked(self):
        with pytest.raises(UsageError):
            top2_weights(1.2, 0.5)
        with pytest.raises(UsageError):
            top2_weights(0.5, -0.1)


class TestBuildStrategy:
    SCORES = [0.956, 0.951, 0.948, 0.93]

    def test_all_equal(self):
        spec = build_strategy(MODELS, self.SCORES, "all_equal")
        assert spec.members == tuple(MODELS)
        assert spec.weights == (0.25, 0.25, 0.25, 0.25)

    def test_top3_sorts_and_slices(self):
        spec = build_strategy(MODELS, [0.9, 0.8, 0.7, 0.6], "top3_equal")
        assert spec.members == ("cnn", "cnn_lstm", "cnn_lstm_attn")
        assert spec.weights == (1 / 3, 1 / 3, 1 / 3)

    def test_top2_picks_best_pair(self):
        spec = build_strategy(MODELS, self.SCORES, "top2_equal")
        assert spec.members == ("cnn", "cnn_lstm")
        assert spec.weights == (0.5, 0.5)

    def test_top2_weighted_uses_score_ratio(self):
        spec = build_strategy(MODELS, self.SCORES, "top2_weighted")
        assert spec.members == ("cnn", "cnn_lstm")
        assert spec.weights == top2_weights(0.956, 0.951)

    def test_ranking_is_order_independent_of_listing(self):
        spec = build_strategy(MODELS[::-1], self.SCORES[::-1], "top2_equal")
        assert spec.members == ("cnn", "cnn_lstm")

    def test_tied_scores_keep_manifest_order(self):
        spec = build_strategy(MODELS, [0.9, 0.9, 0.9, 0.8], "top2_equal")
        assert spec.members == ("cnn", "cnn_lstm")

    def test_duplicate_refs_rejected(self):
        with pytest.raises(ConfigError):
            build_strategy(["cnn", "cnn"], [0.9, 0.8], "top2_equal")

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            build_strategy(MODELS, self.SCORES, "median")

    def test_member_minimums(self):
        with pytest.raises(ConfigError):
            build_strategy(MODELS[:2], self.SCORES[:2], "top3_equal")
        with pytest.raises(ConfigError):
            build_strategy(MODELS[:1], self.SCORES[:1], "all_equal")

    def test_score_count_must_match(self):
        with pytest.raises(UsageError):
            build_strategy(MODELS, [0.9, 0.8], "all_equal")

    def test_every_strategy_emits_valid_spec(self):
        rng = np.random.default_rng(5)
        for strategy in ("all_equal", "top3_equal", "top2_equal",
                         "top2_weighted"):
            scores = rng.uniform(0.3, 0.99, size=4).tolist()
            spec = build_strategy(MODELS, scores, strategy)
            assert abs(sum(spec.weights) - 1.0) <= 1e-9
            assert all(w >= 0 for w in spec.weights)

    def test_rank_members_stable(self):
        np.testing.assert_array_equal(rank_members([0.5, 0.9, 0.9, 0.1]),
                                      [1, 2, 0, 3])


class TestLogitCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(7, 5)).astype(np.float32).astype(np.float64)
        path = write_logits_csv(tmp_path / "m.csv", logits)
        sample_ids, loaded = read_logits_csv(path)
        assert sample_ids == [str(i) for i in range(7)]
        np.testing.assert_array_equal(loaded, logits)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,l0,l1,l2,l3,l4\n0,1,2,3,4,5\n")
        with pytest.raises(ParseError):
            read_logits_csv(path)

    def test_row_width_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sample_id,logit_0,logit_1\n0,1.0\n")
        with pytest.raises(ParseError) as exc:
            read_logits_csv(path)
        assert exc.value.line == 2

    def test_bad_value_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sample_id,logit_0,logit_1\n0,1.0,x\n")
        with pytest.raises(ParseError) as exc:
            read_logits_csv(path)
        assert exc.value.line == 2


class TestManifest:
    def entries(self):
        return [ManifestEntry("cnn", "cnn.ckpt", 0.956),
                ManifestEntry("resnet1d", "res.ckpt", 0.93)]

    def test_round_trip(self, tmp_path):
        path = write_manifest(tmp_path / "models.json", self.entries())
        loaded = load_manifest(path)
        assert loaded == self.entries()

    def test_duplicate_ids_rejected(self, tmp_path):
        path = write_manifest(tmp_path / "m.json",
                              [ManifestEntry("cnn", "a.ckpt", 0.9),
                               ManifestEntry("cnn", "b.ckpt", 0.8)])
        with pytest.raises(ConfigError):
            load_manifest(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"models": [{"id": "cnn", "checkpoint": "c", '
                        '"val_macro_f1": 0.9, "extra": 1}]}')
        with pytest.raises(ConfigError) as exc:
            load_manifest(path)
        assert "extra" in str(exc.value)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"models": [{"id": "cnn"}]}')
        with pytest.raises(ConfigError):
            load_manifest(path)

    def test_score_range_enforced(self):
        with pytest.raises(ConfigError):
            ManifestEntry("cnn", "c.ckpt", 1.5)

    def test_bad_json_is_parse_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_missing_file_is_io_error(self, tmp_path):
        from ecgkit.errors import IoError
        with pytest.raises(IoError):
            load_manifest(tmp_path / "absent.json")

    def test_empty_model_list_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"models": []}')
        with pytest.raises(ConfigError):
            load_manifest(path)
