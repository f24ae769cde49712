import csv
import hashlib

import numpy as np
import pytest

from ecgkit.errors import ConfigError, ParseError, ShapeError, UsageError
from ecgkit.ensemble import (
    STRATEGIES,
    EnsembleSpec,
    ManifestEntry,
    build_strategy,
    fuse,
    load_manifest,
    predict_classes,
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


def spec_for(weights):
    """An all-members spec over ids m0, m1, ... with the given weights."""
    return EnsembleSpec([f"m{i}" for i in range(len(weights))], weights,
                        "all_equal")


def by_id(matrices):
    return {f"m{i}": m for i, m in enumerate(matrices)}


class TestFuse:
    def test_equal_weights_tie_goes_to_lowest_index(self):
        logits = by_id([np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])])
        fused = fuse(spec_for([0.5, 0.5]), logits)
        np.testing.assert_allclose(fused, [[0.5, 0.5]])
        assert predict_classes(fused)[0] == 0

    def test_degenerate_weight_recovers_single_model(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(2, 10, 5))
        fused = fuse(spec_for([1.0, 0.0]), by_id([a, b]))
        np.testing.assert_array_equal(fused, a)
        np.testing.assert_array_equal(predict_classes(fused),
                                      a.argmax(axis=1))

    def test_three_model_weighted_sum_matches_direct_computation(self):
        rng = np.random.default_rng(1)
        mats = [rng.normal(size=(20, 5)) for _ in range(3)]
        weights = np.array([0.5, 0.3, 0.2])
        fused = fuse(spec_for(weights), by_id(mats))
        direct = weights[0] * mats[0] + weights[1] * mats[1] \
            + weights[2] * mats[2]
        np.testing.assert_allclose(fused, direct, atol=1e-12)

    def test_member_shapes_must_agree(self):
        with pytest.raises(ShapeError):
            fuse(spec_for([0.5, 0.5]), by_id([np.zeros((4, 5)),
                                              np.zeros((3, 5))]))
        with pytest.raises(ShapeError):
            fuse(spec_for([0.5, 0.5]), by_id([np.zeros((4, 5)),
                                              np.zeros((4, 2))]))
        with pytest.raises(ShapeError):
            fuse(spec_for([0.5, 0.5]), by_id([np.zeros(4), np.zeros(4)]))

    def test_shared_argmax_survives_fusion(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            base = rng.normal(size=(3, 30, 5))
            winners = rng.integers(0, 5, size=30)
            base[:, np.arange(30), winners] += 10.0
            raw = rng.random(3)
            weights = raw / raw.sum()
            fused = fuse(spec_for(weights), by_id(list(base)))
            np.testing.assert_array_equal(predict_classes(fused), winners)

    def test_weight_scaling_leaves_predictions_unchanged(self):
        rng = np.random.default_rng(4)
        mats = by_id([rng.normal(size=(40, 5)) for _ in range(3)])
        raw = np.array([0.2, 0.5, 0.3])
        for c in (0.1, 3.0, 250.0):
            scaled = (c * raw) / (c * raw).sum()
            a = predict_classes(fuse(spec_for(raw), mats))
            b = predict_classes(fuse(spec_for(scaled), mats))
            np.testing.assert_array_equal(a, b)

    def test_exact_tie_prefers_lowest_class(self):
        fused = np.array([[0.3, 0.7, 0.7, 0.1, 0.0],
                          [0.2, 0.2, 0.2, 0.2, 0.2]])
        np.testing.assert_array_equal(predict_classes(fused), [1, 0])


# sha256 of fuse's float64 output for each strategy over 4 seeded float32
# members of shape [300, 5], as Model.logits_array returns them; taken
# before fuse took an EnsembleSpec, so the rewrite kept the bytes
FUSED_SHA256 = {
    "all_equal":
        "44f7d0ff6eb27509587a9c0eb70790df8fccb645cf9499077e208808fb44a746",
    "top3_equal":
        "eb305eada6e8230a6b1b110fb211533d0fad1554318b2a1746b47a286cffeaf4",
    "top2_equal":
        "e1d1192e1013190a6e008f0011f60fc0b1e9f5cf18ad8b873a0990237a47f84a",
    "top2_weighted":
        "5642e74751ffa127bd926308eb7cc930768559e64a1c28e8b6813dfe0ce92547",
}


class TestFusedBytes:
    @pytest.mark.parametrize("strategy", list(STRATEGIES))
    def test_fused_bytes_pinned(self, strategy):
        rng = np.random.default_rng(2026)
        logits = {m: rng.normal(size=(300, 5)).astype(np.float32)
                  for m in MODELS}
        spec = build_strategy(MODELS, [0.948, 0.951, 0.93, 0.956], strategy)
        fused = fuse(spec, logits)
        assert fused.dtype == np.float64 and fused.shape == (300, 5)
        assert hashlib.sha256(fused.tobytes()).hexdigest() \
            == FUSED_SHA256[strategy]


def top2(best, second):
    return build_strategy(["a", "b"], [best, second], "top2_weighted")


class TestTop2Weights:
    def test_reported_scores_worked_example(self):
        w1, w2 = top2(0.956, 0.951).weights
        assert w1 == pytest.approx(0.50131, abs=1e-5)
        assert w2 == pytest.approx(0.49869, abs=1e-5)
        assert w1 + w2 == pytest.approx(1.0, abs=1e-9)

    def test_equal_scores_split_evenly(self):
        assert top2(0.9, 0.9).weights == (0.5, 0.5)

    def test_vanishing_second_score(self):
        w1, w2 = top2(1.0, 1e-9).weights
        assert w1 == pytest.approx(1.0, abs=1e-8)
        assert w2 == pytest.approx(0.0, abs=1e-8)

    def test_order_preserved(self):
        w1, w2 = top2(0.97, 0.91).weights
        assert w1 > w2

    def test_both_zero_rejected(self):
        with pytest.raises(UsageError):
            top2(0.0, 0.0)

    def test_range_checked(self):
        with pytest.raises(UsageError):
            top2(1.2, 0.5)
        with pytest.raises(UsageError):
            top2(0.5, -0.1)


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
        assert spec.weights == (0.956 / (0.956 + 0.951),
                                0.951 / (0.956 + 0.951))

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

    def test_ranking_is_stable(self):
        spec = build_strategy(MODELS, [0.5, 0.9, 0.9, 0.1], "top3_equal")
        assert spec.members == (MODELS[1], MODELS[2], MODELS[0])


class TestLogitCsv:
    def test_rows_hold_index_and_exact_logits(self, tmp_path):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(7, 5)).astype(np.float32).astype(np.float64)
        path = write_logits_csv(tmp_path / "m.csv", logits)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["sample_id"] + [f"logit_{k}" for k in range(5)]
        assert [row[0] for row in rows[1:]] == [str(i) for i in range(7)]
        np.testing.assert_array_equal(
            [[float(v) for v in row[1:]] for row in rows[1:]], logits)


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

    def test_repeated_key_is_parse_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"models": [{"id": "cnn", "checkpoint": "c", '
                        '"id": "rnn", "val_macro_f1": 0.9}]}')
        with pytest.raises(ParseError, match="repeats key 'id'"):
            load_manifest(path)

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

    def test_score_beyond_float_range_is_config_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"models": [{"id": "cnn", "checkpoint": "c", '
                        '"val_macro_f1": 1' + "0" * 400 + '}]}')
        with pytest.raises(ConfigError):
            load_manifest(path)

    def test_empty_model_list_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"models": []}')
        with pytest.raises(ConfigError):
            load_manifest(path)
