import hashlib

import numpy as np
import pytest

from ecgkit.ensemble import EnsembleSpec
from ecgkit.errors import IoError
from ecgkit.gradcam import SaliencyMap
from ecgkit.metrics import (bootstrap_ci, confusion, evaluate_predictions,
                            roc_auc)
from ecgkit.report import render_report


def draws(seed=0):
    """Labels and softmax probabilities that mostly agree with them."""
    rng = np.random.default_rng(seed)
    y_true = rng.integers(0, 5, size=100)
    logits = rng.normal(size=(100, 5))
    logits[np.arange(100), y_true] += 2.5
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return y_true, probs


def reference_matrix(seed=0):
    y_true, probs = draws(seed)
    return confusion(y_true, probs.argmax(axis=1))


def full_inputs(seed=0):
    y_true, probs = draws(seed)
    y_pred = probs.argmax(axis=1)
    metrics = evaluate_predictions(y_true, y_pred, probs)
    cis = [bootstrap_ci((y_true == y_pred).astype(float),
                        lambda block: block.mean(axis=1),
                        n_resamples=200, seed=1, name="accuracy")]
    values = np.linspace(0, 1, 64)
    saliency = {"7": SaliencyMap(values, 1, values.copy()),
                "12": SaliencyMap(values[::-1].copy(), 2, values.copy())}
    ensemble = EnsembleSpec(("cnn", "cnn_lstm"), (0.50131, 0.49869),
                            "top2_weighted")
    return dict(metrics=metrics, cis=cis, saliency=saliency,
                ensemble=ensemble)


def tree_digest(root):
    digest = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digest


class TestRenderReport:
    def test_full_render_writes_expected_files(self, tmp_path):
        out = tmp_path / "report"
        written = render_report(out, **full_inputs())
        names = {p.name for p in written}
        expected = {"metrics.json", "confusion.csv",
                    "confusion_normalized.csv", "ci.csv",
                    "gradcam_7.csv", "gradcam_12.csv"}
        expected |= {f"roc_class_{k}.csv" for k in range(5)}
        assert names == expected
        on_disk = {p.name for p in out.iterdir()}
        assert on_disk == expected

    def test_rerender_is_byte_identical(self, tmp_path):
        out = tmp_path / "report"
        render_report(out, **full_inputs())
        first = tree_digest(out)
        render_report(out, **full_inputs())
        assert tree_digest(out) == first

    def test_metrics_json_carries_ensemble_weights(self, tmp_path):
        import json
        out = tmp_path / "report"
        render_report(out, **full_inputs())
        payload = json.loads((out / "metrics.json").read_text())
        assert payload["ensemble"]["strategy"] == "top2_weighted"
        assert payload["ensemble"]["weights"] == [0.50131, 0.49869]
        assert 0 <= payload["accuracy"] <= 1
        assert set(payload["per_class"]) == {"N", "A", "V", "f", "F"}

    def test_confusion_csv_matches_counts(self, tmp_path):
        inputs = full_inputs()
        out = tmp_path / "report"
        render_report(out, **inputs)
        lines = (out / "confusion.csv").read_text().strip().split("\n")
        assert lines[0] == ",N,A,V,f,F"
        for row_index, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert cells[0] == ",N,A,V,f,F".split(",")[row_index + 1]
            np.testing.assert_array_equal(
                [int(c) for c in cells[1:]],
                reference_matrix().counts[row_index])

    def test_normalized_rows_parse_back(self, tmp_path):
        inputs = full_inputs()
        out = tmp_path / "report"
        render_report(out, **inputs)
        lines = (out / "confusion_normalized.csv").read_text().strip() \
            .split("\n")[1:]
        parsed = np.array([[float(c) for c in line.split(",")[1:]]
                           for line in lines])
        np.testing.assert_array_equal(parsed,
                                      reference_matrix().normalized())

    def test_roc_csv_round_trips(self, tmp_path):
        inputs = full_inputs()
        out = tmp_path / "report"
        render_report(out, **inputs)
        y_true, probs = draws()
        for k in range(5):
            curve = roc_auc(probs[:, k], y_true == k)
            lines = (out / f"roc_class_{k}.csv").read_text().strip() \
                .split("\n")
            assert lines[0] == "fpr,tpr"
            rows = np.array([[float(v) for v in line.split(",")]
                             for line in lines[1:]])
            np.testing.assert_array_equal(rows[:, 0], curve.fpr)
            np.testing.assert_array_equal(rows[:, 1], curve.tpr)

    def test_ci_csv_content(self, tmp_path):
        inputs = full_inputs()
        out = tmp_path / "report"
        render_report(out, **inputs)
        lines = (out / "ci.csv").read_text().strip().split("\n")
        assert lines[0] == "metric,mean,lower,upper,level,n_resamples"
        cells = lines[1].split(",")
        assert cells[0] == "accuracy"
        ci = inputs["cis"][0]
        assert float(cells[1]) == ci.mean
        assert float(cells[4]) == 0.95
        assert int(cells[5]) == 200

    def test_partial_render(self, tmp_path):
        y_true, probs = draws()
        # without probabilities the bundle carries no ROC curves
        metrics = evaluate_predictions(y_true, probs.argmax(axis=1))
        out = tmp_path / "partial"
        written = render_report(out, metrics=metrics)
        assert {p.name for p in written} == \
            {"metrics.json", "confusion.csv", "confusion_normalized.csv"}

    def test_smaller_matrix_names_only_its_classes(self, tmp_path):
        metrics = evaluate_predictions([0, 1, 1, 0], [0, 1, 0, 0],
                                       n_classes=2)
        render_report(tmp_path, metrics=metrics)
        for name in ("confusion.csv", "confusion_normalized.csv"):
            rows = [line.split(",") for line in
                    (tmp_path / name).read_text().splitlines()]
            assert rows[0] == ["", "N", "A"]
            assert [row[0] for row in rows[1:]] == ["N", "A"]
            assert all(len(row) == 3 for row in rows)

    def test_unwritable_path_raises_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(IoError):
            render_report(blocker / "report", **full_inputs())
