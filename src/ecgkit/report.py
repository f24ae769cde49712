"""Evaluation artifacts as plain files.

One directory per evaluation: metrics.json for the numbers, CSVs for the
confusion matrices, ROC curves, confidence intervals and saliency maps.
Writers are deterministic so re-rendering the same
inputs reproduces every file byte for byte.
"""

from pathlib import Path

from .artifacts import atomic_open, write_json
from .beats import CLASS_NAMES
from .metrics import CI_LEVEL


def _write_text(path, text):
    with atomic_open(path, "w") as handle:
        handle.write(text)
    return path


def _matrix_csv(rows, cell):
    names = CLASS_NAMES[:len(rows)]
    lines = ["," + ",".join(names)]
    for name, row in zip(names, rows):
        lines.append(name + "," + ",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


def render_report(out_dir, metrics=None, cis=None, saliency=None,
                  ensemble=None):
    """Write whichever artifacts were computed; returns the file list.

    metrics is a MetricBundle; its confusion matrix and ROC curves, where
    it carries them, are written beside metrics.json. saliency maps a
    sample id to a SaliencyMap, ensemble is an EnsembleSpec whose weights
    belong in the metrics file for traceability.
    """
    out_dir = Path(out_dir)
    written = []

    matrix = metrics.matrix if metrics is not None else None
    curves = metrics.curves if metrics is not None else None
    if metrics is not None:
        payload = metrics.to_dict()
        if ensemble is not None:
            payload["ensemble"] = ensemble.to_dict()
        written.append(write_json(out_dir / "metrics.json", payload))

    if matrix is not None:
        written.append(_write_text(
            out_dir / "confusion.csv",
            _matrix_csv(matrix.counts, lambda v: str(int(v)))))
        written.append(_write_text(
            out_dir / "confusion_normalized.csv",
            _matrix_csv(matrix.normalized(), lambda v: repr(float(v)))))

    for label in sorted(curves or {}):
        curve = curves[label]
        lines = ["fpr,tpr"]
        lines += [f"{repr(float(x))},{repr(float(y))}"
                  for x, y in zip(curve.fpr, curve.tpr)]
        written.append(_write_text(out_dir / f"roc_class_{label}.csv",
                                   "\n".join(lines) + "\n"))

    if cis:
        lines = ["metric,mean,lower,upper,level,n_resamples"]
        for ci in cis:
            lines.append(f"{ci.name},{repr(ci.mean)},{repr(ci.lower)},"
                         f"{repr(ci.upper)},{repr(CI_LEVEL)},"
                         f"{ci.n_resamples}")
        written.append(_write_text(out_dir / "ci.csv",
                                   "\n".join(lines) + "\n"))

    for sample_id in sorted(saliency or {}):
        saliency_map = saliency[sample_id]
        lines = ["position,value"]
        lines += [f"{i},{repr(float(v))}"
                  for i, v in enumerate(saliency_map.values)]
        written.append(_write_text(out_dir / f"gradcam_{sample_id}.csv",
                                   "\n".join(lines) + "\n"))

    return sorted(written)
