"""Per-layer metrics of a traced run.

Each layer is one ``ecgkit`` module. Which end-to-end metric each layer
metric should move, and on which workload, is written down in
``bench/README.md``. Every workload reports every per-layer metric; a
layer the workload never calls reports 0.
"""

import math
import statistics
from pathlib import Path

from tracing import LAYERS, Spans, Tracer

ARCHS = ("cnn", "cnn_lstm", "cnn_lstm_attn", "resnet1d")

# per-layer metric -> span name whose busy (outermost inclusive) seconds
# it reports
BUSY = {
    "gan.gan_train.busy_s": "gan.gan_train",
    "gan.synthesize.busy_s": "gan.synthesize",
    "tensor.bilstm.busy_s": "tensor.bilstm",
    "tensor.conv1d.busy_s": "tensor.conv1d",
    "tensor.batch_norm1d.busy_s": "tensor.batch_norm1d",
    "tensor.max_pool1d.busy_s": "tensor.max_pool1d",
    "tensor.swish.busy_s": "tensor.swish",
    "tensor.sigmoid.busy_s": "tensor.sigmoid",
    "models.logits_array.busy_s": "models.Model.logits_array",
    "training.train.busy_s": "training.train",
    "training.evaluate_split.busy_s": "training.evaluate_split",
    "wfdb_io.read_record.busy_s": "wfdb_io.read_record",
    "beats.load_records_dir.busy_s": "beats.load_records_dir",
    "beats.write_beats_csv.busy_s": "beats.write_beats_csv",
    "beats.read_beats_csv.busy_s": "beats.read_beats_csv",
    "beats.matrix.busy_s": "beats.BeatDataset.matrix",
    "metrics.bootstrap_ci.busy_s": "metrics.bootstrap_ci",
    "metrics.roc_auc.busy_s": "metrics.roc_auc",
    "checkpoint.save_checkpoint.busy_s": "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint.busy_s": "checkpoint.load_checkpoint",
    "ensemble.fuse.busy_s": "ensemble.fuse",
    "ensemble.write_logits_csv.busy_s": "ensemble.write_logits_csv",
    "gradcam.grad_cam.busy_s": "gradcam.grad_cam",
    "report.render_report.busy_s": "report.render_report",
}

# per-layer metric -> span name whose call count it reports
CALLS = {
    "tensor.lstm_step.calls": "tensor.lstm_step",
    "metrics.bootstrap_ci.calls": "metrics.bootstrap_ci",
    "gradcam.grad_cam.calls": "gradcam.grad_cam",
    "config.RunManifest.write.calls": "config.RunManifest.write",
}


def _size(path):
    return Path(path).stat().st_size


def _train_rows(dataset):
    # plain attribute reads: calling a traced method here would add spans
    return sum(1 for beat in dataset.beats if beat.split_tag == "train")


def _record_bytes(args, result):
    header = result[0]
    return _size(Path(args[0]).parent / header.signals[0].file_name)


# span name -> observe(args, result, seconds) returning counter increments
OBSERVERS = {
    "gan.gan_train": lambda a, r, s: {"gan.step_pairs": len(r[2]) // 2},
    "gan.synthesize": lambda a, r, s: {"gan.accepted": len(r)},
    "gan.DiscriminatorNet.score":
        lambda a, r, s: {"gan.candidates_scored": len(r)},
    "wfdb_io.read_record":
        lambda a, r, s: {"wfdb_io.read_record.bytes": _record_bytes(a, r)},
    "beats.segment_beats": lambda a, r, s: {"beats.segmented": len(r)},
    "beats.write_beats_csv":
        lambda a, r, s: {"beats.write_beats_csv.rows": len(a[1].beats),
                         "beats.write_beats_csv.bytes": _size(r)},
    "beats.read_beats_csv":
        lambda a, r, s: {"beats.read_beats_csv.rows": len(r.beats)},
    "checkpoint.save_checkpoint":
        lambda a, r, s: {"checkpoint.save_checkpoint.bytes": _size(r)},
    "ensemble.write_logits_csv":
        lambda a, r, s: {"ensemble.write_logits_csv.bytes": _size(r)},
    "report.render_report":
        lambda a, r, s: {"report.render_report.files": len(r)},
    "models.Model.logits_array":
        lambda a, r, s: {"models.logits_array.beats": len(r)},
    "training.train":
        lambda a, r, s: {f"training.train_s.{a[2].arch}": s,
                         f"training.train_beats.{a[2].arch}":
                         _train_rows(a[1]) * len(r[1])},
}

COUNTERS = {
    "gan.candidates_scored": "count",
    "gan.accepted": "count",
    "wfdb_io.read_record.bytes": "bytes",
    "beats.segmented": "count",
    "beats.write_beats_csv.rows": "count",
    "beats.write_beats_csv.bytes": "bytes",
    "beats.read_beats_csv.rows": "count",
    "checkpoint.save_checkpoint.bytes": "bytes",
    "ensemble.write_logits_csv.bytes": "bytes",
    "report.render_report.files": "count",
    "models.logits_array.beats": "count",
}

# end-to-end figures of the untraced pass, by workload
E2E = {"reproduce_s": "s", "ingest_s": "s", "evaluate_s": "s"}
for _arch in ARCHS:
    E2E[f"train_beats_per_s.{_arch}"] = "beats/s"
    E2E[f"infer_beats_per_s.{_arch}"] = "beats/s"

# beats per class in the 48 MIT-BIH Arrhythmia records, after the class
# map (N, L and R count as N), for the full-scale extrapolation
MITBIH_BEATS = {"N": 75052 + 8075 + 7259, "A": 2546, "V": 7130, "f": 982,
                "F": 803}
FULL_GAN_EPOCHS = 200
FULL_TRAIN_EPOCHS = 50
GAN_BATCH = 32
TRAIN_FRACTION = 0.85


def traced_pass(runner, check, rounds, run_rounds, spans_path):
    """Run `rounds` rounds with every public ecgkit function wrapped."""
    tracer = Tracer()
    tracer.install(OBSERVERS)
    try:
        result = run_rounds(runner, check, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.save(spans_path)
    return dict(result, spans=Spans(tracer), counters=tracer.counters)


def tail(values):
    """(median, highest percentile with at least 10 samples beyond it).
    With 10 samples or fewer no percentile qualifies; the maximum stands
    in."""
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    return statistics.median(ordered), ordered[n - 11 if n > 10 else -1]


def _ratio(num, den):
    return num / den if den else 0.0


def _step_metrics(spans):
    out = {}
    for arch in ARCHS:
        step = f"bench.train_step.{arch}"
        steps = spans.calls(step)
        for metric, span in (("models.forward_s", "models.Model.forward"),
                             ("tensor.backward_s", "tensor.Tensor.backward"),
                             ("training.adamw_step_s",
                              "training.AdamW.step")):
            median, high = tail(spans.durations(span, parent=step))
            out[f"{metric}.{arch}"] = (median, "s")
            out[f"{metric}.{arch}.tail"] = (high, "s")
        out[f"training.steps.{arch}"] = (steps, "count")
        out[f"tensor.tensors_per_step.{arch}"] = (
            _ratio(spans.tensors_in(step), steps), "count")
    return out


def _split(count):
    val = math.floor(count * (1.0 - TRAIN_FRACTION) + 1e-9)
    return count - val, val


def extrapolate(spans, counters):
    """Hours for ``reproduce`` on MIT-BIH-sized input at the shipped
    defaults, from this run's per-unit costs. Informational: it assumes
    per-unit costs do not change with scale, every epoch runs (no early
    stop) and the measured acceptance ratio holds."""
    pairs = counters.get("gan.step_pairs", 0)
    if not pairs:
        return {key: (0.0, "h") for key in
                ("ingest_h", "gan_h", "synthesize_h", "train_h",
                 "reproduce_h")}
    split = {name: _split(n) for name, n in MITBIH_BEATS.items()}
    majority = split["N"][0]
    n_beats = sum(MITBIH_BEATS.values())
    n_val = sum(val for _, val in split.values())
    per_row_write = _ratio(spans.busy("beats.write_beats_csv"),
                           counters.get("beats.write_beats_csv.rows", 0))
    per_segmented = _ratio(spans.busy("beats.load_records_dir"),
                           counters.get("beats.segmented", 0))
    ingest = n_beats * (per_segmented + per_row_write)
    step_pair = spans.busy("gan.gan_train") / pairs
    full_pairs = sum(FULL_GAN_EPOCHS * (train // GAN_BATCH)
                     for name, (train, _) in split.items() if name != "N")
    per_candidate = _ratio(spans.busy("gan.synthesize"),
                           counters.get("gan.candidates_scored", 0))
    accept = _ratio(counters.get("gan.accepted", 0),
                    counters.get("gan.candidates_scored", 0)) or 1.0
    needed = sum(majority - train for name, (train, _) in split.items()
                 if name != "N")
    synthesize = needed / accept * per_candidate
    balanced_rows = len(split) * majority
    write_augmented = (balanced_rows + n_val) * per_row_write
    train = sum(FULL_TRAIN_EPOCHS * balanced_rows * _ratio(
        counters.get(f"training.train_s.{arch}", 0.0),
        counters.get(f"training.train_beats.{arch}", 0)) for arch in ARCHS)
    hours = {"ingest_h": ingest / 3600,
             "gan_h": full_pairs * step_pair / 3600,
             "synthesize_h": (synthesize + write_augmented) / 3600,
             "train_h": train / 3600}
    hours["reproduce_h"] = sum(hours.values())
    return {key: (value, "h") for key, value in hours.items()}


def per_layer(traced, untraced):
    """Every per-layer metric as name -> (value, unit). `untraced` holds
    the untraced pass's per-round medians."""
    spans, counters = traced["spans"], traced["counters"]
    out = {}
    pairs = counters.get("gan.step_pairs", 0)
    out["gan.gan_train.busy_s"] = (spans.busy("gan.gan_train"), "s")
    out["gan.step_pair_s"] = (_ratio(spans.busy("gan.gan_train"), pairs),
                              "s")
    out["gan.tensors_per_step_pair"] = (
        _ratio(spans.tensors_in("gan.gan_train"), pairs), "count")
    out["gan.accept_ratio"] = (_ratio(counters.get("gan.accepted", 0),
                                      counters.get("gan.candidates_scored",
                                                   0)), "ratio")
    for metric, span in BUSY.items():
        out[metric] = (spans.busy(span), "s")
    for metric, span in CALLS.items():
        out[metric] = (spans.calls(span), "count")
    for metric, unit in COUNTERS.items():
        out[metric] = (counters.get(metric, 0), unit)
    out.update(_step_metrics(spans))
    layer_self = spans.layer_self_time()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    plain, wrapped = untraced["round_s"], traced["medians"]["round_s"]
    out["trace.untraced_round_s"] = (plain, "s")
    out["trace.traced_round_s"] = (wrapped, "s")
    out["trace.overhead_s"] = (wrapped - plain, "s")
    out["trace.overhead_ratio"] = (_ratio(wrapped - plain, plain), "ratio")
    for metric, unit in E2E.items():
        out[metric] = (untraced.get(metric, 0.0), unit)
    for key, value in extrapolate(spans, counters).items():
        out[f"extrapolate.{key}"] = value
    return out
