"""Shared test fixtures: small synthetic beat sets, a split-less beat file
writer, the reference segmenter (lists of per-beat rows, labels and
sources), the per-value beat CSV writer and reader and the per-resample
bootstrap that the blocked forms are checked against, and the unfused
reference forms that fused tape nodes are checked against (a tape-built
LSTM step; batch norm, swish and relu as separate nodes)."""

import csv
import io
import warnings

import numpy as np

from ecgkit import tensor as tk
from ecgkit.beats import (CLASS_NAMES, SPLIT_TAGS, BeatDataset,
                          map_code_to_label, stratified_split,
                          write_beats_csv)
from ecgkit.errors import ParseError
from ecgkit.metrics import confusion, prf1


def beat_set(rows, labels, split="unassigned", source="toy"):
    """A BeatDataset of the given rows and labels; a split or source given
    as one string tags every beat."""
    n = len(labels)

    def column(value):
        if isinstance(value, str):
            return np.full(n, value, dtype=object)
        return np.array(value, dtype=object)

    X = np.array(rows, dtype=np.float32).reshape(n, -1) if n else \
        np.zeros((0, 8), dtype=np.float32)
    return BeatDataset(X, np.array(labels, dtype=np.int64), column(split),
                       column(source))


def normalize_beat(samples):
    """Min-max rescale into [0, 1] in float64; a constant beat becomes all
    zeros."""
    x = np.asarray(samples, dtype=np.float64)
    lo = x.min()
    hi = x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def reference_segment_beats(signal, annotations, beat_len, source_record):
    """segment_beats one window at a time: (rows as float32, labels,
    sources) of the kept beats."""
    signal = np.asarray(signal, dtype=np.float64)
    half = beat_len // 2
    rows, labels, sources = [], [], []
    for event in annotations:
        label = map_code_to_label(event.code)
        if label is None:
            continue
        start = event.sample_index - half
        end = start + beat_len
        if start < 0 or end > len(signal):
            continue
        rows.append(normalize_beat(signal[start:end]).astype(np.float32))
        labels.append(label)
        sources.append(f"{source_record}:{event.sample_index}"
                       if source_record else f"beat:{event.sample_index}")
    return rows, labels, sources


def pulse_beat(rng, length, center, width=3, noise=0.05):
    x = rng.normal(scale=noise, size=length)
    lo = max(0, center - width)
    hi = min(length, center + width)
    x[lo:hi] += 1.0
    return normalize_beat(x)


def toy_two_class(n_per_class=20, length=64, seed=0, train_fraction=0.8):
    """Linearly separable two-class beats: a pulse on the left or the right."""
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for label in (0, 1):
        center = length // 4 if label == 0 else 3 * length // 4
        for _ in range(n_per_class):
            rows.append(pulse_beat(rng, length, center))
            labels.append(label)
    dataset = beat_set(rows, labels)
    stratified_split(dataset, train_fraction, seed=seed)
    return dataset


def write_splitless_csv(path, dataset):
    """A beat CSV without the split column, as other tools write them."""
    write_beats_csv(path, dataset)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    split = rows[0].index("split")
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(row[:split] + row[split + 1:] for row in rows)
    return path


def reference_beat_csv_bytes(dataset):
    """The beat CSV write_beats_csv writes, one "%.9g" per sample value and
    one csv.writer row per beat."""
    length = dataset.X.shape[1]
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow([f"s{i}" for i in range(length)]
                    + ["label", "split", "source"])
    samples_fmt = "%.9g," * length
    for samples, label, split, source in zip(dataset.X, dataset.y,
                                             dataset.split, dataset.source):
        text.write(samples_fmt % tuple(samples.tolist()))
        writer.writerow([str(label), split, source])
    return text.getvalue().encode()


def reference_read_beats_csv(path):
    """A beat CSV read one csv-module row at a time: the reference for
    read_beats_csv on rectangular files, and for the line its ParseError
    names (none for a sample spelling only np.loadtxt refuses)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty beat file", line=1) from None
        if "label" not in header:
            raise ParseError(f"{path}: header lacks a label column", line=1)
        label_col = header.index("label")
        for i in range(label_col):
            if header[i] != f"s{i}":
                raise ParseError(
                    f"{path}: expected column s{i}, found {header[i]!r}", line=1)
        split_col = header.index("split") if "split" in header else None
        source_col = header.index("source") if "source" in header else None
        rows, labels, splits, sources = [], [], [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < label_col + 1:
                raise ParseError(f"{path}: short row", line=line_no)
            if any("_" in cell or not cell.isascii()
                   for cell in row[:label_col]):
                # Python's float reads "1_0" and non-ASCII digits;
                # np.loadtxt, and so the reader, refuses them
                raise ParseError(f"{path}: sample spelling np.loadtxt "
                                 "refuses")
            try:
                samples = np.array(row[:label_col], dtype=np.float32)
                label_text = row[label_col]
                if not (label_text.isascii() and label_text.isdigit()):
                    raise ValueError(f"beat label {label_text!r} is not in "
                                     f"ASCII digits")
                label = int(label_text)
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", line=line_no) from None
            split_tag = row[split_col] if split_col is not None and \
                len(row) > split_col else "unassigned"
            if split_tag not in SPLIT_TAGS:
                raise ParseError(
                    f"{path}: unknown split tag {split_tag!r}", line=line_no)
            if not 0 <= label < len(CLASS_NAMES):
                raise ParseError(f"{path}: beat label {label} outside 0..4",
                                 line=line_no)
            rows.append(samples)
            labels.append(label)
            splits.append(split_tag)
            sources.append(row[source_col] if source_col is not None and
                           len(row) > source_col else "unknown")
    if not rows:
        raise ParseError(f"{path}: no beat rows", line=2)
    return BeatDataset(np.array(rows, dtype=np.float32).reshape(
        len(rows), label_col), labels, splits, sources)


def reference_bootstrap(outcomes, metric_fn, seed, n_resamples):
    """(mean, lower, upper) of the percentile bootstrap scored one resample
    at a time, metric_fn mapping one resample to one value."""
    outcomes = np.asarray(outcomes)
    n = outcomes.shape[0]
    rng = np.random.default_rng(seed)
    values = np.empty(n_resamples, dtype=np.float64)
    for i in range(n_resamples):
        values[i] = metric_fn(outcomes[rng.integers(0, n, size=n)])
    lower, upper = np.percentile(values, [2.5, 97.5])
    mean = float(values.mean())
    return mean, min(float(lower), mean), max(float(upper), mean)


def reference_macro_f1(pairs):
    """Macro-F1 of one resample of (true, predicted) pairs through prf1."""
    pairs = np.asarray(pairs, dtype=np.int64)
    return prf1(confusion(pairs[:, 0], pairs[:, 1])).macro_f1


def lstm_step(x_t, h_prev, c_prev, w_ih, w_hh, b):
    """One LSTM cell step from tape ops; gate layout (input, forget, cell,
    output)."""
    hidden = h_prev.data.shape[1]
    z = tk.add(tk.dense(x_t, w_ih, b), tk.dense(h_prev, w_hh, None))
    i = tk.sigmoid(tk.narrow(z, 1, 0, hidden))
    f = tk.sigmoid(tk.narrow(z, 1, hidden, hidden))
    g = tk.tanh(tk.narrow(z, 1, 2 * hidden, hidden))
    o = tk.sigmoid(tk.narrow(z, 1, 3 * hidden, hidden))
    c = tk.add(tk.mul(f, c_prev), tk.mul(i, g))
    h = tk.mul(o, tk.tanh(c))
    return h, c


def batch_norm1d(x, gamma, beta, stats, training, momentum=0.1, eps=1e-5):
    """Batch norm as its own tape node, without an activation: the reference
    for tk.batch_norm1d."""
    channels = x.data.shape[-1]
    xm = x.data.reshape(-1, channels)
    n = xm.shape[0]
    if training:
        if n == 1:
            warnings.warn(
                "batch normalization saw one value per channel; statistics "
                "are degenerate and only the eps guard keeps them finite",
                RuntimeWarning)
        mean = xm.mean(axis=0)
        xhat = xm - mean
        var = np.square(xhat).mean(axis=0)
        stats.mean[...] = (1.0 - momentum) * stats.mean + momentum * mean
        unbiased = var * (n / (n - 1)) if n > 1 else var
        stats.var[...] = (1.0 - momentum) * stats.var + momentum * unbiased
        inv = 1.0 / np.sqrt(var + eps)
        xhat *= inv
    else:
        inv = 1.0 / np.sqrt(stats.var + eps)
        xhat = (xm - stats.mean) * inv
    gd = gamma.data
    out = xhat * gd
    out += beta.data
    shape = x.data.shape
    need_x = tk._tracked(x)

    def backward(g):
        gm = g.reshape(-1, channels)
        sum_g = gm.sum(axis=0)
        sum_gx = (gm * xhat).sum(axis=0)
        gx = None
        if need_x:
            scale = gd * inv
            gx = gm * scale
            if training:
                gx -= xhat * (scale * sum_gx / n)
                gx -= scale * sum_g / n
            gx = gx.reshape(shape)
        return gx, sum_gx, sum_g

    return tk._record(out.reshape(shape), (x, gamma, beta), backward)


def sigmoid_values(x):
    """The two-branch-exact sigmoid in its two-exponential form,
    exp(min(x, 0)) / (1 + exp(-|x|)): the reference for the one-exponential
    tk._sigmoid_values."""
    return np.exp(np.minimum(x, 0)) / (1.0 + np.exp(-np.abs(x)))


def swish(a):
    """x * sigmoid(x) as its own tape node."""
    s = sigmoid_values(a.data)
    ad = a.data

    def backward(g):
        return (g * (s + ad * s * (1.0 - s)),)

    return tk._record(ad * s, (a,), backward)


def relu(a):
    """max(x, 0) as its own tape node; NaN maps to 0."""
    mask = a.data > 0

    def backward(g):
        return (g * mask,)

    return tk._record(np.where(mask, a.data, 0.0), (a,), backward)
