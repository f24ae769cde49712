"""Shared test fixtures: small synthetic beat sets, a split-less beat file
writer, the per-value beat CSV writer and reader and the per-resample
bootstrap that the blocked forms are checked against, and the unfused
reference forms that fused tape nodes are checked against (a tape-built
LSTM step; batch norm, swish and relu as separate nodes)."""

import csv
import io
import warnings

import numpy as np

from ecgkit import tensor as tk
from ecgkit.beats import (SPLIT_TAGS, BeatDataset, BeatRecord, normalize_beat,
                          stratified_split, write_beats_csv)
from ecgkit.errors import ConfigError, ParseError
from ecgkit.metrics import confusion, prf1


def pulse_beat(rng, length, center, width=3, noise=0.05):
    x = rng.normal(scale=noise, size=length)
    lo = max(0, center - width)
    hi = min(length, center + width)
    x[lo:hi] += 1.0
    return normalize_beat(x)


def toy_two_class(n_per_class=20, length=64, seed=0, train_fraction=0.8):
    """Linearly separable two-class beats: a pulse on the left or the right."""
    rng = np.random.default_rng(seed)
    beats = []
    for label in (0, 1):
        center = length // 4 if label == 0 else 3 * length // 4
        for _ in range(n_per_class):
            beats.append(BeatRecord(pulse_beat(rng, length, center), label,
                                    source="toy"))
    dataset = BeatDataset(beats)
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
    length = len(dataset.beats[0].samples)
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow([f"s{i}" for i in range(length)]
                    + ["label", "split", "source"])
    samples_fmt = "%.9g," * length
    for beat in dataset.beats:
        text.write(samples_fmt % tuple(beat.samples.tolist()))
        writer.writerow([str(beat.label), beat.split_tag, beat.source])
    return text.getvalue().encode()


def reference_read_beats_csv(path):
    """A beat CSV read one csv-module row at a time: the reference for
    read_beats_csv on rectangular files, and for the line its ParseError
    names."""
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
        beats = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < label_col + 1:
                raise ParseError(f"{path}: short row", line=line_no)
            try:
                samples = np.array(row[:label_col], dtype=np.float32)
                label = int(row[label_col])
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", line=line_no) from None
            split_tag = row[split_col] if split_col is not None and \
                len(row) > split_col else "unassigned"
            if split_tag not in SPLIT_TAGS:
                raise ParseError(
                    f"{path}: unknown split tag {split_tag!r}", line=line_no)
            source = row[source_col] if source_col is not None and \
                len(row) > source_col else "unknown"
            try:
                beats.append(BeatRecord(samples, label, source=source,
                                        split_tag=split_tag))
            except ConfigError as exc:
                raise ParseError(f"{path}: {exc}", line=line_no) from None
    if not beats:
        raise ParseError(f"{path}: no beat rows", line=2)
    return BeatDataset(beats)


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
