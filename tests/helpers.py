"""Shared test fixtures: small synthetic beat sets, a split-less beat file
writer, and the tape-built LSTM step that fused recurrences are checked
against."""

import csv

import numpy as np

from ecgkit import tensor as tk
from ecgkit.beats import (BeatDataset, BeatRecord, normalize_beat,
                          stratified_split, write_beats_csv)


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
