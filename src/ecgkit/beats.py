"""Heartbeat extraction, normalization, dataset container and splitting.

Beats are fixed-length windows centered on annotated R-peaks, min-max
normalized into [0, 1], labeled with one of five classes and tagged with a
split assignment.  The canonical on-disk form is a CSV with columns
``s0..s{L-1},label`` plus optional ``split`` and ``source`` columns.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np

from .artifacts import atomic_open
from .errors import ConfigError, IoError, ParseError, SplitError
from .wfdb_io import MNEMONIC_TO_CODE, parse_annotations, parse_header, read_record

CLASS_NAMES = ("N", "A", "V", "f", "F")
DEFAULT_BEAT_LEN = 187
DEFAULT_LEAD = "MLII"
SPLIT_TAGS = ("train", "val", "test", "unassigned")
# beat rows write_beats_csv formats at once
_WRITE_BLOCK = 64

# N, L and R all count as normal; the remaining four classes keep the
# case-sensitive mnemonics of the source annotations.
_CODE_TO_LABEL = {
    MNEMONIC_TO_CODE["N"]: 0,
    MNEMONIC_TO_CODE["L"]: 0,
    MNEMONIC_TO_CODE["R"]: 0,
    MNEMONIC_TO_CODE["A"]: 1,
    MNEMONIC_TO_CODE["V"]: 2,
    MNEMONIC_TO_CODE["f"]: 3,
    MNEMONIC_TO_CODE["F"]: 4,
}


def map_code_to_label(code):
    """Class id 0-4 for a WFDB annotation code, or None if not a kept beat."""
    return _CODE_TO_LABEL.get(code)


# one row of BeatDataset.beats
_BeatRow = namedtuple("_BeatRow", "samples label source split_tag")


class BeatDataset:
    """Beats as aligned columns, one row per beat: ``X [n, L]`` float32
    samples, ``y [n]`` int64 class ids, ``split [n]`` tags from SPLIT_TAGS
    and ``source [n]`` strings, the last two as object arrays.

    The constructor checks the columns once and keeps an X that is
    already 2-D float32 without copying it.  Rows are selected with masks
    or index arrays over the columns.
    """

    def __init__(self, X, y, split, source):
        self.X = np.asarray(X, dtype=np.float32)
        self.y = np.asarray(y, dtype=np.int64)
        self.split = np.asarray(split, dtype=object)
        self.source = np.asarray(source, dtype=object)
        if self.X.ndim != 2:
            raise ConfigError(f"beat samples must be an [n, L] matrix, got "
                              f"{self.X.ndim} dimensions")
        if not len(self.X) == len(self.y) == len(self.split) \
                == len(self.source):
            raise ConfigError("beat columns differ in length")
        bad = self.y[(self.y < 0) | (self.y >= len(CLASS_NAMES))]
        if len(bad):
            raise ConfigError(f"beat label {bad[0]} outside 0..4")
        unknown = set(self.split.tolist()) - set(SPLIT_TAGS)
        if unknown:
            raise ConfigError(
                f"unknown split tags {sorted(map(str, unknown))}")

    def __len__(self):
        return len(self.y)

    @property
    def beats(self):
        """The rows as (samples, label, source, split_tag) tuples.  Only
        bench/ reads this view, until the bench moves to the columns;
        nothing in the package does."""
        return [_BeatRow(*row) for row in zip(self.X, self.y.tolist(),
                                              self.source.tolist(),
                                              self.split.tolist())]

    def __iter__(self):
        return iter(self.beats)

    def counts_for_split(self, split_tag):
        counts = np.bincount(self.y[self.split == split_tag],
                             minlength=len(CLASS_NAMES))
        return dict(enumerate(counts.tolist()))


def concat(parts):
    """One dataset holding the rows of parts, in order."""
    return BeatDataset(*(np.concatenate([getattr(part, column)
                                         for part in parts])
                         for column in ("X", "y", "split", "source")))


def segment_beats(signal, annotations, beat_len=DEFAULT_BEAT_LEN,
                  source_record=""):
    """Cut one fixed window per mapped annotation, centered on the R-peak.

    The window spans floor(L/2) samples before the peak and L-1-floor(L/2)
    after it; windows that would cross either record edge are dropped.
    Each kept window is min-max rescaled into [0, 1] in float64, a constant
    one to all zeros, then stored as float32.  Returns a BeatDataset of
    unassigned beats whose source is ``<source_record>:<sample index>``.
    """
    if beat_len < 3:
        raise ConfigError(f"beat length {beat_len} too short, need >= 3")
    signal = np.asarray(signal, dtype=np.float64)
    half = beat_len // 2
    prefix = source_record or "beat"
    rows, labels, sources = [], [], []
    # one window at a time: cutting them all with one fancy index gives
    # the same bits, but its record-sized float64 temporaries move the
    # train workload's peak RSS by up to 15 % through heap layout
    for event in annotations:
        label = map_code_to_label(event.code)
        start = event.sample_index - half
        if label is None or start < 0 or start + beat_len > len(signal):
            continue
        x = signal[start:start + beat_len]
        lo, hi = x.min(), x.max()
        rows.append((np.zeros_like(x) if hi == lo
                     else (x - lo) / (hi - lo)).astype(np.float32))
        labels.append(label)
        sources.append(f"{prefix}:{event.sample_index}")
    X = np.stack(rows) if rows else np.zeros((0, beat_len), np.float32)
    return BeatDataset(X, labels,
                       np.full(len(rows), "unassigned", dtype=object), sources)


def select_lead(header, lead=None):
    """Pick the signal index to segment from.

    With an explicit ``lead`` the record must contain it.  Without one, MLII
    is preferred and the first signal is the fallback.
    """
    if lead is not None:
        idx = header.lead_index(lead)
        if idx is None:
            available = [s.lead for s in header.signals]
            raise ConfigError(
                f"record {header.record_name} has no lead {lead!r}; "
                f"available: {available}")
        return idx
    idx = header.lead_index(DEFAULT_LEAD)
    return 0 if idx is None else idx


def load_records_dir(directory, lead=None, beat_len=DEFAULT_BEAT_LEN):
    """Segment every WFDB record under ``directory`` into one BeatDataset.

    Each record needs ``<name>.hea``, its format-212 data file and
    ``<name>.atr``.  Records are processed in sorted name order so the
    resulting beat order is stable.
    """
    directory = Path(directory)
    header_paths = sorted(directory.glob("*.hea"))
    if not header_paths:
        raise IoError(f"no .hea records found under {directory}")
    parts = []
    for hea_path in header_paths:
        header = parse_header(hea_path.read_bytes())
        record_path = hea_path.with_suffix("")
        atr_path = hea_path.with_suffix(".atr")
        if not atr_path.exists():
            raise IoError(f"missing annotation file {atr_path}")
        header, signals = read_record(record_path, header=header)
        annotations = parse_annotations(atr_path.read_bytes())
        idx = select_lead(header, lead)
        parts.append(segment_beats(
            signals[idx], annotations, beat_len=beat_len,
            source_record=header.record_name))
    return concat(parts)


def stratified_split(dataset, train_fraction, seed):
    """Tag every beat train or val, per class, keyed on ``seed``.

    Each class contributes floor(count x (1 - train_fraction)) beats to
    validation and the remainder (ties included) to training.
    """
    if not 0.0 < train_fraction < 1.0:
        raise SplitError(
            f"train fraction must lie strictly inside (0, 1), got {train_fraction}")
    counts = np.bincount(dataset.y, minlength=len(CLASS_NAMES))
    for label, count in enumerate(counts.tolist()):
        if count == 1:
            raise SplitError(
                f"class {CLASS_NAMES[label]} has only {count} beat; "
                f"need at least 2 to split")
    rng = np.random.default_rng(seed)
    for label in np.flatnonzero(counts):
        indices = np.flatnonzero(dataset.y == label)
        shuffled = indices[rng.permutation(len(indices))]
        # tiny nudge keeps decimal-exact products (e.g. 60 x 0.15) on the
        # integer they name despite binary float representation
        n_val = int(math.floor(len(indices) * (1.0 - train_fraction) + 1e-9))
        dataset.split[shuffled[:n_val]] = "val"
        dataset.split[shuffled[n_val:]] = "train"
    return dataset


def write_beats_csv(path, dataset):
    """Write the canonical beat CSV: samples, label, split and source.

    Each sample is written as ``%.9g``, which round-trips float32 exactly
    (nan, inf and -inf for the non-finite values).  Rows are formatted
    _WRITE_BLOCK at a time; where values repeat, as ADC-quantized beats do,
    each distinct float32 value is formatted once per block or taken from
    the block before.  Label, split and source are CSV-quoted only when
    they need it, for example a source holding a comma, a quote or a
    newline.  Rows end in ``\\r\\n``.
    """
    if not len(dataset):
        raise IoError("refusing to write an empty beat file")
    length = dataset.X.shape[1]
    header = [f"s{i}" for i in range(length)] + ["label", "split", "source"]
    samples_fmt = "%.9g," * length
    prev_bits, prev_text = np.empty(0, np.uint32), np.empty(0, object)
    with atomic_open(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, len(dataset), _WRITE_BLOCK):
            block = slice(start, start + _WRITE_BLOCK)
            # float32 -> Python float is exact, so "%.9g" of tolist() is the
            # format of the float32 value; distinct by bit pattern, so -0.0
            # keeps its sign
            samples = dataset.X[block]
            distinct, index = np.unique(samples.view(np.uint32).ravel(),
                                        return_inverse=True)
            if 2 * len(distinct) > samples.size:
                # mostly distinct values, as GAN output is: one format call
                # per row costs less than the lookup
                rows = [samples_fmt % tuple(row) for row in samples.tolist()]
            else:
                # the block before formatted most of these values already:
                # neighbouring beats share their ADC levels
                pos = np.searchsorted(prev_bits, distinct)
                hit = pos < len(prev_bits)
                hit[hit] = prev_bits[pos[hit]] == distinct[hit]
                text = np.empty(len(distinct), dtype=object)
                text[hit] = prev_text[pos[hit]]
                text[~hit] = ["%.9g," % value for value
                              in distinct[~hit].view(np.float32).tolist()]
                prev_bits, prev_text = distinct, text
                rows = ["".join(cells) for cells
                        in text[index].reshape(samples.shape).tolist()]
            for row, label, split, source in zip(
                    rows, dataset.y[block].tolist(),
                    dataset.split[block].tolist(),
                    dataset.source[block].tolist()):
                fh.write(row)
                writer.writerow([str(label), split, source])
    return path


def read_beats_csv(path):
    """Read a beat CSV back into a BeatDataset.

    The body is parsed in one ``np.loadtxt`` pass into a table whose
    samples field is the dataset's X, and whose columns after it give the
    labels, split tags and sources.  Tolerates files without the optional
    split/source columns; such beats come back unassigned/unknown.  A row
    whose field count differs from the header's is refused.  When loadtxt
    or a label, split or sample check refuses the file, it is scanned again
    row by row, only to name the bad line in the ParseError.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ParseError(f"{path}: empty beat file", line=1) from None
        encoding = fh.encoding
    if "label" not in header:
        raise ParseError(f"{path}: header lacks a label column", line=1)
    for i in range(header.index("label")):
        if header[i] != f"s{i}":
            raise ParseError(
                f"{path}: expected column s{i}, found {header[i]!r}", line=1)
    try:
        dataset = _dataset_from_table(path, header, encoding)
    except (ValueError, OverflowError, ConfigError) as exc:
        _scan_rows(path, header)
        # a spelling only loadtxt refuses, such as "1_0" or a non-ASCII
        # digit: no row check finds it, so no line is named
        raise ParseError(f"{path}: {exc}") from None
    if not len(dataset):
        raise ParseError(f"{path}: no beat rows", line=2)
    return dataset


def _label(text):
    """The class of a label cell spelled in ASCII digits alone, as
    write_beats_csv writes it; Python's int also reads "0_1" or " 2 "."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"beat label {text!r} is not in ASCII digits")
    return int(text)


def _dataset_from_table(path, header, encoding):
    """The beats of path's body, parsed by one loadtxt call; raises
    ValueError, OverflowError or ConfigError on a bad row."""
    label_col = header.index("label")
    dtype = np.dtype([("samples", np.float32, (label_col,))]
                     + [(f"c{i}", object)
                        for i in range(label_col, len(header))])
    # a binary handle keeps the \r\n inside a quoted field as it is
    with open(path, "rb") as fh, warnings.catch_warnings():
        # loadtxt warns on a header-only file; the caller refuses it
        warnings.simplefilter("ignore", UserWarning)
        table = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                           comments=None, skiprows=1, ndmin=1,
                           encoding=encoding)

    def column(name, default):
        if name not in header:
            return [default] * len(table)
        return table[f"c{header.index(name)}"]

    labels = [_label(text) for text in table[f"c{label_col}"].tolist()]
    return BeatDataset(table["samples"], labels, column("split", "unassigned"),
                       column("source", "unknown"))


def _scan_rows(path, header):
    """Raise a ParseError naming the first row of path, read row by row
    with the csv module, whose field count, samples, label or split tag is
    bad; return when no row is."""
    label_col = header.index("label")
    split_col = header.index("split") if "split" in header else None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: row has {len(row)} fields, "
                                 f"header has {len(header)}", line=line_no)
            try:
                np.array(row[:label_col], dtype=np.float32)
                label = _label(row[label_col])
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", line=line_no) from None
            if split_col is not None and row[split_col] not in SPLIT_TAGS:
                raise ParseError(f"{path}: unknown split tag "
                                 f"{row[split_col]!r}", line=line_no)
            if not 0 <= label < len(CLASS_NAMES):
                raise ParseError(f"{path}: beat label {label} outside 0..4",
                                 line=line_no)
