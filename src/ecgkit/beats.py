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
from dataclasses import dataclass
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


@dataclass
class BeatRecord:
    samples: np.ndarray
    label: int
    source: str = "synthetic"
    split_tag: str = "unassigned"

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float32)
        if self.samples.ndim != 1:
            raise ConfigError("beat samples must be a 1-D vector")
        if not 0 <= self.label < len(CLASS_NAMES):
            raise ConfigError(f"beat label {self.label} outside 0..4")


class BeatDataset:
    """Ordered beat collection with per-class bookkeeping.

    Mutating methods are single-writer; once split tags are assigned the
    dataset should be treated as read-only.
    """

    def __init__(self, beats=None):
        self.beats: list[BeatRecord] = list(beats) if beats else []

    def __len__(self):
        return len(self.beats)

    def __iter__(self):
        return iter(self.beats)

    def extend(self, beats):
        self.beats.extend(beats)

    def counts_for_split(self, split_tag):
        counts = {label: 0 for label in range(len(CLASS_NAMES))}
        for beat in self.beats:
            if beat.split_tag == split_tag:
                counts[beat.label] += 1
        return counts

    def matrix(self, split_tag=None):
        """Stack beats into (X[n, L] float32, y[n] int64)."""
        chosen = [b for b in self.beats
                  if split_tag is None or b.split_tag == split_tag]
        if not chosen:
            length = len(self.beats[0].samples) if self.beats else DEFAULT_BEAT_LEN
            return (np.zeros((0, length), dtype=np.float32),
                    np.zeros(0, dtype=np.int64))
        X = np.stack([b.samples for b in chosen]).astype(np.float32)
        y = np.array([b.label for b in chosen], dtype=np.int64)
        return X, y


def normalize_beat(samples):
    """Min-max rescale into [0, 1]; a constant beat becomes all zeros."""
    x = np.asarray(samples, dtype=np.float64)
    lo = x.min()
    hi = x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def segment_beats(signal, annotations, beat_len=DEFAULT_BEAT_LEN,
                  source_record=""):
    """Cut one fixed window per mapped annotation, centered on the R-peak.

    The window spans floor(L/2) samples before the peak and L-1-floor(L/2)
    after it; windows that would cross either record edge are dropped.
    Each kept window is min-max normalized with normalize_beat.
    """
    if beat_len < 3:
        raise ConfigError(f"beat length {beat_len} too short, need >= 3")
    signal = np.asarray(signal, dtype=np.float64)
    half = beat_len // 2
    beats = []
    for event in annotations:
        label = map_code_to_label(event.code)
        if label is None:
            continue
        start = event.sample_index - half
        end = start + beat_len
        if start < 0 or end > len(signal):
            continue
        window = normalize_beat(signal[start:end])
        source = (f"{source_record}:{event.sample_index}"
                  if source_record else f"beat:{event.sample_index}")
        beats.append(BeatRecord(window, label, source=source))
    return beats


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
    dataset = BeatDataset()
    for hea_path in header_paths:
        header = parse_header(hea_path.read_bytes())
        record_path = hea_path.with_suffix("")
        atr_path = hea_path.with_suffix(".atr")
        if not atr_path.exists():
            raise IoError(f"missing annotation file {atr_path}")
        header, signals = read_record(record_path, header=header)
        annotations = parse_annotations(atr_path.read_bytes())
        idx = select_lead(header, lead)
        dataset.extend(segment_beats(
            signals[idx], annotations, beat_len=beat_len,
            source_record=header.record_name))
    return dataset


def stratified_split(dataset, train_fraction, seed):
    """Tag every beat train or val, per class, keyed on ``seed``.

    Each class contributes floor(count x (1 - train_fraction)) beats to
    validation and the remainder (ties included) to training.
    """
    if not 0.0 < train_fraction < 1.0:
        raise SplitError(
            f"train fraction must lie strictly inside (0, 1), got {train_fraction}")
    by_class = {label: [] for label in range(len(CLASS_NAMES))}
    for i, beat in enumerate(dataset.beats):
        by_class[beat.label].append(i)
    for label, indices in by_class.items():
        if 0 < len(indices) < 2:
            raise SplitError(
                f"class {CLASS_NAMES[label]} has only {len(indices)} beat; "
                f"need at least 2 to split")
    rng = np.random.default_rng(seed)
    for label in range(len(CLASS_NAMES)):
        indices = np.array(by_class[label], dtype=np.int64)
        if len(indices) == 0:
            continue
        shuffled = indices[rng.permutation(len(indices))]
        # tiny nudge keeps decimal-exact products (e.g. 60 x 0.15) on the
        # integer they name despite binary float representation
        n_val = int(math.floor(len(indices) * (1.0 - train_fraction) + 1e-9))
        for i in shuffled[:n_val]:
            dataset.beats[i].split_tag = "val"
        for i in shuffled[n_val:]:
            dataset.beats[i].split_tag = "train"
    return dataset


def write_beats_csv(path, dataset):
    """Write the canonical beat CSV: samples, label, split and source.

    Each sample is written as ``%.9g``, which round-trips float32 exactly
    (nan, inf and -inf for the non-finite values).  Rows are formatted
    _WRITE_BLOCK at a time; where values repeat, as ADC-quantized beats do,
    each distinct float32 value is formatted once per block or taken from
    the block before.  Label, split and source are CSV-quoted only when
    they need it, for example a source holding a comma, a quote or a
    newline.  Rows end in ``\\r\\n``.  A dataset whose beats differ in
    length is refused before the file is opened.
    """
    if not dataset.beats:
        raise IoError("refusing to write an empty beat file")
    length = len(dataset.beats[0].samples)
    for beat in dataset.beats:
        if len(beat.samples) != length:
            raise IoError(
                f"beat length {len(beat.samples)} != {length}; "
                f"dataset is not rectangular")
    header = [f"s{i}" for i in range(length)] + ["label", "split", "source"]
    samples_fmt = "%.9g," * length
    prev_bits, prev_text = np.empty(0, np.uint32), np.empty(0, object)
    with atomic_open(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, len(dataset.beats), _WRITE_BLOCK):
            block = dataset.beats[start:start + _WRITE_BLOCK]
            # float32 -> Python float is exact, so "%.9g" of tolist() is the
            # format of the float32 value; distinct by bit pattern, so -0.0
            # keeps its sign
            samples = np.stack([beat.samples for beat in block])
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
            for row, beat in zip(rows, block):
                fh.write(row)
                writer.writerow([str(beat.label), beat.split_tag, beat.source])
    return path


def read_beats_csv(path):
    """Read a beat CSV back into a BeatDataset.

    The body is parsed in one ``np.loadtxt`` pass: the samples as one
    float32 matrix, whose rows become the beats' samples, and the columns
    after them as strings.  Tolerates files without the optional
    split/source columns; such beats come back unassigned/unknown.  A row
    whose field count differs from the header's is refused.  When loadtxt
    or a label, split or sample check refuses the file, it is scanned again
    row by row, so the ParseError names the line.
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
        beats = _beats_from_table(path, header, encoding)
    except (ValueError, ConfigError):
        beats = _scan_rows(path, header)
    if not beats:
        raise ParseError(f"{path}: no beat rows", line=2)
    return BeatDataset(beats)


def _beats_from_table(path, header, encoding):
    """The beats of path's body, parsed by one loadtxt call; raises
    ValueError or ConfigError on anything _scan_rows would refuse."""
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
        return table[f"c{header.index(name)}"].tolist()

    splits = column("split", "unassigned")
    if not set(splits) <= set(SPLIT_TAGS):
        raise ValueError("unknown split tag")
    return [BeatRecord(samples, int(label), source=source, split_tag=split)
            for samples, label, split, source
            in zip(table["samples"], table[f"c{label_col}"].tolist(), splits,
                   column("source", "unknown"))]


def _scan_rows(path, header):
    """The beats of path read row by row with the csv module; the first
    bad row raises a ParseError naming its line."""
    label_col = header.index("label")
    split_col = header.index("split") if "split" in header else None
    source_col = header.index("source") if "source" in header else None
    beats = []
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
                samples = np.array(row[:label_col], dtype=np.float32)
                label = int(row[label_col])
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", line=line_no) from None
            split_tag = row[split_col] if split_col is not None \
                else "unassigned"
            if split_tag not in SPLIT_TAGS:
                raise ParseError(
                    f"{path}: unknown split tag {split_tag!r}", line=line_no)
            source = row[source_col] if source_col is not None else "unknown"
            try:
                beats.append(BeatRecord(samples, label, source=source,
                                        split_tag=split_tag))
            except ConfigError as exc:
                raise ParseError(f"{path}: {exc}", line=line_no) from None
    return beats
