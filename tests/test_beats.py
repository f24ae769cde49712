import csv
import io
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecgkit.beats import (
    BeatDataset,
    CLASS_NAMES,
    SPLIT_TAGS,
    load_records_dir,
    map_code_to_label,
    read_beats_csv,
    segment_beats,
    select_lead,
    stratified_split,
    write_beats_csv,
)
from ecgkit.errors import ConfigError, IoError, ParseError, SplitError
from ecgkit.wfdb_io import AnnotationEvent, MNEMONIC_TO_CODE, parse_header, write_record

from helpers import (beat_set, normalize_beat, reference_beat_csv_bytes,
                     reference_read_beats_csv, reference_segment_beats)


def ann(index, mnemonic):
    code = MNEMONIC_TO_CODE[mnemonic]
    return AnnotationEvent(index, code, mnemonic)


class TestLabelMapping:
    def test_normal_family_collapses_to_class_zero(self):
        for mnemonic in ("N", "L", "R"):
            assert map_code_to_label(MNEMONIC_TO_CODE[mnemonic]) == 0

    def test_case_sensitive_fusion_classes(self):
        assert map_code_to_label(MNEMONIC_TO_CODE["f"]) == 3
        assert map_code_to_label(MNEMONIC_TO_CODE["F"]) == 4

    def test_remaining_classes(self):
        assert map_code_to_label(MNEMONIC_TO_CODE["A"]) == 1
        assert map_code_to_label(MNEMONIC_TO_CODE["V"]) == 2

    def test_unmapped_codes_are_none(self):
        assert map_code_to_label(MNEMONIC_TO_CODE["/"]) is None
        assert map_code_to_label(MNEMONIC_TO_CODE["Q"]) is None
        assert map_code_to_label(999) is None


def normalized(samples):
    """The one beat segment_beats cuts from a signal of exactly its
    length."""
    samples = np.asarray(samples, dtype=np.float64)
    beats = segment_beats(samples, [ann(len(samples) // 2, "N")],
                          beat_len=len(samples))
    return beats.X[0]


class TestNormalize:
    def test_simple_ramp(self):
        np.testing.assert_allclose(normalized([1, 2, 3]), [0, 0.5, 1])

    def test_uneven_spacing(self):
        np.testing.assert_allclose(normalized([2, 4, 10]), [0, 0.25, 1])

    def test_constant_becomes_zeros(self):
        np.testing.assert_array_equal(normalized([7, 7, 7]), [0, 0, 0])

    def test_range_property(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(size=int(rng.integers(2, 300)))
            # segment_beats cuts windows of 3 samples and more
            if np.ptp(x) == 0 or len(x) < 3:
                continue
            out = normalized(x)
            assert abs(out.min()) <= 1e-12
            assert abs(out.max() - 1) <= 1e-12


class TestSegmentation:
    # A squared ramp: min-max normalizing any two different windows of it
    # gives different beats, so an off-center window fails the comparison.
    def test_window_placement(self):
        signal = np.arange(1000.0) ** 2
        beats = segment_beats(signal, [ann(200, "N")], beat_len=187)
        assert len(beats) == 1
        assert len(beats.X[0]) == 187
        # centered window: 93 samples before the peak, 93 after
        np.testing.assert_array_equal(
            beats.X[0],
            normalize_beat(signal[107:294]).astype(np.float32))

    def test_even_length_window(self):
        signal = np.arange(100.0) ** 2
        beats = segment_beats(signal, [ann(50, "V")], beat_len=4)
        np.testing.assert_array_equal(
            beats.X[0],
            normalize_beat(signal[48:52]).astype(np.float32))

    def test_edge_beats_dropped(self):
        signal = np.zeros(400)
        events = [ann(10, "N"), ann(200, "N"), ann(395, "N")]
        beats = segment_beats(signal, events, beat_len=187)
        assert len(beats) == 1
        assert beats.source[0].endswith(":200")

    def test_count_preserved_for_interior_beats(self):
        signal = np.random.default_rng(0).normal(size=2000)
        events = [ann(300 + 250 * i, "N") for i in range(5)]
        beats = segment_beats(signal, events, beat_len=187)
        assert len(beats) == 5

    def test_unmapped_annotations_skipped(self):
        signal = np.zeros(1000)
        events = [ann(300, "N"), ann(400, "/"), ann(500, "V")]
        beats = segment_beats(signal, events, beat_len=187)
        assert beats.y.tolist() == [0, 2]

    def test_beats_are_normalized_by_default(self):
        signal = np.random.default_rng(1).normal(size=1000)
        beats = segment_beats(signal, [ann(500, "N")], beat_len=187)
        assert beats.X[0].min() == pytest.approx(0, abs=1e-6)
        assert beats.X[0].max() == pytest.approx(1, abs=1e-6)

    def test_too_short_window_rejected(self):
        with pytest.raises(ConfigError):
            segment_beats(np.zeros(100), [ann(50, "N")], beat_len=2)


# the kept beat codes, and rhythm, artifact and paced marks the segmenter
# skips
CODES = st.sampled_from([(MNEMONIC_TO_CODE[m], m)
                         for m in ("N", "L", "R", "A", "V", "f", "F", "/",
                                   "Q", "+", "~")])
# ADC-like levels, so windows share values and some are constant, and
# arbitrary finite values
SIGNAL_VALUES = st.one_of(st.integers(-2048, 2047).map(lambda v: v / 200.0),
                          st.floats(-1e6, 1e6))


@st.composite
def annotated_signals(draw):
    """(signal, events, beat_len, record name): events on and around both
    windows that touch a record edge, and anywhere else in the record."""
    beat_len = draw(st.integers(3, 12))
    n = draw(st.integers(0, 60))
    if draw(st.booleans()):
        signal = np.full(n, draw(SIGNAL_VALUES))
    else:
        signal = draw(hnp.arrays(np.float64, n, elements=SIGNAL_VALUES))
    half = beat_len // 2
    edges = [half - 1, half, n - beat_len + half, n - beat_len + half + 1]
    index = st.one_of(st.integers(0, n + beat_len),
                      st.sampled_from([i for i in edges if i >= 0] or [0]))
    events = [AnnotationEvent(i, code, mnemonic) for i, (code, mnemonic)
              in draw(st.lists(st.tuples(index, CODES), max_size=12))]
    name = draw(st.sampled_from(["", "100", "rec,7"]))
    return signal, events, beat_len, name


class TestSegmentationProperties:
    @given(case=annotated_signals())
    def test_rows_bit_equal_per_beat_reference(self, case):
        signal, events, beat_len, name = case
        got = segment_beats(signal, events, beat_len=beat_len,
                            source_record=name)
        rows, labels, sources = reference_segment_beats(signal, events,
                                                        beat_len, name)
        want = np.array(rows, dtype=np.float32).reshape(len(rows), beat_len)
        assert got.X.dtype == np.float32
        np.testing.assert_array_equal(got.X.view(np.uint32),
                                      want.view(np.uint32))
        assert got.y.tolist() == labels
        assert got.source.tolist() == sources
        assert all(tag == "unassigned" for tag in got.split)

    def test_constant_windows_are_zeros(self):
        signal = np.concatenate([np.full(10, 3.5), np.arange(10.0)])
        beats = segment_beats(signal, [ann(5, "N"), ann(15, "V")],
                              beat_len=9)
        np.testing.assert_array_equal(beats.X[0], np.zeros(9))
        assert beats.X[0].view(np.uint32).max() == 0  # +0.0, not -0.0
        np.testing.assert_array_equal(beats.X[1],
                                      normalize_beat(signal[11:20]))


class TestLeadSelection:
    def test_prefers_mlii_by_default(self):
        h = parse_header("r 2 360 100\n"
                         "r.dat 212 200 11 0 0 0 0 V5\n"
                         "r.dat 212 200 11 0 0 0 0 MLII\n")
        assert select_lead(h) == 1

    def test_falls_back_to_first_signal(self):
        h = parse_header("r 2 360 100\n"
                         "r.dat 212 200 11 0 0 0 0 V5\n"
                         "r.dat 212 200 11 0 0 0 0 V2\n")
        assert select_lead(h) == 0

    def test_explicit_lead_must_exist(self):
        h = parse_header("r 1 360 100\nr.dat 212 200 11 0 0 0 0 V5\n")
        assert select_lead(h, "V5") == 0
        with pytest.raises(ConfigError) as exc:
            select_lead(h, "MLII")
        assert "V5" in str(exc.value)


def columns(n, length=4):
    return (np.zeros((n, length), dtype=np.float32), np.zeros(n, np.int64),
            np.full(n, "train", dtype=object), np.full(n, "r", dtype=object))


class TestBeatDataset:
    def test_float32_matrix_kept_without_copy(self):
        X, y, split, source = columns(3)
        ds = BeatDataset(X, y, split, source)
        assert ds.X is X and ds.y is y
        assert ds.split is split and ds.source is source
        assert len(ds) == 3

    def test_other_samples_cast_to_float32(self):
        _, y, split, source = columns(2)
        ds = BeatDataset([[0.1, 0.2], [0.3, 0.4]], y, split, source)
        assert ds.X.dtype == np.float32
        np.testing.assert_array_equal(
            ds.X, np.array([[0.1, 0.2], [0.3, 0.4]], dtype=np.float32))

    def test_samples_must_be_a_matrix(self):
        _, y, split, source = columns(4)
        with pytest.raises(ConfigError, match=r"\[n, L\] matrix"):
            BeatDataset(np.zeros(4, dtype=np.float32), y, split, source)

    @pytest.mark.parametrize("short", [1, 2, 3])
    def test_columns_must_agree_in_length(self, short):
        cols = list(columns(3))
        cols[short] = cols[short][:2]
        with pytest.raises(ConfigError, match="differ in length"):
            BeatDataset(*cols)

    @pytest.mark.parametrize("label", [-1, 5])
    def test_labels_outside_the_classes_refused(self, label):
        X, y, split, source = columns(3)
        y[1] = label
        with pytest.raises(ConfigError, match=f"beat label {label} outside"):
            BeatDataset(X, y, split, source)

    def test_unknown_split_tag_refused(self):
        X, y, split, source = columns(3)
        split[2] = "held-out"
        with pytest.raises(ConfigError, match="held-out"):
            BeatDataset(X, y, split, source)

    def test_rows_view(self):
        X, y, split, source = columns(2)
        y[1] = 3
        rows = list(BeatDataset(X, y, split, source))
        assert [(r.label, r.source, r.split_tag) for r in rows] == \
            [(0, "r", "train"), (3, "r", "train")]
        assert rows[1].samples.base is X


def build_dataset(counts, length=187, seed=0):
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for label, n in counts.items():
        for _ in range(n):
            rows.append(rng.random(length, dtype=np.float32))
            labels.append(label)
    return beat_set(rows, labels, source="synthetic")


class TestStratifiedSplit:
    def test_worked_example(self):
        ds = build_dataset({0: 60, 1: 20, 2: 20})
        stratified_split(ds, 0.85, seed=3)
        train = ds.counts_for_split("train")
        val = ds.counts_for_split("val")
        assert (train[0], train[1], train[2]) == (51, 17, 17)
        assert (val[0], val[1], val[2]) == (9, 3, 3)

    def test_tags_partition_dataset(self):
        ds = build_dataset({0: 11, 2: 7, 4: 5})
        stratified_split(ds, 0.85, seed=1)
        assert all(tag in ("train", "val") for tag in ds.split)

    def test_same_seed_reproduces_assignment(self):
        tags = []
        for _ in range(2):
            ds = build_dataset({0: 30, 1: 10}, seed=9)
            stratified_split(ds, 0.8, seed=42)
            tags.append(ds.split.tolist())
        assert tags[0] == tags[1]

    def test_different_seeds_differ(self):
        ds1 = build_dataset({0: 200}, seed=9)
        ds2 = build_dataset({0: 200}, seed=9)
        stratified_split(ds1, 0.5, seed=1)
        stratified_split(ds2, 0.5, seed=2)
        assert ds1.split.tolist() != ds2.split.tolist()

    def test_fraction_bounds(self):
        ds = build_dataset({0: 10})
        with pytest.raises(SplitError):
            stratified_split(ds, 1.0, seed=17)
        with pytest.raises(SplitError):
            stratified_split(ds, 0.0, seed=17)

    def test_tiny_class_rejected_by_name(self):
        ds = build_dataset({0: 10, 2: 1})
        with pytest.raises(SplitError) as exc:
            stratified_split(ds, 0.85, seed=17)
        assert CLASS_NAMES[2] in str(exc.value)

    def test_train_share_close_to_fraction(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            counts = {label: int(rng.integers(2, 400))
                      for label in range(5)}
            ds = build_dataset(counts)
            stratified_split(ds, 0.85, seed=int(rng.integers(1 << 30)))
            train = ds.counts_for_split("train")
            for label, total in counts.items():
                assert abs(train[label] / total - 0.85) <= 1.0 / total + 1e-12


class TestBeatCsv:
    def test_round_trip_with_all_columns(self, tmp_path):
        ds = build_dataset({0: 4, 2: 3}, length=16)
        stratified_split(ds, 0.5, seed=11)
        path = write_beats_csv(tmp_path / "beats.csv", ds)
        back = read_beats_csv(path)
        assert len(back) == len(ds)
        np.testing.assert_array_equal(ds.X, back.X)
        np.testing.assert_array_equal(ds.y, back.y)
        assert back.split.tolist() == ds.split.tolist()
        assert back.source.tolist() == ds.source.tolist()

    def test_reader_tolerates_minimal_schema(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("s0,s1,s2,label\n0,0.5,1,2\n0.1,0.2,0.3,0\n")
        ds = read_beats_csv(path)
        assert len(ds) == 2
        assert ds.y.tolist() == [2, 0]
        assert all(tag == "unassigned" for tag in ds.split)

    def test_header_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            read_beats_csv(path)
        path.write_text("s0,s2,label\n1,2,3\n")
        with pytest.raises(ParseError):
            read_beats_csv(path)

    def test_unknown_split_tag_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s0,label,split\n0.5,1,held-out\n")
        with pytest.raises(ParseError) as exc:
            read_beats_csv(path)
        assert exc.value.line == 2

    def test_out_of_range_label_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("s0,label\n0.5,1\n0.5,7\n")
        with pytest.raises(ParseError, match="beat label 7") as exc:
            read_beats_csv(path)
        assert exc.value.line == 3
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("label", ["0_1", " 2 ", "+1", "-0", "\u0663",
                                       "1.0", ""])
    def test_label_spelled_other_than_ascii_digits_names_its_line(
            self, tmp_path, label):
        # Python's int reads all of these but the last two as a class
        path = tmp_path / "odd.csv"
        path.write_text(f"s0,label\n0.5,1\n0.25,{label}\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match="ASCII digits") as exc:
            read_beats_csv(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("row, fields", [("0.5,2", 2), ("0.5,2,val,x,y", 5)])
    def test_row_with_other_field_count_names_its_line(self, tmp_path, row,
                                                       fields):
        path = tmp_path / "ragged.csv"
        path.write_text(f"s0,label,split,source\n0.5,1,train,a\n\n{row}\n")
        with pytest.raises(ParseError, match=f"row has {fields} fields, "
                                             f"header has 4") as exc:
            read_beats_csv(path)
        assert exc.value.line == 4

    def test_sample_spelling_loadtxt_refuses_is_refused(self, tmp_path):
        # Python's float reads "1_0" as 10.0; the file is refused as the
        # table parse refuses it, and since no row check objects to the
        # row, no line is named
        path = tmp_path / "odd.csv"
        path.write_text("s0,s1,label\n0.5,0.25,1\n0.5,1_0,1\n")
        with pytest.raises(ParseError, match="1_0") as exc:
            read_beats_csv(path)
        assert exc.value.line is None

    def test_empty_dataset_refused(self, tmp_path):
        with pytest.raises(IoError):
            write_beats_csv(tmp_path / "x.csv", beat_set([], []))

    def test_repeated_and_distinct_blocks_match_reference(self, tmp_path):
        # ADC-quantized rows, whose values repeat, then GAN-like rows of
        # distinct values, across more than two write blocks
        rng = np.random.default_rng(5)
        quantized = rng.integers(0, 40, size=(200, 24)) / 39.0
        distinct = rng.random((140, 24))
        rows = np.vstack([quantized, distinct])
        beats = beat_set(rows, [i % 5 for i in range(len(rows))],
                         split=[SPLIT_TAGS[i % 4] for i in range(len(rows))],
                         source=[f"r{i // 50},{i}" for i in range(len(rows))])
        path = write_beats_csv(tmp_path / "mixed.csv", beats)
        assert path.read_bytes() == reference_beat_csv_bytes(beats)

    def test_byte_format_pinned_on_tricky_values(self, tmp_path):
        tricky = [np.nan, np.inf, -np.inf, -0.0, 1e-45, 1e-5, 123456789.0,
                  3.4028235e38, 0.1]
        sources = ["rec,100:5", 'say "hi"', "line\nbreak", "plain"]
        beats = beat_set([np.roll(tricky, i) for i in range(len(sources))],
                         [i % 5 for i in range(len(sources))],
                         split=[SPLIT_TAGS[i % 3]
                                for i in range(len(sources))],
                         source=sources)
        path = write_beats_csv(tmp_path / "tricky.csv", beats)

        # reference: one csv.writer row per beat, each sample formatted as
        # the float32 value with "{:.9g}"
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow([f"s{i}" for i in range(len(tricky))]
                        + ["label", "split", "source"])
        for samples, label, split, source in zip(beats.X, beats.y,
                                                 beats.split, beats.source):
            writer.writerow([f"{v:.9g}" for v in samples]
                            + [str(label), split, source])
        assert path.read_bytes() == ref.getvalue().encode()

        back = read_beats_csv(path)
        assert len(back) == len(beats)
        np.testing.assert_array_equal(back.X.view(np.uint32),
                                      beats.X.view(np.uint32))
        assert back.y.tolist() == beats.y.tolist()
        assert back.split.tolist() == beats.split.tolist()
        assert back.source.tolist() == sources


def _float32_exact(values):
    return [float(np.float32(v)) for v in values]


# nan, +-inf, -0.0, subnormals and values of 1e9 and up, besides whatever
# st.floats draws (NaNs with other payloads and signs among them)
SAMPLE_VALUES = st.one_of(
    st.floats(width=32),
    st.sampled_from(_float32_exact(
        [np.nan, np.inf, -np.inf, -0.0, 1e-45, -1e-45, 1.1754942e-38,
         123456789.0, 3.4028235e38, -3.4028235e38])),
    st.floats(min_value=1e9, max_value=float(np.finfo(np.float32).max),
              width=32),
)
SOURCES = st.lists(
    st.one_of(st.sampled_from([",", '"', "\r\n", "\r", "\n", " ", "#",
                               "rec:1"]),
              st.characters(exclude_categories=("Cs",),
                            exclude_characters="\x00")),
    max_size=6).map("".join)
# cell text a row can be corrupted with: values np.float32, int and the
# split tags refuse, and a few they accept in other spellings
ODD_CELLS = st.one_of(
    st.sampled_from(["", " ", "x", "nan(1)", "1e", "0x10", "1_0", " 1 ",
                     "+inf", "1.5 2", "\u0663", "5", "-1", "3.0", "Train",
                     "val ", "held-out", '"', "a,b", "\r\n"]),
    st.text(alphabet="0123456789.-+eE naif,\"x", max_size=5))


@st.composite
def beat_datasets(draw):
    """Up to three write blocks of beats over a few distinct sources."""
    samples = draw(hnp.arrays(
        np.float32, st.tuples(st.integers(1, 300), st.integers(1, 6)),
        elements=SAMPLE_VALUES))
    sources = draw(st.lists(SOURCES, min_size=1, max_size=4))
    labels = draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    tags = draw(st.lists(st.sampled_from(SPLIT_TAGS), min_size=1,
                         max_size=4))
    n = len(samples)
    return beat_set(samples, [labels[i % len(labels)] for i in range(n)],
                    split=[tags[i % len(tags)] for i in range(n)],
                    source=[sources[i % len(sources)] for i in range(n)])


@st.composite
def beat_files(draw, corrupt):
    """The text of a rectangular beat CSV: samples, label and any of the
    split/source columns, \\r\\n- or \\n-terminated, with blank lines
    between rows; with corrupt, one body cell replaced by odd text."""
    length = draw(st.integers(1, 5))
    extra = draw(st.sampled_from([("split", "source"), ("source", "split"),
                                  ("split",), ("source",), ()]))
    rows = [[f"s{i}" for i in range(length)] + ["label", *extra]]
    for _ in range(draw(st.integers(1, 6))):
        values = draw(st.lists(SAMPLE_VALUES, min_size=length,
                               max_size=length))
        fields = {"split": draw(st.sampled_from(SPLIT_TAGS)),
                  "source": draw(SOURCES)}
        rows.append(["%.9g" % v for v in values]
                    + [str(draw(st.integers(0, 4)))]
                    + [fields[name] for name in extra])
    if corrupt:
        row = draw(st.integers(1, len(rows) - 1))
        rows[row][draw(st.integers(0, len(rows[0]) - 1))] = draw(ODD_CELLS)
    terminator = draw(st.sampled_from(["\r\n", "\n"]))
    blank_before = draw(st.sets(st.integers(2, len(rows))))
    lines = []
    for i, row in enumerate(rows):
        if i in blank_before:
            lines.append("")
        # a "\r\n" writer quotes a field holding a lone "\r" too
        text = io.StringIO(newline="")
        csv.writer(text).writerow(row)
        lines.append(text.getvalue().removesuffix("\r\n"))
    return "".join(line + terminator for line in lines)


def _outcome(reader, path):
    """What a reader makes of path: its beats bit for bit, or the message
    and line of its ParseError."""
    try:
        dataset = reader(path)
    except ParseError as exc:
        return ("refused", str(exc), exc.line)
    return ("read", list(zip(dataset.X.view(np.uint32).tolist(),
                             dataset.y.tolist(), dataset.split.tolist(),
                             dataset.source.tolist())))


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("beat_csv_properties") / "beats.csv"


class TestBeatCsvProperties:
    @given(dataset=beat_datasets())
    def test_writer_bytes_equal_per_value_reference(self, csv_path, dataset):
        write_beats_csv(csv_path, dataset)
        assert csv_path.read_bytes() == reference_beat_csv_bytes(dataset)

    @given(dataset=beat_datasets())
    def test_read_of_write_is_bit_equal(self, csv_path, dataset):
        back = read_beats_csv(write_beats_csv(csv_path, dataset))
        assert len(back) == len(dataset)
        # "nan" reads back as the one quiet NaN, whatever its payload
        expected = np.where(np.isnan(dataset.X), np.float32(np.nan),
                            dataset.X)
        assert back.X.dtype == np.float32
        np.testing.assert_array_equal(back.X.view(np.uint32),
                                      expected.view(np.uint32))
        assert back.y.tolist() == dataset.y.tolist()
        assert back.split.tolist() == dataset.split.tolist()
        assert back.source.tolist() == dataset.source.tolist()

    @given(text=beat_files(corrupt=False))
    def test_reader_equals_reference_on_rectangular_files(self, csv_path,
                                                          text):
        with open(csv_path, "w", newline="") as fh:
            fh.write(text)
        want = _outcome(reference_read_beats_csv, csv_path)
        assert want[0] == "read"
        assert _outcome(read_beats_csv, csv_path) == want

    @given(text=beat_files(corrupt=True))
    def test_reader_equals_reference_on_corrupted_cells(self, csv_path,
                                                        text):
        # the same beats where the reference reads the file, else the same
        # ParseError message and line; a sample spelling only np.loadtxt
        # refuses names no line, and the message is loadtxt's
        with open(csv_path, "w", newline="") as fh:
            fh.write(text)
        got = _outcome(read_beats_csv, csv_path)
        want = _outcome(reference_read_beats_csv, csv_path)
        if want[0] == "refused" and want[2] is None:
            assert got[0] == "refused" and got[2] is None
        else:
            assert got == want


class TestRecordsDirLoader:
    def make_record(self, directory, name, events, n=4000, lead="MLII"):
        # crc32, not the per-process salted hash(), so a failure replays
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        sig = rng.integers(-900, 900, size=n)
        write_record(directory, name, [sig], leads=[lead], annotations=events)

    def test_loads_and_counts(self, tmp_path):
        self.make_record(tmp_path, "a01",
                         [ann(500, "N"), ann(900, "V"), ann(1300, "N")])
        self.make_record(tmp_path, "a02", [ann(700, "A"), ann(1100, "F")])
        ds = load_records_dir(tmp_path)
        assert len(ds) == 5
        assert ds.counts_for_split("unassigned") == {0: 2, 1: 1, 2: 1, 3: 0,
                                                     4: 1}
        sources = sorted(ds.source)
        assert sources[0].startswith("a01:")

    def test_edge_and_unmapped_beats_excluded(self, tmp_path):
        self.make_record(tmp_path, "b01",
                         [ann(5, "N"), ann(600, "/"), ann(900, "N")])
        ds = load_records_dir(tmp_path)
        assert len(ds) == 1

    def test_missing_annotations_fail(self, tmp_path):
        write_record(tmp_path, "c01", [np.zeros(500, dtype=int)])
        with pytest.raises(IoError):
            load_records_dir(tmp_path)

    def test_empty_directory_fails(self, tmp_path):
        with pytest.raises(IoError):
            load_records_dir(tmp_path)

    def test_explicit_missing_lead_fails(self, tmp_path):
        self.make_record(tmp_path, "d01", [ann(500, "N"), ann(900, "N")],
                         lead="V5")
        with pytest.raises(ConfigError):
            load_records_dir(tmp_path, lead="MLII")
        ds = load_records_dir(tmp_path)  # default falls back to first lead
        assert len(ds) == 2
