import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecgkit.beats import (
    BeatDataset,
    BeatRecord,
    CLASS_NAMES,
    SPLIT_TAGS,
    load_records_dir,
    map_code_to_label,
    normalize_beat,
    read_beats_csv,
    segment_beats,
    select_lead,
    stratified_split,
    write_beats_csv,
)
from ecgkit.errors import ConfigError, IoError, ParseError, SplitError
from ecgkit.wfdb_io import AnnotationEvent, MNEMONIC_TO_CODE, parse_header, write_record

from helpers import reference_beat_csv_bytes, reference_read_beats_csv


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


class TestNormalize:
    def test_simple_ramp(self):
        np.testing.assert_allclose(normalize_beat([1, 2, 3]), [0, 0.5, 1])

    def test_uneven_spacing(self):
        np.testing.assert_allclose(normalize_beat([2, 4, 10]), [0, 0.25, 1])

    def test_constant_becomes_zeros(self):
        np.testing.assert_array_equal(normalize_beat([7, 7, 7]), [0, 0, 0])

    def test_range_property(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(size=int(rng.integers(2, 300)))
            if np.ptp(x) == 0:
                continue
            out = normalize_beat(x)
            assert abs(out.min()) <= 1e-12
            assert abs(out.max() - 1) <= 1e-12


class TestSegmentation:
    # A squared ramp: min-max normalizing any two different windows of it
    # gives different beats, so an off-center window fails the comparison.
    def test_window_placement(self):
        signal = np.arange(1000.0) ** 2
        beats = segment_beats(signal, [ann(200, "N")], beat_len=187)
        assert len(beats) == 1
        assert len(beats[0].samples) == 187
        # centered window: 93 samples before the peak, 93 after
        np.testing.assert_array_equal(
            beats[0].samples,
            normalize_beat(signal[107:294]).astype(np.float32))

    def test_even_length_window(self):
        signal = np.arange(100.0) ** 2
        beats = segment_beats(signal, [ann(50, "V")], beat_len=4)
        np.testing.assert_array_equal(
            beats[0].samples,
            normalize_beat(signal[48:52]).astype(np.float32))

    def test_edge_beats_dropped(self):
        signal = np.zeros(400)
        events = [ann(10, "N"), ann(200, "N"), ann(395, "N")]
        beats = segment_beats(signal, events, beat_len=187)
        assert len(beats) == 1
        assert beats[0].source.endswith(":200")

    def test_count_preserved_for_interior_beats(self):
        signal = np.random.default_rng(0).normal(size=2000)
        events = [ann(300 + 250 * i, "N") for i in range(5)]
        beats = segment_beats(signal, events, beat_len=187)
        assert len(beats) == 5

    def test_unmapped_annotations_skipped(self):
        signal = np.zeros(1000)
        events = [ann(300, "N"), ann(400, "/"), ann(500, "V")]
        beats = segment_beats(signal, events, beat_len=187)
        assert [b.label for b in beats] == [0, 2]

    def test_beats_are_normalized_by_default(self):
        signal = np.random.default_rng(1).normal(size=1000)
        beats = segment_beats(signal, [ann(500, "N")], beat_len=187)
        assert beats[0].samples.min() == pytest.approx(0, abs=1e-6)
        assert beats[0].samples.max() == pytest.approx(1, abs=1e-6)

    def test_too_short_window_rejected(self):
        with pytest.raises(ConfigError):
            segment_beats(np.zeros(100), [ann(50, "N")], beat_len=2)


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


def build_dataset(counts, length=187, seed=0):
    rng = np.random.default_rng(seed)
    beats = []
    for label, n in counts.items():
        for _ in range(n):
            beats.append(BeatRecord(rng.random(length, dtype=np.float32),
                                    label, source="synthetic"))
    return BeatDataset(beats)


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
        assert all(b.split_tag in ("train", "val") for b in ds.beats)

    def test_same_seed_reproduces_assignment(self):
        tags = []
        for _ in range(2):
            ds = build_dataset({0: 30, 1: 10}, seed=9)
            stratified_split(ds, 0.8, seed=42)
            tags.append([b.split_tag for b in ds.beats])
        assert tags[0] == tags[1]

    def test_different_seeds_differ(self):
        ds1 = build_dataset({0: 200}, seed=9)
        ds2 = build_dataset({0: 200}, seed=9)
        stratified_split(ds1, 0.5, seed=1)
        stratified_split(ds2, 0.5, seed=2)
        assert [b.split_tag for b in ds1.beats] != [b.split_tag for b in ds2.beats]

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
        X0, y0 = ds.matrix()
        X1, y1 = back.matrix()
        np.testing.assert_array_equal(X0, X1)
        np.testing.assert_array_equal(y0, y1)
        assert [b.split_tag for b in back] == [b.split_tag for b in ds]
        assert [b.source for b in back] == [b.source for b in ds]

    def test_reader_tolerates_minimal_schema(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("s0,s1,s2,label\n0,0.5,1,2\n0.1,0.2,0.3,0\n")
        ds = read_beats_csv(path)
        assert len(ds) == 2
        assert [b.label for b in ds] == [2, 0]
        assert all(b.split_tag == "unassigned" for b in ds)

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

    @pytest.mark.parametrize("row, fields", [("0.5,2", 2), ("0.5,2,val,x,y", 5)])
    def test_row_with_other_field_count_names_its_line(self, tmp_path, row,
                                                       fields):
        path = tmp_path / "ragged.csv"
        path.write_text(f"s0,label,split,source\n0.5,1,train,a\n\n{row}\n")
        with pytest.raises(ParseError, match=f"row has {fields} fields, "
                                             f"header has 4") as exc:
            read_beats_csv(path)
        assert exc.value.line == 4

    def test_samples_are_rows_of_one_matrix(self, tmp_path):
        ds = build_dataset({0: 3, 1: 2}, length=8)
        back = read_beats_csv(write_beats_csv(tmp_path / "b.csv", ds))
        matrix = back.beats[0].samples.base
        assert matrix is not None
        assert all(beat.samples.base is matrix for beat in back)

    def test_empty_dataset_refused(self, tmp_path):
        with pytest.raises(IoError):
            write_beats_csv(tmp_path / "x.csv", BeatDataset())

    def test_ragged_dataset_refused_before_any_file_is_written(self, tmp_path):
        ds = BeatDataset([BeatRecord(np.zeros(8), 0), BeatRecord(np.ones(5), 1)])
        path = tmp_path / "ragged.csv"
        with pytest.raises(IoError, match="not rectangular"):
            write_beats_csv(path, ds)
        assert not path.exists()

    def test_repeated_and_distinct_blocks_match_reference(self, tmp_path):
        # ADC-quantized rows, whose values repeat, then GAN-like rows of
        # distinct values, across more than two write blocks
        rng = np.random.default_rng(5)
        quantized = rng.integers(0, 40, size=(200, 24)) / 39.0
        distinct = rng.random((140, 24))
        beats = [BeatRecord(row, i % 5, source=f"r{i // 50},{i}",
                            split_tag=SPLIT_TAGS[i % 4])
                 for i, row in enumerate(np.vstack([quantized, distinct]))]
        path = write_beats_csv(tmp_path / "mixed.csv", BeatDataset(beats))
        assert path.read_bytes() == \
            reference_beat_csv_bytes(BeatDataset(beats))

    def test_byte_format_pinned_on_tricky_values(self, tmp_path):
        tricky = [np.nan, np.inf, -np.inf, -0.0, 1e-45, 1e-5, 123456789.0,
                  3.4028235e38, 0.1]
        sources = ["rec,100:5", 'say "hi"', "line\nbreak", "plain"]
        beats = [BeatRecord(np.roll(tricky, i), i % 5, source=src,
                            split_tag=SPLIT_TAGS[i % 3])
                 for i, src in enumerate(sources)]
        path = write_beats_csv(tmp_path / "tricky.csv", BeatDataset(beats))

        # reference: one csv.writer row per beat, each sample formatted as
        # the float32 value with "{:.9g}"
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow([f"s{i}" for i in range(len(tricky))]
                        + ["label", "split", "source"])
        for beat in beats:
            writer.writerow([f"{v:.9g}" for v in beat.samples]
                            + [str(beat.label), beat.split_tag, beat.source])
        assert path.read_bytes() == ref.getvalue().encode()

        back = read_beats_csv(path)
        assert len(back) == len(beats)
        for got, want in zip(back, beats):
            np.testing.assert_array_equal(got.samples.view(np.uint32),
                                          want.samples.view(np.uint32))
        assert [b.label for b in back] == [b.label for b in beats]
        assert [b.split_tag for b in back] == [b.split_tag for b in beats]
        assert [b.source for b in back] == sources


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
    return BeatDataset([
        BeatRecord(row, labels[i % len(labels)],
                   source=sources[i % len(sources)],
                   split_tag=tags[i % len(tags)])
        for i, row in enumerate(samples)])


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
    return ("read", [(beat.samples.view(np.uint32).tolist(), beat.label,
                      beat.split_tag, beat.source) for beat in dataset])


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
        for got, want in zip(back, dataset):
            # "nan" reads back as the one quiet NaN, whatever its payload
            expected = np.where(np.isnan(want.samples), np.float32(np.nan),
                                want.samples)
            assert got.samples.dtype == np.float32
            np.testing.assert_array_equal(got.samples.view(np.uint32),
                                          expected.view(np.uint32))
            assert (got.label, got.split_tag, got.source) == \
                (want.label, want.split_tag, want.source)

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
        # ParseError message and line
        with open(csv_path, "w", newline="") as fh:
            fh.write(text)
        assert _outcome(read_beats_csv, csv_path) == \
            _outcome(reference_read_beats_csv, csv_path)


class TestRecordsDirLoader:
    def make_record(self, directory, name, events, n=4000, lead="MLII"):
        rng = np.random.default_rng(hash(name) % (1 << 31))
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
        sources = sorted(b.source for b in ds)
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
