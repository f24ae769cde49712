import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ecgkit.errors import ParseError
from ecgkit.wfdb_io import (
    AnnotationEvent,
    CODE_TO_MNEMONIC,
    MNEMONIC_TO_CODE,
    RecordHeader,
    SignalSpec,
    decode_format212,
    encode_format212,
    parse_annotations,
    parse_header,
    read_record,
    write_annotations,
    write_header,
    write_record,
)

MITBIH_100_HEADER = """\
100 2 360 650000 0:0:0 0/0/0
100.dat 212 200 11 1024 995 -22131 0 MLII
100.dat 212 200 11 1024 1011 20052 0 V5
# 69 M 1085 1629 x1
# Aldomet, Inderal
"""


def test_parse_header_mitbih_100():
    h = parse_header(MITBIH_100_HEADER)
    assert h.record_name == "100"
    assert h.n_signals == 2
    assert h.sampling_rate == 360.0
    assert h.n_samples == 650000
    assert [s.lead for s in h.signals] == ["MLII", "V5"]
    assert [s.gain for s in h.signals] == [200.0, 200.0]
    assert [s.baseline for s in h.signals] == [1024, 1024]
    assert [s.format_code for s in h.signals] == [212, 212]
    assert h.lead_index("MLII") == 0
    assert h.lead_index("V5") == 1
    assert h.lead_index("V1") is None


def test_parse_header_accepts_bytes_and_gain_baseline_syntax():
    text = ("r1 1 250 1000\n"
            "r1.dat 212 100.5(512)/mV 12 0 0 0 0 V1\n")
    h = parse_header(text.encode())
    sig = h.signals[0]
    assert sig.gain == pytest.approx(100.5)
    assert sig.baseline == 512
    assert sig.lead == "V1"


def test_parse_header_zero_gain_falls_back_to_default():
    h = parse_header("r1 1 250 100\nr1.dat 212 0 12 0 0 0 0 X\n")
    assert h.signals[0].gain == 200.0


def test_parse_header_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_header("")
    assert exc.value.line == 1

    with pytest.raises(ParseError) as exc:
        parse_header("rec 0 360 1000\n")
    assert "zero signals" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_header("rec 2 360 1000\nrec.dat 212 200 11 0 0 0 0 A\n")
    assert "signal lines" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        parse_header("rec 1 360 1000\nrec.dat notanint 200\n")
    assert exc.value.line == 2


def test_header_round_trip():
    h = parse_header(MITBIH_100_HEADER)
    h2 = parse_header(write_header(h))
    assert h2.record_name == h.record_name
    assert h2.sampling_rate == h.sampling_rate
    assert h2.n_samples == h.n_samples
    assert [s.lead for s in h2.signals] == [s.lead for s in h.signals]
    assert [s.baseline for s in h2.signals] == [s.baseline for s in h.signals]


# -- format 212 ------------------------------------------------------------

def test_decode_known_triplets():
    # 0x21 0x43 0x65 packs samples 801 and 1125
    chans = decode_format212(bytes([0x21, 0x43, 0x65]), 1, 2)
    assert chans[0][0] == 801
    assert chans[1][0] == 1125
    # all-ones packs two -1 samples
    chans = decode_format212(bytes([0xFF, 0xFF, 0xFF]), 1, 2)
    assert chans[0][0] == -1
    assert chans[1][0] == -1


def test_decode_sign_extension_boundaries():
    for value in (-2048, -1, 0, 1, 2047):
        raw = encode_format212([np.array([value])])
        assert decode_format212(raw, 1, 1)[0][0] == value


def test_encode_known_triplet():
    raw = encode_format212([np.array([801]), np.array([1125])])
    assert raw == bytes([0x21, 0x43, 0x65])


def test_encode_rejects_out_of_range():
    with pytest.raises(ParseError):
        encode_format212([np.array([2048])])
    with pytest.raises(ParseError):
        encode_format212([np.array([-2049])])


def test_round_trip_two_channels_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 400))
        a = rng.integers(-2048, 2048, size=n)
        b = rng.integers(-2048, 2048, size=n)
        raw = encode_format212([a, b])
        assert len(raw) == (3 * 2 * n + 1) // 2
        out = decode_format212(raw, n, 2)
        np.testing.assert_array_equal(out[0], a)
        np.testing.assert_array_equal(out[1], b)


def test_round_trip_single_channel_odd_length():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 50, 51):
        a = rng.integers(-2048, 2048, size=n)
        raw = encode_format212([a])
        assert len(raw) == (3 * n + 1) // 2
        out = decode_format212(raw, n, 1)
        np.testing.assert_array_equal(out[0], a)


def test_decode_truncated_stream_reports_offset():
    raw = encode_format212([np.zeros(10, dtype=int), np.zeros(10, dtype=int)])
    with pytest.raises(ParseError) as exc:
        decode_format212(raw[:-1], 10, 2)
    assert exc.value.offset == len(raw) - 1
    assert "truncated" in str(exc.value)


def test_decode_rejects_bad_channel_count():
    with pytest.raises(ParseError):
        decode_format212(b"\x00\x00\x00", 1, 3)


# -- annotations -------------------------------------------------------------

def word(code, data):
    return struct.pack("<H", (code << 10) | data)


def test_parse_annotation_deltas_accumulate():
    raw = word(1, 5) + word(1, 7) + word(0, 0)
    events = parse_annotations(raw)
    assert [(e.sample_index, e.mnemonic) for e in events] == [(5, "N"), (12, "N")]


def test_parse_annotation_code_table():
    raw = b"".join(word(code, 1) for code in sorted(CODE_TO_MNEMONIC))
    raw += word(0, 0)
    events = parse_annotations(raw)
    assert [e.mnemonic for e in events] == [
        CODE_TO_MNEMONIC[c] for c in sorted(CODE_TO_MNEMONIC)]
    assert all(MNEMONIC_TO_CODE[e.mnemonic] == e.code for e in events)


def test_parse_annotation_skip_extends_time():
    # SKIP carries a 4-byte interval: high word first
    interval = 100000
    raw = (word(59, 0)
           + struct.pack("<HH", (interval >> 16) & 0xFFFF, interval & 0xFFFF)
           + word(5, 3) + word(0, 0))
    events = parse_annotations(raw)
    assert events == [AnnotationEvent(100003, 5, "V")]


def test_parse_annotation_pseudo_codes_are_silent():
    raw = (word(1, 10)        # N at 10
           + word(60, 4)      # NUM
           + word(61, 2)      # SUB
           + word(62, 1)      # CHN
           + word(63, 3) + b"abc\x00"   # AUX, 3 bytes + pad
           + word(8, 5)       # A at 15
           + word(0, 0))
    events = parse_annotations(raw)
    assert [(e.sample_index, e.mnemonic) for e in events] == [(10, "N"), (15, "A")]


def test_parse_annotation_truncated_aux():
    raw = word(63, 6) + b"ab"
    with pytest.raises(ParseError) as exc:
        parse_annotations(raw)
    assert "AUX" in str(exc.value)


def test_parse_annotation_negative_time():
    interval = -50
    raw = (word(59, 0)
           + struct.pack("<HH", (interval >> 16) & 0xFFFF, interval & 0xFFFF)
           + word(1, 10) + word(0, 0))
    with pytest.raises(ParseError) as exc:
        parse_annotations(raw)
    assert "negative" in str(exc.value)


def test_annotation_round_trip_with_long_gaps():
    rng = np.random.default_rng(3)
    t = 0
    events = []
    codes = list(CODE_TO_MNEMONIC)
    for _ in range(200):
        t += int(rng.integers(0, 5000))
        code = codes[int(rng.integers(len(codes)))]
        events.append(AnnotationEvent(t, code, CODE_TO_MNEMONIC[code]))
    assert parse_annotations(write_annotations(events)) == events


def test_write_annotations_rejects_decreasing_indices():
    events = [AnnotationEvent(10, 1, "N"), AnnotationEvent(5, 1, "N")]
    with pytest.raises(ParseError):
        write_annotations(events)


# -- whole records -----------------------------------------------------------

def test_write_and_read_record(tmp_path):
    rng = np.random.default_rng(21)
    a = rng.integers(-500, 500, size=777)
    b = rng.integers(-500, 500, size=777)
    anns = [AnnotationEvent(100, 1, "N"), AnnotationEvent(400, 5, "V")]
    write_record(tmp_path, "synth", [a, b], sampling_rate=360.0,
                 leads=["MLII", "V5"], gain=200.0, adc_zero=0,
                 annotations=anns)
    header, signals = read_record(tmp_path / "synth")
    assert header.sampling_rate == 360.0
    assert [s.lead for s in header.signals] == ["MLII", "V5"]
    np.testing.assert_allclose(signals[0], a / 200.0)
    np.testing.assert_allclose(signals[1], b / 200.0)
    got = parse_annotations((tmp_path / "synth.atr").read_bytes())
    assert got == anns


def test_read_record_rejects_unsupported_format(tmp_path):
    (tmp_path / "r.hea").write_text(
        "r 1 360 10\nr.dat 16 200 11 0 0 0 0 MLII\n")
    (tmp_path / "r.dat").write_bytes(b"\x00" * 20)
    with pytest.raises(ParseError) as exc:
        read_record(tmp_path / "r")
    assert "unsupported" in str(exc.value)


def test_read_record_infers_length_when_header_omits_it(tmp_path):
    a = np.arange(-10, 10)
    b = np.arange(20)
    raw = encode_format212([a, b])
    (tmp_path / "r.hea").write_text(
        "r 2 360 0\n"
        "r.dat 212 200 11 0 0 0 0 MLII\n"
        "r.dat 212 200 11 0 0 0 0 V5\n")
    (tmp_path / "r.dat").write_bytes(raw)
    _, signals = read_record(tmp_path / "r")
    np.testing.assert_allclose(signals[0], a / 200.0)
    np.testing.assert_allclose(signals[1], b / 200.0)


# header tokens write_header puts on a line as they are: no whitespace, and
# no "/" in the record name, which the parser cuts at
NAME_TOKENS = st.text(alphabet="abcXYZ019_-.", min_size=1, max_size=8)
WORDS = st.text(alphabet="abcMLIV0-9+:#()", min_size=1, max_size=5)


def printed_g(values):
    """values snapped to what "%g" prints, so write_header keeps them."""
    return values.map(lambda v: float(f"{v:g}"))


@st.composite
def record_headers(draw):
    signals = [SignalSpec(
        file_name=draw(NAME_TOKENS),
        format_code=draw(st.integers(0, 999)),
        gain=draw(printed_g(st.floats(-1e6, 1e6)).filter(bool)),
        baseline=draw(st.integers(-(1 << 31), 1 << 31)),
        adc_zero=draw(st.integers(-(1 << 31), 1 << 31)),
        lead=" ".join(draw(st.lists(WORDS, min_size=1, max_size=3))))
        for _ in range(draw(st.integers(1, 4)))]
    return RecordHeader(
        record_name=draw(NAME_TOKENS), n_signals=len(signals),
        sampling_rate=draw(printed_g(st.floats(1e-3, 1e6))),
        n_samples=draw(st.integers(0, 1 << 40)), signals=signals)


@st.composite
def format212_channels(draw):
    n_signals = draw(st.integers(1, 2))
    samples = st.one_of(st.integers(-2048, 2047),
                        st.sampled_from([-2048, -1, 0, 2047]))
    shape = (n_signals, draw(st.integers(0, 40)))
    return list(draw(hnp.arrays(np.int64, shape, elements=samples)))


# gaps a 10-bit delta holds, and gaps up to the largest SKIP interval
GAPS = st.one_of(st.integers(0, 1023), st.sampled_from([1024, (1 << 31) - 1]),
                 st.integers(1024, 1 << 20))


@st.composite
def annotation_events(draw):
    events, t = [], 0
    for gap, code in draw(st.lists(st.tuples(GAPS, st.integers(1, 49)),
                                   max_size=20)):
        t += gap
        events.append(AnnotationEvent(t, code,
                                      CODE_TO_MNEMONIC.get(code, "?")))
    return events


class TestRoundTripProperties:
    @given(header=record_headers())
    def test_header(self, header):
        assert parse_header(write_header(header)) == header

    @given(channels=format212_channels())
    def test_format212_over_the_12_bit_range(self, channels):
        n_samples = len(channels[0])
        decoded = decode_format212(encode_format212(channels), n_samples,
                                   len(channels))
        assert len(decoded) == len(channels)
        for got, want in zip(decoded, channels):
            np.testing.assert_array_equal(got, want)

    @given(events=annotation_events())
    def test_annotations_with_skips(self, events):
        assert parse_annotations(write_annotations(events)) == events
