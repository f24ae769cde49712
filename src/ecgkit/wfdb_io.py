"""Readers and writers for the WFDB container formats used by MIT-BIH records.

Covers the text header (``.hea``), the format-212 nibble-packed signal file
(``.dat``) and the MIT annotation stream (``.atr``).  Only format 212 is
supported for signal data; headers declaring other formats parse fine but
refuse to decode.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError

# Standard WFDB annotation code table (code -> mnemonic).  Codes 42..49 are
# user-definable and 50..58 reserved; both parse but never map to a beat class.
CODE_TO_MNEMONIC = {
    1: "N", 2: "L", 3: "R", 4: "a", 5: "V", 6: "F", 7: "J", 8: "A",
    9: "S", 10: "E", 11: "j", 12: "/", 13: "Q", 14: "~", 16: "|",
    18: "s", 19: "T", 20: "*", 21: "D", 22: '"', 23: "=", 24: "p",
    25: "B", 26: "^", 27: "t", 28: "+", 29: "u", 30: "?", 31: "!",
    32: "[", 33: "]", 34: "e", 35: "n", 36: "@", 37: "x", 38: "f",
    39: "(", 40: ")", 41: "r",
}
MNEMONIC_TO_CODE = {m: c for c, m in CODE_TO_MNEMONIC.items()}

_ACMAX = 49          # largest defined annotation code
_PSEUDO_SKIP = 59
_PSEUDO_NUM = 60
_PSEUDO_SUB = 61
_PSEUDO_CHN = 62
_PSEUDO_AUX = 63

SUPPORTED_FORMATS = (212,)


@dataclass
class SignalSpec:
    """One signal line of a header."""

    file_name: str
    format_code: int
    gain: float           # adu per physical unit (mV)
    baseline: int         # adu value of physical zero
    adc_zero: int
    lead: str             # description field, e.g. "MLII"


@dataclass
class RecordHeader:
    record_name: str
    n_signals: int
    sampling_rate: float
    n_samples: int
    signals: list[SignalSpec] = field(default_factory=list)

    def lead_index(self, lead):
        """Index of the signal whose description equals ``lead``, or None."""
        for i, sig in enumerate(self.signals):
            if sig.lead == lead:
                return i
        return None

    def unsupported_formats(self):
        return sorted({s.format_code for s in self.signals
                       if s.format_code not in SUPPORTED_FORMATS})


def _leading_int(token, line_no, what):
    """Parse the integer prefix of a header token (strips x/:/+ suffixes)."""
    core = token
    for sep in ("x", ":", "+"):
        core = core.split(sep, 1)[0]
    try:
        return int(core)
    except ValueError:
        raise ParseError(f"bad {what} field {token!r}", line=line_no) from None


def parse_header(raw):
    """Parse ``.hea`` text into a RecordHeader.

    Accepts bytes or str.  Comment lines (``#``) and blanks are ignored.
    Raises ParseError with the 1-based line number on malformed content.
    """
    if isinstance(raw, bytes):
        raw = raw.decode("ascii", errors="replace")
    record_line = None
    record_line_no = 0
    signal_specs = []
    lines = raw.splitlines()
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if record_line is None:
            record_line = stripped
            record_line_no = line_no
            continue
        signal_specs.append((line_no, stripped))

    if record_line is None:
        raise ParseError("empty header", line=1)

    tokens = record_line.split()
    if len(tokens) < 2:
        raise ParseError("record line needs at least name and signal count",
                         line=record_line_no)
    record_name = tokens[0].split("/", 1)[0]
    try:
        n_signals = int(tokens[1])
    except ValueError:
        raise ParseError(f"bad signal count {tokens[1]!r}",
                         line=record_line_no) from None
    if n_signals <= 0:
        raise ParseError("header declares zero signals", line=record_line_no)

    sampling_rate = 250.0  # WFDB default when the field is absent
    if len(tokens) >= 3:
        try:
            sampling_rate = float(tokens[2].split("/", 1)[0])
        except ValueError:
            raise ParseError(f"bad sampling rate {tokens[2]!r}",
                             line=record_line_no) from None
    if sampling_rate <= 0:
        raise ParseError("sampling rate must be positive", line=record_line_no)

    n_samples = 0
    if len(tokens) >= 4:
        try:
            n_samples = int(tokens[3])
        except ValueError:
            raise ParseError(f"bad sample count {tokens[3]!r}",
                             line=record_line_no) from None

    if len(signal_specs) < n_signals:
        raise ParseError(
            f"expected {n_signals} signal lines, found {len(signal_specs)}",
            line=record_line_no)

    signals = []
    for line_no, line in signal_specs[:n_signals]:
        toks = line.split()
        if len(toks) < 2:
            raise ParseError("signal line needs file name and format",
                             line=line_no)
        file_name = toks[0]
        format_code = _leading_int(toks[1], line_no, "format")

        gain = 200.0
        baseline = None
        if len(toks) >= 3:
            gain_tok = toks[2].split("/", 1)[0]
            if "(" in gain_tok:
                gain_part, base_part = gain_tok.split("(", 1)
                if not base_part.endswith(")"):
                    raise ParseError(f"bad gain field {toks[2]!r}", line=line_no)
                try:
                    baseline = int(base_part[:-1])
                except ValueError:
                    raise ParseError(f"bad baseline in {toks[2]!r}",
                                     line=line_no) from None
                gain_tok = gain_part
            try:
                gain = float(gain_tok)
            except ValueError:
                raise ParseError(f"bad gain field {toks[2]!r}",
                                 line=line_no) from None
            if gain == 0:
                gain = 200.0  # WFDB convention: 0 means default gain

        adc_zero = 0
        if len(toks) >= 5:
            try:
                adc_zero = int(toks[4])
            except ValueError:
                raise ParseError(f"bad ADC zero {toks[4]!r}",
                                 line=line_no) from None
        if baseline is None:
            baseline = adc_zero
        lead = " ".join(toks[8:]) if len(toks) > 8 else f"sig{len(signals)}"
        signals.append(SignalSpec(file_name, format_code, gain, baseline,
                                  adc_zero, lead))

    return RecordHeader(record_name, n_signals, sampling_rate, n_samples,
                        signals)


def write_header(header):
    """Render a RecordHeader back to ``.hea`` text (used for fixtures)."""
    lines = [f"{header.record_name} {header.n_signals} "
             f"{header.sampling_rate:g} {header.n_samples}"]
    for sig in header.signals:
        lines.append(
            f"{sig.file_name} {sig.format_code} "
            f"{sig.gain:g}({sig.baseline})/mV 11 {sig.adc_zero} 0 0 0 {sig.lead}")
    return "\n".join(lines) + "\n"


def decode_format212(raw, n_samples, n_signals):
    """Unpack format-212 bytes into per-signal int arrays.

    Format 212 packs two 12-bit two's-complement samples into three bytes:
    the low byte of the first sample, a shared byte whose low nibble holds
    the first sample's high bits and whose high nibble holds the second
    sample's high bits, then the low byte of the second sample.  Samples
    alternate across signals.
    """
    if n_signals not in (1, 2):
        raise ParseError(f"format 212 supports 1 or 2 signals, got {n_signals}")
    if n_samples < 0:
        raise ParseError("negative sample count")
    total = n_samples * n_signals
    need = (3 * total + 1) // 2
    if len(raw) < need:
        raise ParseError(
            f"format-212 stream truncated: need {need} bytes for "
            f"{total} samples, have {len(raw)}", offset=len(raw))

    b = np.frombuffer(raw, dtype=np.uint8, count=need).astype(np.int32)
    n_pairs = total // 2
    flat = np.empty(total, dtype=np.int32)
    if n_pairs:
        trip = b[: 3 * n_pairs].reshape(n_pairs, 3)
        first = ((trip[:, 1] & 0x0F) << 8) | trip[:, 0]
        second = ((trip[:, 1] & 0xF0) << 4) | trip[:, 2]
        flat[0::2][:n_pairs] = first
        flat[1::2] = second
    if total % 2:
        b0 = b[3 * n_pairs]
        b1 = b[3 * n_pairs + 1]
        flat[-1] = ((b1 & 0x0F) << 8) | b0
    flat[flat > 2047] -= 4096
    frames = flat.reshape(n_samples, n_signals)
    return [frames[:, i].copy() for i in range(n_signals)]


def encode_format212(channels):
    """Pack per-signal integer arrays into format-212 bytes (decode inverse)."""
    arrays = [np.asarray(c, dtype=np.int64) for c in channels]
    if not arrays or len(arrays) > 2:
        raise ParseError(f"format 212 supports 1 or 2 signals, got {len(arrays)}")
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ParseError("all signals must have the same length")
    flat = np.stack(arrays, axis=1).reshape(-1) if len(arrays) > 1 else arrays[0]
    if flat.size and (flat.min() < -2048 or flat.max() > 2047):
        raise ParseError("sample out of 12-bit range [-2048, 2047]")
    u = (flat & 0xFFF).astype(np.uint32)
    total = u.size
    n_pairs = total // 2
    out = np.zeros((3 * total + 1) // 2, dtype=np.uint8)
    if n_pairs:
        s0 = u[0::2][:n_pairs]
        s1 = u[1::2]
        trip = out[: 3 * n_pairs].reshape(n_pairs, 3)
        trip[:, 0] = s0 & 0xFF
        trip[:, 1] = ((s0 >> 8) & 0x0F) | (((s1 >> 8) & 0x0F) << 4)
        trip[:, 2] = s1 & 0xFF
    if total % 2:
        s = u[-1]
        out[3 * n_pairs] = s & 0xFF
        out[3 * n_pairs + 1] = (s >> 8) & 0x0F
    return out.tobytes()


@dataclass
class AnnotationEvent:
    sample_index: int
    code: int
    mnemonic: str


def parse_annotations(raw):
    """Parse a MIT-format annotation stream into AnnotationEvents.

    Each 16-bit little-endian word carries a 6-bit type code and a 10-bit
    time delta.  SKIP/NUM/SUB/CHN/AUX pseudo-annotations are consumed and
    never emitted; a zero word ends the stream.
    """
    events = []
    t = 0
    pos = 0
    n = len(raw)
    prev_index = None
    while pos + 1 < n:
        word = raw[pos] | (raw[pos + 1] << 8)
        pos += 2
        if word == 0:
            break
        code = word >> 10
        data = word & 0x3FF
        if code == _PSEUDO_SKIP:
            if data != 0:
                raise ParseError("SKIP with nonzero delta", offset=pos - 2)
            if pos + 3 >= n:
                raise ParseError("truncated SKIP interval", offset=pos)
            w1 = raw[pos] | (raw[pos + 1] << 8)
            w2 = raw[pos + 2] | (raw[pos + 3] << 8)
            pos += 4
            interval = (w1 << 16) | w2
            if interval >= 1 << 31:
                interval -= 1 << 32
            t += interval
        elif code in (_PSEUDO_NUM, _PSEUDO_SUB, _PSEUDO_CHN):
            continue
        elif code == _PSEUDO_AUX:
            skip = data + (data & 1)
            if pos + skip > n:
                raise ParseError("truncated AUX payload", offset=pos)
            pos += skip
        else:
            t += data
            if t < 0:
                raise ParseError(f"negative annotation index {t}",
                                 offset=pos - 2)
            if code <= _ACMAX:
                if prev_index is not None and t < prev_index:
                    raise ParseError(
                        f"annotation index {t} decreases below {prev_index}",
                        offset=pos - 2)
                prev_index = t
                events.append(AnnotationEvent(
                    t, code, CODE_TO_MNEMONIC.get(code, "?")))
            # codes 50..58 are reserved: consume the delta, emit nothing
    return events


def write_annotations(events):
    """Encode AnnotationEvents as a MIT annotation stream (decode inverse)."""
    out = bytearray()
    t = 0
    for ev in events:
        delta = ev.sample_index - t
        if delta < 0:
            raise ParseError("annotation indices must be nondecreasing")
        if delta > 1023:
            out += struct.pack("<H", _PSEUDO_SKIP << 10)
            out += struct.pack("<HH", (delta >> 16) & 0xFFFF, delta & 0xFFFF)
            delta = 0
        out += struct.pack("<H", (ev.code << 10) | delta)
        t = ev.sample_index
    out += struct.pack("<H", 0)
    return bytes(out)


def read_record(path, header=None):
    """Read the signal data of a WFDB record as physical-unit float arrays.

    ``path`` is the record path without extension.  All signal entries must
    share one format-212 data file.  Returns (header, list of float arrays).
    """
    path = Path(path)
    if header is None:
        header = parse_header(path.with_suffix(".hea").read_bytes())
    bad = header.unsupported_formats()
    if bad:
        raise ParseError(
            f"record {header.record_name}: unsupported signal formats {bad} "
            f"(only {list(SUPPORTED_FORMATS)} can be decoded)")
    file_names = {s.file_name for s in header.signals}
    if len(file_names) != 1:
        raise ParseError(
            f"record {header.record_name}: multi-file signal layout "
            f"{sorted(file_names)} is not supported")
    dat_path = path.parent / header.signals[0].file_name
    raw = dat_path.read_bytes()
    n_samples = header.n_samples
    if n_samples == 0:
        n_samples = (len(raw) * 2 // 3) // header.n_signals
    channels = decode_format212(raw, n_samples, header.n_signals)
    physical = []
    for sig, adu in zip(header.signals, channels):
        physical.append((adu.astype(np.float64) - sig.baseline) / sig.gain)
    return header, physical


def write_record(directory, record_name, channels, sampling_rate=360.0,
                 leads=None, gain=200.0, adc_zero=0, annotations=None):
    """Write a synthetic WFDB record (.hea/.dat and optional .atr).

    ``channels`` holds integer ADC sample arrays.  Intended for fixtures and
    demo data, not for re-exporting clinical recordings.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    n_signals = len(channels)
    n_samples = len(channels[0])
    if leads is None:
        leads = [f"sig{i}" for i in range(n_signals)]
    header = RecordHeader(record_name, n_signals, sampling_rate, n_samples, [
        SignalSpec(f"{record_name}.dat", 212, gain, adc_zero, adc_zero, lead)
        for lead in leads])
    (directory / f"{record_name}.hea").write_text(write_header(header))
    (directory / f"{record_name}.dat").write_bytes(encode_format212(channels))
    if annotations is not None:
        (directory / f"{record_name}.atr").write_bytes(
            write_annotations(annotations))
    return header
