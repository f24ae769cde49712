"""Seeded synthetic MIT-BIH-shaped inputs for the benchmark.

Records are 360 Hz, one MLII lead, format 212, written through
``ecgkit.wfdb_io.write_record`` so the program only ever sees the files.
Each beat is a sum of Gaussian P/Q/R/S/T waves whose shape depends on the
class, placed at a jittered R-R interval on a wandering baseline with
noise. Class counts are exact for a given spec; the seed only moves the
order of classes, the timing and the noise, so every seed costs the same.
"""

import numpy as np

from ecgkit.beats import segment_beats
from ecgkit.wfdb_io import MNEMONIC_TO_CODE, AnnotationEvent, write_record

FS = 360.0
GAIN = 200.0                       # ADC units per mV, as in MIT-BIH
CLASS_MNEMONICS = ("N", "A", "V", "f", "F")
# roughly the MIT-BIH imbalance: 80 % normal, the rest over four classes
DEFAULT_MIX = (0.80, 0.05, 0.05, 0.05, 0.05)
EDGE = 60                          # samples before the first annotation
HALF_WINDOW = 93                   # floor(187 / 2): window reach before R

# (amplitude mV, centre s relative to R, width s) for P, Q, R, S, T
_WAVES = {
    "N": ((0.15, -0.20, 0.025), (-0.10, -0.03, 0.008), (1.00, 0.0, 0.010),
          (-0.25, 0.03, 0.008), (0.30, 0.25, 0.050)),
    "A": ((0.05, -0.14, 0.020), (-0.10, -0.03, 0.008), (0.95, 0.0, 0.010),
          (-0.25, 0.03, 0.008), (0.28, 0.22, 0.045)),
    "V": ((0.00, -0.20, 0.025), (-0.30, -0.05, 0.020), (1.40, 0.0, 0.035),
          (-0.60, 0.07, 0.030), (-0.45, 0.30, 0.070)),
    "f": ((0.08, -0.20, 0.025), (-0.15, -0.04, 0.012), (1.10, 0.0, 0.020),
          (-0.35, 0.05, 0.015), (0.10, 0.27, 0.060)),
    "F": ((0.12, -0.20, 0.025), (-0.20, -0.04, 0.015), (1.20, 0.0, 0.025),
          (-0.45, 0.05, 0.020), (-0.15, 0.28, 0.060)),
}
_RR_SECONDS = {"N": 0.80, "A": 0.55, "V": 0.60, "f": 0.78, "F": 0.70}


def _template(mnemonic, rng):
    t = np.arange(-0.35 * FS, 0.45 * FS) / FS
    wave = np.zeros_like(t)
    for amplitude, centre, width in _WAVES[mnemonic]:
        jitter = 1.0 + 0.08 * rng.standard_normal()
        wave += amplitude * jitter * np.exp(-0.5 * ((t - centre) / width) ** 2)
    return wave, int(round(0.35 * FS))


def class_counts(n_beats, mix=DEFAULT_MIX):
    """Exact per-class beat counts for one record, summing to n_beats."""
    counts = [int(n_beats * share) for share in mix[1:]]
    return [n_beats - sum(counts)] + counts


def _record(rng, counts):
    labels = np.repeat(np.arange(len(CLASS_MNEMONICS)), counts)
    labels = labels[rng.permutation(len(labels))]
    # the first and last beats sit too close to the edges for a full window
    labels = np.concatenate([[0], labels, [0]])
    rr = np.array([_RR_SECONDS[CLASS_MNEMONICS[k]] for k in labels])
    rr = rr * (1.0 + 0.05 * rng.standard_normal(len(rr)))
    peaks = EDGE + np.concatenate([[0], np.cumsum(np.round(rr[1:] * FS))])
    peaks = peaks.astype(np.int64)
    n_samples = int(peaks[-1]) + EDGE

    t = np.arange(n_samples) / FS
    signal = 0.15 * np.sin(2 * np.pi * 0.33 * t + rng.uniform(0, 6.3))
    signal += 0.02 * rng.standard_normal(n_samples)
    for peak, label in zip(peaks, labels):
        wave, before = _template(CLASS_MNEMONICS[label], rng)
        lo, hi = peak - before, peak - before + len(wave)
        clip_lo, clip_hi = max(lo, 0), min(hi, n_samples)
        signal[clip_lo:clip_hi] += wave[clip_lo - lo:clip_hi - lo]

    events = [AnnotationEvent(int(p), MNEMONIC_TO_CODE[CLASS_MNEMONICS[k]],
                              CLASS_MNEMONICS[k])
              for p, k in zip(peaks, labels)]
    # rhythm and noise marks are not beats; the segmenter must skip them
    for p in peaks[10::50]:
        events.append(AnnotationEvent(int(p) + 40, MNEMONIC_TO_CODE["+"], "+"))
    events.sort(key=lambda e: e.sample_index)
    adc = np.clip(np.round(signal * GAIN), -2048, 2047).astype(np.int64)
    fits = (peaks - HALF_WINDOW >= 0) & \
        (peaks - HALF_WINDOW + 187 <= n_samples)
    return adc, events, labels[fits]


def make_records(directory, seed, n_records, beats_per_record,
                 mix=DEFAULT_MIX):
    """Write n_records records; returns the labels of the beats whose
    187-sample window fits inside their record, in ingest order."""
    rng = np.random.default_rng([seed, n_records, beats_per_record])
    counts = class_counts(beats_per_record, mix)
    kept = []
    for index in range(n_records):
        adc, events, labels = _record(rng, counts)
        write_record(directory, f"{100 + index}", [adc], leads=["MLII"],
                     annotations=events)
        kept.append(labels)
    return np.concatenate(kept)


def beat_matrix(seed, n_beats, mix=DEFAULT_MIX):
    """In-memory [n, 187] float32 beats in [0, 1] with their labels, cut
    from one synthetic record by the program's own segmenter."""
    rng = np.random.default_rng([seed, n_beats, 187])
    adc, events, _ = _record(rng, class_counts(n_beats, mix))
    beats = segment_beats(adc / GAIN, events)
    return (np.stack([beat.samples for beat in beats]),
            np.array([beat.label for beat in beats], dtype=np.int64))
