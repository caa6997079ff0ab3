"""AMPD peak detection and the 8 features of every 10-second window at once."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError
from .signal_core import (
    DEFAULT_NFFT,
    Waveform,
    band_power_rows,
    hilbert_envelope_rows,
    window_samples,
)

FEATURE_NAMES = ("snr_db", "sigma", "env_mean", "ibi_mean",
                 "ibi_std", "dibi_mean", "dibi_std", "rmssd")

SNR_FLOOR_DB = -60.0
PEAK_HALFWIDTH_BPM = 6.0
HARMONIC_HALFWIDTH_BPM = 12.0
# the fewest samples AMPD takes, and so the fewest a feature window holds
AMPD_MIN_SAMPLES = 8
# cells of the (windows, scales, W) AMPD tensor per chunk: ten 10 s windows at 90 fps
_AMPD_CHUNK_CELLS = 1 << 22


@dataclass(frozen=True)
class FeatureTable:
    """The features of every sliding window of a waveform, one row per window.

    `matrix` is (windows, 8) with one column per name in FEATURE_NAMES.  The
    IBI statistics come from troughs (peaks of the negated signal); a window
    with fewer than 3 troughs has them zeroed and its `degenerate` flag set.
    """

    starts_s: np.ndarray
    matrix: np.ndarray
    degenerate: np.ndarray

    def __len__(self) -> int:
        return len(self.starts_s)


def ampd_rows(x: np.ndarray) -> np.ndarray:
    """Peak masks of the rows of x: automatic multiscale-based peak detection,
    deterministic variant.

    After linear detrending, a scale-k "local maximum" at index i means
    x[i] > x[i-k] and x[i] > x[i+k].  The operating scale is the one with the
    most scale-k maxima (argmin of the miss count, smallest scale on ties);
    peaks are the indices that are maxima at every scale up to it.  Rows are
    taken in chunks that bound the (rows, scales, n) tensor, and a chunk's
    maxima are AND-accumulated only up to its largest operating scale.
    """
    rows, n = x.shape
    if n < AMPD_MIN_SAMPLES:
        raise InvalidInputError(f"AMPD needs at least {AMPD_MIN_SAMPLES} samples")
    t = np.arange(n) - (n - 1) / 2.0
    centred = x - x.mean(axis=1, keepdims=True)
    detrended = centred - (np.sum(centred * t, axis=1, keepdims=True) / np.sum(t * t)) * t
    # an exactly (affine-)flat row leaves only rounding noise behind
    flat = np.abs(detrended).max(axis=1) <= 1e-10 * np.abs(x).max(axis=1)
    max_scale = int(np.ceil(n / 2)) - 1
    # +inf padding fails every comparison that reaches past either end
    padded = np.pad(detrended, ((0, 0), (max_scale, max_scale)), constant_values=np.inf)
    keep = np.zeros((rows, n), dtype=bool)
    chunk = max(_AMPD_CHUNK_CELLS // (max_scale * n), 1)
    for lo in range(0, rows, chunk):
        d = detrended[lo:lo + chunk, None, :]
        shifted = sliding_window_view(padded[lo:lo + chunk], n, axis=1)
        maxima = d > shifted[:, max_scale - 1::-1]  # (rows, scales, n), scale k = 1..
        maxima &= d > shifted[:, max_scale + 1:]
        best = np.argmax(np.count_nonzero(maxima, axis=2), axis=1)  # fewest misses, smallest scale
        used = maxima[:, :best.max() + 1]
        np.logical_and.accumulate(used, axis=1, out=used)
        keep[lo:lo + chunk] = maxima[np.arange(best.size), best]
    keep[flat] = False
    return keep


def ampd_peaks(w: Waveform) -> np.ndarray:
    """AMPD peak indices of one waveform: the one-row `ampd_rows`."""
    return np.flatnonzero(ampd_rows(w.samples[None, :])[0])


def snr_rows(x: np.ndarray, fps: float, nfft: int) -> np.ndarray:
    """In-band signal-to-noise ratio in dB of each row of x.

    Signal power is the in-band power within +-6 bpm of the spectral peak
    plus +-12 bpm of its second harmonic (clipped to the band); noise is the
    remaining in-band power.  Degenerate spectra report the -60 dB floor.

    The rows whose templates hold the same number of bins sum theirs as one
    (rows, bins) stack: the same pairwise sum per row as a row on its own.
    """
    band_power, in_band = band_power_rows(x, fps, nfft)
    freqs = np.arange(in_band.size) * (fps * 60.0 / nfft)
    total = band_power.sum(axis=-1)
    peak_bpm = freqs[np.argmax(band_power, axis=-1)][:, None]
    template = in_band & ((np.abs(freqs - peak_bpm) <= PEAK_HALFWIDTH_BPM)
                          | (np.abs(freqs - 2.0 * peak_bpm) <= HARMONIC_HALFWIDTH_BPM))
    live = total > 0.0
    sizes = np.count_nonzero(template, axis=1)
    signal = np.zeros(len(x))
    for size in np.unique(sizes[live]):
        group = live & (sizes == size)
        signal[group] = band_power[template & group[:, None]].reshape(-1, size).sum(axis=1)
    noise = np.maximum(total - signal, 1e-12 * total)  # finite for pure tones
    out = np.full(len(x), SNR_FLOOR_DB)
    out[live] = np.maximum(10.0 * np.log10(signal[live] / noise[live]), SNR_FLOOR_DB)
    return out


def snr_db(w: Waveform, nfft: int = DEFAULT_NFFT) -> float:
    """In-band SNR in dB of one waveform: the one-row `snr_rows`."""
    return float(snr_rows(w.samples[None, :], w.fps, nfft)[0])


def feature_layout(window_s: float, stride_s: float, fps: float,
                   section: str = "") -> tuple[int, int]:
    """The samples in a feature window (at least `AMPD_MIN_SAMPLES`) and between window
    starts (at least 1) at `fps`; errors name `{section}window_s` and `{section}stride_s`."""
    window = window_samples(window_s, fps, f"{section}window_s")
    if window < AMPD_MIN_SAMPLES:
        raise InvalidInputError(f"{section}window_s ({window_s:g} s) holds {window} samples "
                                f"at {fps:g} fps; a feature window needs {AMPD_MIN_SAMPLES}")
    hop = window_samples(stride_s, fps, f"{section}stride_s")
    if hop < 1:
        raise InvalidInputError(
            f"{section}stride_s ({stride_s:g} s) is under one frame at {fps:g} fps")
    return window, hop


def feature_windows(samples: np.ndarray, fps: float, window_s: float, stride_s: float):
    """Start indices and the read-only (windows, W) stack of the sliding feature windows."""
    window, hop = feature_layout(window_s, stride_s, fps)
    if samples.size < window:
        raise InvalidInputError(
            f"waveform of {samples.size} samples is shorter than one {window_s} s window")
    return (range(0, samples.size - window + 1, hop),
            sliding_window_view(samples, window)[::hop])


def extract_features(w: Waveform, window_s: float = 10.0, stride_s: float = 1.0,
                     nfft: int = DEFAULT_NFFT) -> FeatureTable:
    """Sliding-window feature extraction, every window in one pass.

    The number of windows is floor((duration - window_s)/stride_s) + 1.  The
    windows with the same trough count take their interval statistics as one
    (windows, troughs) stack, row by row as a window on its own would.
    """
    starts, stack = feature_windows(w.samples, w.fps, window_s, stride_s)
    matrix = np.zeros((len(stack), len(FEATURE_NAMES)))
    matrix[:, 0] = snr_rows(stack, w.fps, nfft)
    matrix[:, 1] = stack.std(axis=-1)
    matrix[:, 2] = hilbert_envelope_rows(stack).mean(axis=-1)
    troughs = ampd_rows(-stack)
    counts = np.count_nonzero(troughs, axis=1)
    degenerate = counts < 3
    for count in np.unique(counts[~degenerate]):
        rows = np.flatnonzero(counts == count)
        # ibi/dibi statistics in seconds, one row per window
        ibis = np.diff(np.nonzero(troughs[rows])[1].reshape(-1, count), axis=1) / w.fps
        dibis = np.diff(ibis, axis=1)
        matrix[rows, 3:] = np.column_stack((ibis.mean(axis=1), ibis.std(axis=1),
                                            dibis.mean(axis=1), dibis.std(axis=1),
                                            np.sqrt(np.mean(dibis ** 2, axis=1))))
    return FeatureTable(np.asarray(starts) / w.fps, matrix, degenerate)
