"""AMPD peak detection and the 8-feature vector per 10-second window."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError
from .signal_core import (
    DEFAULT_BAND_BPM,
    DEFAULT_NFFT,
    Waveform,
    band_bin_mask,
    hilbert_envelope,
    power_spectrum,
)

FEATURE_NAMES = ("snr_db", "sigma", "env_mean", "ibi_mean",
                 "ibi_std", "dibi_mean", "dibi_std", "rmssd")

SNR_FLOOR_DB = -60.0
PEAK_HALFWIDTH_BPM = 6.0
HARMONIC_HALFWIDTH_BPM = 12.0


@dataclass(frozen=True)
class PulseFeatureVector:
    """Handcrafted descriptors of a 10-second waveform window.

    IBI statistics come from troughs (peaks of the negated signal); windows
    with fewer than 3 troughs have zeroed peak features and degenerate_peaks
    set.
    """

    snr_db: float
    sigma: float
    envelope_mean: float
    ibi_mean: float
    ibi_std: float
    dibi_mean: float
    dibi_std: float
    rmssd: float
    degenerate_peaks: bool = False

    def as_array(self) -> np.ndarray:
        return np.array([self.snr_db, self.sigma, self.envelope_mean,
                         self.ibi_mean, self.ibi_std, self.dibi_mean,
                         self.dibi_std, self.rmssd])


def _local_max_rows(x: np.ndarray, scales) -> np.ndarray:
    """For each scale k, the boolean row `x[i] > x[i-k] and x[i] > x[i+k]`."""
    n = x.size
    rows = np.zeros((len(scales), n), dtype=bool)
    for row, k in enumerate(scales):
        rows[row, k:n - k] = (x[k:n - k] > x[:n - 2 * k]) & (x[k:n - k] > x[2 * k:])
    return rows


def ampd_peaks(w: Waveform) -> np.ndarray:
    """Automatic multiscale-based peak detection, deterministic variant.

    After linear detrending, a scale-k "local maximum" at index i means
    x[i] > x[i-k] and x[i] > x[i+k].  The operating scale is the one with the
    most scale-k maxima (argmin of the miss count, smallest scale on ties);
    peaks are the indices that are maxima at every scale up to it.
    """
    x = np.asarray(w.samples, dtype=float)
    n = x.size
    if n < 8:
        raise InsufficientDataError("AMPD needs at least 8 samples")
    t = np.arange(n)
    slope, intercept = np.polyfit(t, x, 1)
    detrended = x - (slope * t + intercept)
    # an exactly (affine-)flat signal leaves only rounding noise behind
    scale = np.max(np.abs(x)) if np.max(np.abs(x)) > 0 else 1.0
    if np.max(np.abs(detrended)) <= 1e-10 * scale:
        return np.empty(0, dtype=int)
    x = detrended
    max_scale = int(np.ceil(n / 2)) - 1
    scales = range(1, max_scale + 1)
    rows = _local_max_rows(x, scales)
    misses = n - rows.sum(axis=1)
    best = int(np.argmin(misses))  # smallest scale wins ties
    keep = rows[:best + 1].all(axis=0)
    return np.flatnonzero(keep)


def snr_db(w: Waveform, nfft: int = DEFAULT_NFFT, band_bpm=DEFAULT_BAND_BPM,
           peak_halfwidth_bpm: float = PEAK_HALFWIDTH_BPM,
           harmonic_halfwidth_bpm: float = HARMONIC_HALFWIDTH_BPM) -> float:
    """In-band signal-to-noise ratio in dB.

    Signal power is the in-band power within +-6 bpm of the spectral peak
    plus +-12 bpm of its second harmonic (clipped to the band); noise is the
    remaining in-band power.  Degenerate spectra report the -60 dB floor.
    """
    power = power_spectrum(w.samples, nfft)
    freqs = np.arange(power.size) * (w.fps * 60.0 / nfft)
    in_band = band_bin_mask(power.size, w.fps, nfft, band_bpm)
    band_power = np.where(in_band, power, 0.0)
    total = band_power.sum()
    if total <= 0.0:
        return SNR_FLOOR_DB
    peak_bpm = freqs[int(np.argmax(band_power))]
    template = in_band & (np.abs(freqs - peak_bpm) <= peak_halfwidth_bpm)
    template |= in_band & (np.abs(freqs - 2.0 * peak_bpm) <= harmonic_halfwidth_bpm)
    signal = band_power[template].sum()
    noise = total - signal
    noise = max(noise, 1e-12 * total)  # keep the ratio finite for pure tones
    return max(10.0 * np.log10(signal / noise), SNR_FLOOR_DB)


def _peak_interval_features(trough_indices: np.ndarray, fps: float):
    """ibi/dibi statistics (seconds) from trough sample indices."""
    ibis = np.diff(trough_indices) / fps
    dibis = np.diff(ibis)
    return (float(ibis.mean()), float(ibis.std()),
            float(dibis.mean()) if dibis.size else 0.0,
            float(dibis.std()) if dibis.size else 0.0,
            float(np.sqrt(np.mean(dibis ** 2))) if dibis.size else 0.0)


def feature_window_starts(n_samples: int, fps: float, window_s: float, stride_s: float):
    """Window length in samples and the start indices of the sliding feature windows."""
    window = int(round(window_s * fps))
    if n_samples < window:
        raise InsufficientDataError(
            f"waveform of {n_samples} samples is shorter than one {window_s} s window")
    return window, range(0, n_samples - window + 1, max(int(round(stride_s * fps)), 1))


def extract_features(w: Waveform, window_s: float = 10.0, stride_s: float = 1.0,
                     nfft: int = DEFAULT_NFFT, band_bpm=DEFAULT_BAND_BPM):
    """Sliding-window feature extraction.

    Returns a list of (window_start_s, PulseFeatureVector).  The number of
    windows is floor((duration - window_s)/stride_s) + 1.
    """
    window, starts = feature_window_starts(len(w), w.fps, window_s, stride_s)
    out = []
    for start in starts:
        seg = w.samples[start:start + window]
        seg_wave = Waveform(seg, w.fps)
        snr = snr_db(seg_wave, nfft=nfft, band_bpm=band_bpm)
        sigma = float(seg.std())
        env_mean = float(hilbert_envelope(seg_wave).samples.mean())
        troughs = ampd_peaks(Waveform(-seg, w.fps))
        if troughs.size < 3:
            vec = PulseFeatureVector(snr, sigma, env_mean, 0.0, 0.0, 0.0, 0.0, 0.0,
                                     degenerate_peaks=True)
        else:
            ibi_mean, ibi_std, dibi_mean, dibi_std, rmssd = \
                _peak_interval_features(troughs, w.fps)
            vec = PulseFeatureVector(snr, sigma, env_mean, ibi_mean, ibi_std,
                                     dibi_mean, dibi_std, rmssd)
        out.append((start / w.fps, vec))
    return out


def feature_matrix(windows) -> np.ndarray:
    """Stack `extract_features` output into an (n, 8) array."""
    return np.vstack([vec.as_array() for _, vec in windows])
