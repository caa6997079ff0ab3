"""Pulse-rate estimation from waveforms and the standard error metrics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from .signal_core import DEFAULT_NFFT, Waveform, band_bin_mask, window_samples

RATE_BAND_HZ = (0.66, 4.0)
# in-band bins × windows per chunk: bounds the working memory of pulse_rate
_CHUNK_CELLS = 2 ** 17


@dataclass(frozen=True)
class RateSeries:
    """Windowed pulse-rate estimates; NaN marks degenerate windows."""

    times_s: np.ndarray
    bpm: np.ndarray


@dataclass(frozen=True)
class ErrorReport:
    me_bpm: float
    mae_bpm: float
    rmse_bpm: float
    pearson_r: float | None  # None when a rate series is constant

    def to_dict(self):
        return {"me_bpm": self.me_bpm, "mae_bpm": self.mae_bpm,
                "rmse_bpm": self.rmse_bpm, "pearson_r": self.pearson_r}


@lru_cache(maxsize=4)
def _rate_tables(fps: float, window: int, stride_frames: int, nfft: int, n_windows: int):
    """`pulse_rate`'s in-band bins, windows per chunk, twiddles and leaks for
    one window layout, read-only: a study's rate series all share one layout,
    and building the tables took over a third of each call."""
    in_band = np.flatnonzero(band_bin_mask(nfft // 2 + 1, fps, nfft,
                                           (RATE_BAND_HZ[0] * 60.0, RATE_BAND_HZ[1] * 60.0)))
    per_chunk = min(max(_CHUNK_CELLS // (len(in_band) * stride_frames), 1), n_windows)
    span = (per_chunk - 1) * stride_frames + window
    # the twiddle of bin k at sample m of a chunk is table[k·m mod nfft]
    table = np.exp(-2j * np.pi * np.arange(nfft) / nfft)
    phases = np.outer(in_band, np.arange(span))
    phases %= nfft
    twiddles = table[phases]
    # D_k·e^{-2πi·ks/nfft} at each window start s of a chunk: what a unit
    # mean leaks into bin k
    leaks = (twiddles[:, :window].sum(axis=1, keepdims=True)
             * twiddles[:, :span - window + 1:stride_frames])
    for array in (in_band, twiddles, leaks):
        array.flags.writeable = False
    return in_band, per_chunk, twiddles, leaks


def pulse_rate(w: Waveform, window_s: float = 10.0, stride_frames: int = 1,
               nfft: int = DEFAULT_NFFT) -> RateSeries:
    """Highest spectral peak in `RATE_BAND_HZ` per sliding window, in bpm.

    Windows slide one frame at a time by default, producing frame-wise
    estimates at the window centers; edge frames without a full window are
    excluded.  Each window's mean is removed and the window zero-padded to
    `nfft`; a window whose samples are all equal has no peak and reads NaN.

    Only the in-band bins are computed, as a sliding DFT (Jacobsen & Lyons,
    "The Sliding DFT", 2003).  Within a chunk of windows, with P_k the prefix
    sum of x[m]·e^{-2πi·km/nfft}, the window starting at s has, at bin k,
    the spectral magnitude |P_k(s+W) - P_k(s) - μ_s·D_k·e^{-2πi·ks/nfft}|:
    μ_s is the window mean and D_k = Σ_{n<W} e^{-2πi·kn/nfft} the Dirichlet
    term.
    """
    window = window_samples(window_s, w.fps, "window_s")
    if stride_frames < 1:
        raise InvalidInputError(f"stride_frames={stride_frames} must be at least 1")
    if window < 2:
        raise InvalidInputError(
            f"window_s={window_s} holds {window} samples at {w.fps} fps; "
            "it must hold at least 2")
    if len(w) < window:
        raise InvalidInputError(
            f"waveform of {len(w)} samples is shorter than one {window_s} s window")
    if nfft < window:
        raise InvalidInputError(f"nfft={nfft} shorter than window of {window} samples")
    resolution_bpm = w.fps * 60.0 / nfft
    starts = np.arange(0, len(w) - window + 1, stride_frames)
    in_band, per_chunk, twiddles, leaks = _rate_tables(w.fps, window, stride_frames, nfft,
                                                       len(starts))
    span = twiddles.shape[1]
    prefix = np.zeros((len(in_band), span + 1), dtype=complex)
    # the signal's mean keeps the prefix sums small; each window's own mean
    # comes off through the Dirichlet term
    mean = w.samples.mean()
    bpm = np.empty(len(starts))
    for lo in range(0, len(starts), per_chunk):
        count = min(per_chunk, len(starts) - lo)
        # the first and one-past-last samples of each window, within the chunk
        heads = slice(0, (count - 1) * stride_frames + 1, stride_frames)
        tails = slice(window, heads.stop + window, stride_frames)
        seg = w.samples[starts[lo]:starts[lo] + heads.stop - 1 + window]
        centered = seg - mean
        region = prefix[:, 1:len(seg) + 1]
        np.multiply(twiddles[:, :len(seg)], centered, out=region)
        np.cumsum(region, axis=1, out=region)
        totals = np.concatenate(([0.0], np.cumsum(centered)))
        spectra = prefix[:, tails] - prefix[:, heads]
        spectra -= leaks[:, :count] * ((totals[tails] - totals[heads]) / window)
        # a window across which no sample changes is constant
        changes = np.concatenate(([0], np.cumsum(seg[1:] != seg[:-1])))
        flat = changes[window - 1:heads.stop + window - 1:stride_frames] == changes[heads]
        bpm[lo:lo + count] = np.where(
            flat, np.nan, in_band[np.argmax(np.abs(spectra), axis=0)] * resolution_bpm)
    centers = (starts + (window - 1) / 2.0) / w.fps
    return RateSeries(times_s=centers, bpm=bpm)


def error_metrics(pred_bpm: np.ndarray, truth_bpm: np.ndarray) -> ErrorReport:
    """ME/MAE/RMSE/Pearson over aligned rate pairs; NaN pairs are dropped.

    Pearson's r is None when either series is constant, as a fixed-rate
    ground truth is; the error magnitudes are still meaningful.
    """
    pred_bpm = np.asarray(pred_bpm, dtype=float)
    truth_bpm = np.asarray(truth_bpm, dtype=float)
    if pred_bpm.shape != truth_bpm.shape:
        raise InvalidInputError("rate arrays must have equal shapes")
    valid = np.isfinite(pred_bpm) & np.isfinite(truth_bpm)
    if valid.sum() < 2:
        raise InvalidInputError("need at least 2 valid rate pairs")
    p, t = pred_bpm[valid], truth_bpm[valid]
    diff = p - t
    me = float(diff.mean())
    mae = float(np.abs(diff).mean())
    rmse = float(np.sqrt(np.mean(diff ** 2)))
    pc = p - p.mean()
    tc = t - t.mean()
    denom = np.sqrt(np.sum(pc * pc) * np.sum(tc * tc))
    r = float(np.clip(np.sum(pc * tc) / denom, -1.0, 1.0)) if denom > 0.0 else None
    return ErrorReport(me_bpm=me, mae_bpm=mae, rmse_bpm=rmse, pearson_r=r)
