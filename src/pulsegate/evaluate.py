"""Pulse-rate estimation from waveforms and the standard error metrics."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from .signal_core import DEFAULT_NFFT, Waveform, band_bin_mask, check_cells, window_samples

RATE_BAND_HZ = (0.66, 4.0)
# in-band bins × windows per chunk: bounds the columns of pulse_rate's
# scratch, a chunk's windows and its span; the prefix sums restart at each
# chunk, so it also fixes their rounding
_CHUNK_CELLS = 2 ** 17
# in-band bins per block: bounds the rows of pulse_rate's scratch, a block's
# prefix sums over a chunk's span and its spectra over a chunk's windows
_BLOCK_BINS = 32


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
    """`pulse_rate`'s in-band bins, windows per chunk, twiddles and Dirichlet
    terms for one window layout, read-only: a study's rate series all share
    one layout, and building the tables took over a third of each call."""
    check_cells(nfft, f"nfft={nfft}")
    in_band = np.flatnonzero(band_bin_mask(nfft // 2 + 1, fps, nfft,
                                           (RATE_BAND_HZ[0] * 60.0, RATE_BAND_HZ[1] * 60.0)))
    per_chunk = min(max(_CHUNK_CELLS // (len(in_band) * stride_frames), 1), n_windows)
    span = (per_chunk - 1) * stride_frames + window
    check_cells(len(in_band) * span, f"nfft={nfft} with a {window}-sample window")
    # the twiddle of bin k at sample m of a chunk is table[k·m mod nfft]
    table = np.exp(-2j * np.pi * np.arange(nfft) / nfft)
    twiddles = np.empty((len(in_band), span), dtype=complex)
    for lo in range(0, len(in_band), _BLOCK_BINS):
        phases = np.outer(in_band[lo:lo + _BLOCK_BINS], np.arange(span))
        phases %= nfft
        twiddles[lo:lo + _BLOCK_BINS] = table[phases]
    dirichlet = twiddles[:, :window].sum(axis=1, keepdims=True)
    for array in (in_band, twiddles, dirichlet):
        array.flags.writeable = False
    return in_band, per_chunk, twiddles, dirichlet


def rate_window(window_s: float, stride_frames: int, fps: float, nfft: int,
                section: str = "") -> int:
    """The samples in a rate window (2 to `nfft`) at `fps`, once windows start at least one
    frame apart; errors name `{section}window_s` and `{section}stride_frames`."""
    if stride_frames < 1:
        raise InvalidInputError(f"{section}stride_frames={stride_frames} must be at least 1")
    window = window_samples(window_s, fps, f"{section}window_s")
    if not 2 <= window <= nfft:
        raise InvalidInputError(f"{section}window_s={window_s:g} holds {window} samples at "
                                f"{fps:g} fps; it must hold at least 2 and at most nfft={nfft}")
    return window


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

    The windows go in chunks of about `_CHUNK_CELLS` / in-band bins, and
    each chunk's bins in blocks of `_BLOCK_BINS`.  So the scratch is one
    block's prefix sums over a chunk's span and one block's spectra over a
    chunk's windows, whatever the bin count; a running maximum per window
    keeps the lowest of equal peaks, as one argmax over every bin would.
    """
    window = rate_window(window_s, stride_frames, w.fps, nfft)
    if len(w) < window:
        raise InvalidInputError(
            f"waveform of {len(w)} samples is shorter than one {window_s} s window")
    resolution_bpm = w.fps * 60.0 / nfft
    starts = np.arange(0, len(w) - window + 1, stride_frames)
    in_band, per_chunk, twiddles, dirichlet = _rate_tables(w.fps, window, stride_frames, nfft,
                                                           len(starts))
    span = twiddles.shape[1]
    block = min(_BLOCK_BINS, len(in_band))
    # one set of buffers for every block of every chunk: fresh temporaries per
    # block made a ten-minute signal about 15% slower
    prefix = np.zeros((block, span + 1), dtype=complex)
    spectra = np.empty((block, per_chunk), dtype=complex)
    leaks = np.empty_like(spectra)
    magnitudes = np.empty((block, per_chunk))
    columns = np.arange(per_chunk)
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
        totals = np.concatenate(([0.0], np.cumsum(centered)))
        means = (totals[tails] - totals[heads]) / window
        best = np.full(count, -1.0)
        best_bin = np.zeros(count, dtype=np.intp)
        for first in range(0, len(in_band), block):
            rows = min(block, len(in_band) - first)
            tw = twiddles[first:first + rows]
            region = prefix[:rows, 1:len(seg) + 1]
            np.multiply(tw[:, :len(seg)], centered, out=region)
            np.cumsum(region, axis=1, out=region)
            spectrum = np.subtract(prefix[:rows, tails], prefix[:rows, heads],
                                   out=spectra[:rows, :count])
            # D_k·e^{-2πi·ks/nfft}·μ_s: what the window mean leaks into bin k
            leak = np.multiply(dirichlet[first:first + rows], tw[:, heads],
                               out=leaks[:rows, :count])
            leak *= means
            spectrum -= leak
            magnitude = np.abs(spectrum, out=magnitudes[:rows, :count])
            peak = np.argmax(magnitude, axis=0)
            top = magnitude[peak, columns[:count]]
            np.copyto(best_bin, peak + first, where=top > best)
            np.maximum(best, top, out=best)
        # a window across which no sample changes is constant
        changes = np.concatenate(([0], np.cumsum(seg[1:] != seg[:-1])))
        flat = changes[window - 1:heads.stop + window - 1:stride_frames] == changes[heads]
        bpm[lo:lo + count] = np.where(flat, np.nan, in_band[best_bin] * resolution_bpm)
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
