"""Pulse-rate estimation from waveforms and the standard error metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCorrelationError,
    EmptyComparisonError,
    InsufficientDataError,
    InvalidArgumentError,
)
from .signal_core import DEFAULT_NFFT, Waveform, band_bin_mask

RATE_BAND_HZ = (0.66, 4.0)
_CHUNK = 512


@dataclass(frozen=True)
class RateSeries:
    """Windowed pulse-rate estimates; NaN marks degenerate windows."""

    times_s: np.ndarray
    bpm: np.ndarray
    window_s: float
    band_hz: tuple[float, float] = RATE_BAND_HZ


@dataclass(frozen=True)
class ErrorReport:
    me_bpm: float
    mae_bpm: float
    rmse_bpm: float
    pearson_r: float

    def to_dict(self):
        return {"me_bpm": self.me_bpm, "mae_bpm": self.mae_bpm,
                "rmse_bpm": self.rmse_bpm, "pearson_r": self.pearson_r}


def pulse_rate(w: Waveform, window_s: float = 10.0, stride_frames: int = 1,
               nfft: int = DEFAULT_NFFT, band_hz=RATE_BAND_HZ) -> RateSeries:
    """Highest in-band spectral peak per sliding window, in bpm.

    Windows slide one frame at a time by default, producing frame-wise
    estimates at the window centers; edge frames without a full window are
    excluded.
    """
    window = int(round(window_s * w.fps))
    if len(w) < window:
        raise InsufficientDataError(
            f"waveform of {len(w)} samples is shorter than one {window_s} s window")
    if nfft < window:
        raise InvalidArgumentError(f"nfft={nfft} shorter than window of {window} samples")
    resolution_bpm = w.fps * 60.0 / nfft
    in_band = np.flatnonzero(band_bin_mask(nfft // 2 + 1, w.fps, nfft,
                                           (band_hz[0] * 60.0, band_hz[1] * 60.0)))
    starts = np.arange(0, len(w) - window + 1, stride_frames)
    segments = np.lib.stride_tricks.sliding_window_view(w.samples, window)[::stride_frames]
    bpm = np.empty(len(starts))
    for lo in range(0, len(starts), _CHUNK):
        chunk = segments[lo:lo + _CHUNK]
        centered = chunk - chunk.mean(axis=1, keepdims=True)
        power = np.abs(np.fft.rfft(centered, nfft, axis=1)[:, in_band]) ** 2
        totals = power.sum(axis=1)
        peaks = in_band[np.argmax(power, axis=1)] * resolution_bpm
        bpm[lo:lo + _CHUNK] = np.where(totals > 0.0, peaks, np.nan)
    centers = (starts + (window - 1) / 2.0) / w.fps
    return RateSeries(times_s=centers, bpm=bpm, window_s=window_s,
                      band_hz=(float(band_hz[0]), float(band_hz[1])))


def error_metrics(pred_bpm: np.ndarray, truth_bpm: np.ndarray) -> ErrorReport:
    """ME/MAE/RMSE/Pearson over aligned rate pairs; NaN pairs are dropped."""
    pred_bpm = np.asarray(pred_bpm, dtype=float)
    truth_bpm = np.asarray(truth_bpm, dtype=float)
    if pred_bpm.shape != truth_bpm.shape:
        raise InvalidArgumentError("rate arrays must have equal shapes")
    valid = np.isfinite(pred_bpm) & np.isfinite(truth_bpm)
    if valid.sum() < 2:
        raise EmptyComparisonError("need at least 2 valid rate pairs")
    p, t = pred_bpm[valid], truth_bpm[valid]
    diff = p - t
    me = float(diff.mean())
    mae = float(np.abs(diff).mean())
    rmse = float(np.sqrt(np.mean(diff ** 2)))
    pc = p - p.mean()
    tc = t - t.mean()
    denom = np.linalg.norm(pc) * np.linalg.norm(tc)
    if denom == 0.0:
        raise DegenerateCorrelationError("pearson undefined: a rate series is constant")
    r = float(np.clip(pc @ tc / denom, -1.0, 1.0))
    return ErrorReport(me_bpm=me, mae_bpm=mae, rmse_bpm=rmse, pearson_r=r)


def error_report(pred: RateSeries, truth: RateSeries) -> ErrorReport:
    """Error metrics between two rate series with identical windowing."""
    if pred.times_s.shape != truth.times_s.shape or \
            not np.allclose(pred.times_s, truth.times_s):
        raise InvalidArgumentError("rate series are not aligned in time")
    return error_metrics(pred.bpm, truth.bpm)
