"""Training objectives with analytic gradients with respect to the prediction.

Positive samples are scored against a ground-truth waveform (negative Pearson
or MSE).  Negative (pulseless) samples are scored by how periodic the
prediction looks: standard deviation, spectral entropy, spectral flatness, or
MSE against a flatline.  Both spectral penalties are oriented so that
minimization drives the in-band spectrum toward flatness: 0 for a perfectly
flat spectrum, 1 for a single-bin spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, NumericalError
from .signal_core import (
    DEFAULT_BAND_BPM,
    DEFAULT_NFFT,
    Waveform,
    band_bin_mask,
    one_sided_spectrum,
)

POSITIVE_LOSSES = ("neg_pearson", "mse")
NEGATIVE_LOSSES = ("std", "spectral_entropy", "spectral_flatness", "mse_flatline", "none")

# floor inside logs so geometric means and entropies stay finite at zero bins
LOG_FLOOR = 1e-12


@dataclass(frozen=True)
class LossSpec:
    positive_loss: str = "neg_pearson"
    negative_loss: str = "none"
    nfft: int = DEFAULT_NFFT
    band_bpm: tuple[float, float] = DEFAULT_BAND_BPM

    def __post_init__(self):
        if self.positive_loss not in POSITIVE_LOSSES:
            raise InvalidInputError(f"unknown positive loss {self.positive_loss!r}")
        if self.negative_loss not in NEGATIVE_LOSSES:
            raise InvalidInputError(f"unknown negative loss {self.negative_loss!r}")
        if len(self.band_bpm) != 2 or not 0 <= self.band_bpm[0] < self.band_bpm[1]:
            raise InvalidInputError(
                f"band_bpm {list(self.band_bpm)} must be two numbers with 0 <= low < high")


def _pearson_rows(pred: np.ndarray, target: np.ndarray):
    """1 - Pearson correlation of each prediction row with its target row, in
    [0, 2], and the gradient with respect to the predictions."""
    p = pred - pred.mean(axis=1, keepdims=True)
    t = target - target.mean(axis=1, keepdims=True)
    p_norm = np.sqrt(np.einsum("ij,ij->i", p, p))
    t_norm = np.sqrt(np.einsum("ij,ij->i", t, t))
    if np.any(p_norm == 0.0) or np.any(t_norm == 0.0):
        raise NumericalError("correlation undefined for constant signals")
    r = np.einsum("ij,ij->i", p, t) / (p_norm * t_norm)
    grad = -(t / (p_norm * t_norm)[:, None] - r[:, None] * p / (p_norm ** 2)[:, None])
    return 1.0 - r, grad


def _mse_rows(pred: np.ndarray, target: np.ndarray):
    """Mean squared error of each row against its target row."""
    diff = pred - target
    return np.mean(diff ** 2, axis=1), 2.0 * diff / diff.shape[1]


def _std_rows(pred: np.ndarray):
    """Population standard deviation of each row; constant rows get zero gradient."""
    centered = pred - pred.mean(axis=1, keepdims=True)
    value = np.sqrt(np.mean(centered ** 2, axis=1))
    scale = (pred.shape[1] * value)[:, None]
    return value, np.divide(centered, scale, out=np.zeros_like(centered), where=scale != 0.0)


def entropy_loss_value(dist: np.ndarray):
    """1 - H(dist)/log(K) for unit-sum distributions over the K bins of the last axis."""
    dist = np.asarray(dist, dtype=float)
    entropy = -np.sum(dist * np.log(np.maximum(dist, LOG_FLOOR)), axis=-1)
    return 1.0 - entropy / np.log(dist.shape[-1])


def flatness_loss_value(dist: np.ndarray):
    """1 - geometric/arithmetic mean ratio for unit-sum distributions over the last axis."""
    dist = np.asarray(dist, dtype=float)
    geo = np.exp(np.mean(np.log(np.maximum(dist, LOG_FLOOR)), axis=-1))
    return 1.0 - geo / dist.mean(axis=-1)


@lru_cache(maxsize=8)
def _band(n_bins: int, fps: float, nfft: int, band_bpm: tuple) -> slice:
    """The in-band bins of a one-sided spectrum, which form one slice: a
    training run asks for the same band thousands of times."""
    in_band = np.flatnonzero(band_bin_mask(n_bins, fps, nfft, band_bpm))
    if in_band.size == 0:
        raise NumericalError("no in-band spectral energy")
    return slice(int(in_band[0]), int(in_band[-1]) + 1)


def _spectral_rows(pred: np.ndarray, fps: float, nfft: int, band_bpm, kind: str):
    """Value and adjoint gradient of a spectral penalty on each row's in-band PSD.

    Chain: mean removal -> zero-padded rFFT -> one-sided power -> band slice ->
    normalization -> entropy/flatness.  The rFFT adjoint of a gradient q on
    |X_k|^2 is nfft * irfft(q * X) restricted to the original samples; q is
    zero outside the band, so only the band is computed.
    """
    n = pred.shape[1]
    spectrum, weights = one_sided_spectrum(pred, nfft)
    band = _band(weights.size, fps, nfft, tuple(band_bpm))
    in_band, weights = spectrum[:, band], weights[band]
    band_power = np.abs(in_band) ** 2 * weights
    total = band_power.sum(axis=1, keepdims=True)
    if np.any(total <= 0.0):
        raise NumericalError("no in-band spectral energy")
    dist = band_power / total
    k = dist.shape[1]
    log_dist = np.log(np.maximum(dist, LOG_FLOOR))

    if kind == "spectral_entropy":
        value = entropy_loss_value(dist)
        grad_dist = np.where(dist > LOG_FLOOR, (log_dist + 1.0), np.log(LOG_FLOOR)) / np.log(k)
    else:
        value = flatness_loss_value(dist)
        geo = np.exp(log_dist.mean(axis=1, keepdims=True))
        arith = dist.mean(axis=1, keepdims=True)
        d_geo = np.divide(geo, k * dist, out=np.zeros_like(dist), where=dist > LOG_FLOOR)
        grad_dist = -(d_geo * arith - geo / k) / arith ** 2

    # adjoint of the unit-sum normalization
    grad_band = (grad_dist - np.einsum("ij,ij->i", grad_dist, dist)[:, None]) / total
    q_spectrum = np.zeros(spectrum.shape, dtype=complex)
    q_spectrum[:, band] = grad_band * weights * in_band
    grad = nfft * np.fft.irfft(q_spectrum, nfft)[:, :n]
    return value, grad - grad.mean(axis=1, keepdims=True)


def batch_loss(pred: np.ndarray, targets: np.ndarray, positive: np.ndarray,
               fps: float, spec: LossSpec):
    """Per-row values and gradients of the combined loss over a (B, T) batch.

    Rows where `positive` is set are scored against their `targets` row by the
    positive loss, the others by the negative loss (their targets are not read).
    """
    values, grads = np.zeros(len(pred)), np.zeros(pred.shape)
    if positive.any():
        rows = _pearson_rows if spec.positive_loss == "neg_pearson" else _mse_rows
        values[positive], grads[positive] = rows(pred[positive], targets[positive])
    negative, kind = ~positive, spec.negative_loss
    if negative.any() and kind != "none":
        if kind == "std":
            result = _std_rows(pred[negative])
        elif kind == "mse_flatline":
            result = _mse_rows(pred[negative], 0.0)
        else:
            result = _spectral_rows(pred[negative], fps, spec.nfft, spec.band_bpm, kind)
        values[negative], grads[negative] = result
    return values, grads


def combined_loss(pred: Waveform, target, spec: LossSpec):
    """Value and gradient of the objective for one sample: a one-row `batch_loss`.
    A sample with a target waveform is a positive, one without (None) a negative."""
    positive = target is not None
    if positive and len(target) != len(pred):
        raise InvalidInputError("pred and target must have equal lengths")
    targets = (target if positive else pred).samples[None]
    values, grads = batch_loss(pred.samples[None], targets, np.array([positive]),
                               pred.fps, spec)
    return float(values[0]), grads[0]
