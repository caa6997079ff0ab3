"""Training objectives with analytic gradients with respect to the prediction.

Positive samples are scored against a ground-truth waveform (negative Pearson
or MSE).  Negative (pulseless) samples are scored by how periodic the
prediction looks: standard deviation, spectral entropy, spectral flatness, or
MSE against a flatline.  Both spectral penalties are oriented so that
minimization drives the in-band spectrum toward flatness: 0 for a perfectly
flat spectrum, 1 for a single-bin spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DegenerateCorrelationError,
    DegenerateInputError,
    InvalidArgumentError,
    check_keys,
)
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
            raise InvalidArgumentError(f"unknown positive loss {self.positive_loss!r}")
        if self.negative_loss not in NEGATIVE_LOSSES:
            raise InvalidArgumentError(f"unknown negative loss {self.negative_loss!r}")

    def to_dict(self):
        return {"positive_loss": self.positive_loss, "negative_loss": self.negative_loss,
                "nfft": self.nfft, "band_bpm": list(self.band_bpm)}

    @classmethod
    def from_dict(cls, payload):
        check_keys(payload, {f.name for f in fields(cls)}, "loss")
        return cls(positive_loss=payload.get("positive_loss", "neg_pearson"),
                   negative_loss=payload.get("negative_loss", "none"),
                   nfft=int(payload.get("nfft", DEFAULT_NFFT)),
                   band_bpm=tuple(payload.get("band_bpm", DEFAULT_BAND_BPM)))


def loss_neg_pearson(pred: Waveform, target: Waveform):
    """1 - Pearson correlation, in [0, 2]; gradient with respect to pred."""
    if len(pred) != len(target):
        raise InvalidArgumentError("pred and target must have equal lengths")
    p = pred.samples - pred.samples.mean()
    t = target.samples - target.samples.mean()
    p_norm = np.linalg.norm(p)
    t_norm = np.linalg.norm(t)
    if p_norm == 0.0 or t_norm == 0.0:
        raise DegenerateCorrelationError("correlation undefined for constant signals")
    r = float(p @ t) / (p_norm * t_norm)
    grad = -(t / (p_norm * t_norm) - r * p / p_norm ** 2)
    return 1.0 - r, grad


def loss_mse(pred: Waveform, target: Waveform):
    """Mean squared error against a target waveform."""
    if len(pred) != len(target):
        raise InvalidArgumentError("pred and target must have equal lengths")
    diff = pred.samples - target.samples
    n = diff.size
    return float(np.mean(diff ** 2)), 2.0 * diff / n


def loss_std(pred: Waveform):
    """Population standard deviation of the prediction."""
    x = pred.samples
    n = x.size
    centered = x - x.mean()
    value = float(np.sqrt(np.mean(centered ** 2)))
    if value == 0.0:
        return 0.0, np.zeros(n)
    return value, centered / (n * value)


def loss_mse_flatline(pred: Waveform):
    """MSE against the all-zero flatline target."""
    x = pred.samples
    return float(np.mean(x ** 2)), 2.0 * x / x.size


def entropy_loss_value(dist: np.ndarray) -> float:
    """1 - H(dist)/log(K) for a unit-sum distribution over K bins."""
    dist = np.asarray(dist, dtype=float)
    k = dist.size
    entropy = -float(np.sum(dist * np.log(np.maximum(dist, LOG_FLOOR))))
    return 1.0 - entropy / np.log(k)


def flatness_loss_value(dist: np.ndarray) -> float:
    """1 - geometric/arithmetic mean ratio for a unit-sum distribution."""
    dist = np.asarray(dist, dtype=float)
    geo = float(np.exp(np.mean(np.log(np.maximum(dist, LOG_FLOOR)))))
    return 1.0 - geo / float(dist.mean())


def _spectral_loss(pred: Waveform, nfft: int, band_bpm, kind: str):
    """Value and adjoint gradient of a spectral penalty on the in-band PSD.

    Chain: mean removal -> zero-padded rFFT -> one-sided power -> band mask ->
    normalization -> entropy/flatness.  The rFFT adjoint of a gradient q on
    |X_k|^2 is nfft * irfft(q * X) restricted to the original samples.
    """
    n = len(pred)
    spectrum, weights = one_sided_spectrum(pred.samples, nfft)
    power = np.abs(spectrum) ** 2 * weights
    mask = band_bin_mask(power.size, pred.fps, nfft, band_bpm)
    band_power = power[mask]
    total = band_power.sum()
    if total <= 0.0:
        raise DegenerateInputError("no in-band spectral energy")
    dist = band_power / total
    k = dist.size
    log_dist = np.log(np.maximum(dist, LOG_FLOOR))

    if kind == "entropy":
        value = entropy_loss_value(dist)
        grad_dist = np.where(dist > LOG_FLOOR, (log_dist + 1.0), np.log(LOG_FLOOR)) / np.log(k)
    else:
        value = flatness_loss_value(dist)
        geo = float(np.exp(log_dist.mean()))
        arith = float(dist.mean())
        d_geo = np.where(dist > LOG_FLOOR, geo / (k * dist), 0.0)
        grad_dist = -(d_geo * arith - geo / k) / arith ** 2

    # adjoint of the unit-sum normalization
    grad_band = (grad_dist - float(grad_dist @ dist)) / total
    grad_power = np.zeros(power.size)
    grad_power[mask] = grad_band
    q = grad_power * weights
    grad = (nfft * np.fft.irfft(q * spectrum, nfft))[:n]
    return value, grad - grad.mean()


def loss_spectral_entropy(pred: Waveform, nfft: int = DEFAULT_NFFT,
                          band_bpm=DEFAULT_BAND_BPM):
    """1 - normalized Shannon entropy of the in-band PSD; 0 for flat spectra."""
    return _spectral_loss(pred, nfft, band_bpm, "entropy")


def loss_spectral_flatness(pred: Waveform, nfft: int = DEFAULT_NFFT,
                           band_bpm=DEFAULT_BAND_BPM):
    """1 - spectral flatness (GM/AM) of the in-band PSD; 0 for flat spectra."""
    return _spectral_loss(pred, nfft, band_bpm, "flatness")


def combined_loss(pred: Waveform, target, is_positive: bool, spec: LossSpec):
    """Dispatch to the positive or negative objective for one training sample."""
    if is_positive:
        if target is None:
            raise InvalidArgumentError("positive samples need a target waveform")
        if spec.positive_loss == "neg_pearson":
            return loss_neg_pearson(pred, target)
        return loss_mse(pred, target)
    if target is not None:
        raise InvalidArgumentError("negative samples must not carry a target")
    if spec.negative_loss == "std":
        return loss_std(pred)
    if spec.negative_loss == "spectral_entropy":
        return loss_spectral_entropy(pred, spec.nfft, spec.band_bpm)
    if spec.negative_loss == "spectral_flatness":
        return loss_spectral_flatness(pred, spec.nfft, spec.band_bpm)
    if spec.negative_loss == "mse_flatline":
        return loss_mse_flatline(pred)
    return 0.0, np.zeros(len(pred))
