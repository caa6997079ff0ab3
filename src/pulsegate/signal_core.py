"""Core signal types and transforms: PSD, Hilbert envelope, resampling,
standardization, and Hann-weighted overlap-add of windowed outputs.

A video is RGB: a `VideoCube` holds 3 channels and its `Trace` is (T, 3),
each checked where it is built, so no consumer checks a channel count."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, check_positive

DEFAULT_NFFT = 5400
DEFAULT_BAND_BPM = (40.0, 240.0)

# slop for deciding whether a bin frequency sits inside the band
_BAND_EPS = 1e-9
# the most elements one array that a setting sizes may hold (2**25 complex
# values are 512 MiB); every shipped config needs about 0.54M, pulse_rate's
# twiddle tables
MAX_CELLS = 2 ** 25
BLOCK_VALUES = 2 ** 16  # the values in one of `frame_blocks`' blocks (512 KiB of float64)


def _signal_array(signal, field: str, name: str) -> np.ndarray:
    """Set a signal type's `field` array as finite floats and its fps as positive
    and finite; `name` names the type in an error."""
    values = np.asarray(getattr(signal, field), dtype=float)
    if not np.all(np.isfinite(values)):
        raise InvalidInputError(f"{name} {field} must be finite")
    object.__setattr__(signal, field, values)
    object.__setattr__(signal, "fps", check_positive(signal.fps, f"{name} fps"))
    return values


@dataclass(frozen=True)
class Waveform:
    """Uniformly sampled real-valued signal."""

    samples: np.ndarray
    fps: float

    def __post_init__(self):
        samples = _signal_array(self, "samples", "waveform")
        if samples.ndim != 1 or samples.size < 2:
            raise InvalidInputError("waveform needs a 1-D array of at least 2 samples")

    def __len__(self):
        return self.samples.size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.samples.size) / self.fps


@dataclass(frozen=True)
class VideoCube:
    """T x H x W x 3 intensity volume with frame rate, channels in R,G,B order."""

    data: np.ndarray
    fps: float

    def __post_init__(self):
        data = _signal_array(self, "data", "video cube")
        if data.ndim != 4 or data.shape[0] < 2 or 0 in data.shape or data.shape[3] != 3:
            raise InvalidInputError(
                f"video cube must be a (T, H, W, 3) RGB array with T >= 2, not {data.shape}")


@dataclass(frozen=True)
class Trace:
    """Per-frame R, G and B means of a video, shape (T, 3): the input of every
    pulse estimator."""

    values: np.ndarray
    fps: float

    def __post_init__(self):
        values = _signal_array(self, "values", "trace")
        if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] != 3:
            raise InvalidInputError(
                f"trace must be a (T, 3) RGB array with T >= 2, not {values.shape}")

    def __len__(self):
        return self.values.shape[0]


def check_cells(cells: float, setting: str) -> None:
    """Reject an array of `cells` elements, counted as a float before any
    `int()`, above `MAX_CELLS`; `setting` names what sized it."""
    if not cells <= MAX_CELLS:
        raise InvalidInputError(f"{setting} asks for an array of {cells:.4g} elements, "
                                f"over the {MAX_CELLS} allowed")


def band_bin_mask(n_bins: int, fps: float, nfft: int, band_bpm) -> np.ndarray:
    """Boolean mask of one-sided bins whose frequency lies in [low, high] bpm inclusive."""
    freqs = np.arange(n_bins) * (fps * 60.0 / nfft)
    low, high = band_bpm
    return (freqs >= low - _BAND_EPS) & (freqs <= high + _BAND_EPS)


def one_sided_spectrum(samples: np.ndarray, nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """rFFT of the mean-removed signal (each row of the last axis) zero-padded to
    nfft, and the one-sided weights.

    The weights are 2 on interior bins and 1 on DC and, for an even nfft, on
    the Nyquist bin, so |X|^2 * weights is the one-sided power.
    """
    x = np.asarray(samples, dtype=float)
    if nfft < x.shape[-1]:
        raise InvalidInputError(f"nfft={nfft} shorter than signal length {x.shape[-1]}")
    check_cells(np.prod(x.shape[:-1]) * (nfft // 2 + 1), f"nfft={nfft}")
    spectrum = np.fft.rfft(x - x.mean(axis=-1, keepdims=True), nfft)
    weights = np.full(spectrum.shape[-1], 2.0)
    weights[0] = 1.0
    if nfft % 2 == 0:
        weights[-1] = 1.0
    return spectrum, weights


def power_spectrum(samples: np.ndarray, nfft: int) -> np.ndarray:
    """One-sided power spectrum of the mean-removed, zero-padded signal.

    It satisfies Parseval's identity: sum(power) == nfft * sum((x - mean(x))**2).
    """
    spectrum, weights = one_sided_spectrum(samples, nfft)
    return np.abs(spectrum) ** 2 * weights


def band_power_rows(x: np.ndarray, fps: float, nfft: int):
    """One-sided power of each row with the bins outside `DEFAULT_BAND_BPM` zeroed, and the mask."""
    spectrum, weights = one_sided_spectrum(x, nfft)
    in_band = band_bin_mask(weights.size, fps, nfft, DEFAULT_BAND_BPM)
    power = np.zeros(spectrum.shape)
    power[..., in_band] = np.abs(spectrum[..., in_band]) ** 2 * weights[in_band]
    return power, in_band


class PSD(NamedTuple):
    """Unit-sum power of each one-sided bin, zero outside the band, and the band mask."""

    power: np.ndarray
    in_band: np.ndarray


def psd_rows(x: np.ndarray, fps: float, nfft: int) -> PSD:
    """Band-limited power of each row normalized to unit sum, and the band mask;
    a row with no in-band energy (e.g. a constant) stays all-zero."""
    power, in_band = band_power_rows(x, fps, nfft)
    total = power.sum(axis=-1, keepdims=True)
    np.divide(power, total, out=power, where=total > 0.0)
    return PSD(power, in_band)


def hilbert_envelope_rows(x: np.ndarray) -> np.ndarray:
    """Magnitude of the analytic signal of each row (frequency-domain Hilbert
    transform), which keeps DC (and Nyquist, for even lengths), doubles the
    positive frequencies and zeroes the negative ones."""
    n = x.shape[-1]
    if n < 4:
        raise InvalidInputError("hilbert envelope needs at least 4 samples")
    gain = np.zeros(n)
    gain[0] = 1.0
    gain[1:(n + 1) // 2] = 2.0
    if n % 2 == 0:
        gain[n // 2] = 1.0
    return np.abs(np.fft.ifft(np.fft.fft(x) * gain))


def hilbert_envelope(w: Waveform) -> Waveform:
    """Hilbert envelope of one waveform: the one-row `hilbert_envelope_rows`."""
    return Waveform(hilbert_envelope_rows(w.samples), w.fps)


def _not_a_knot_slopes(x: np.ndarray, dx: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Knot derivatives of the not-a-knot cubic spline through n >= 4 knots.

    Row i of the tridiagonal system reads sub[i] s[i-1] + diag[i] s[i] +
    sup[i] s[i+1] = rhs[i]; the end rows keep the third derivative continuous
    at the second and second-to-last knots.  Thomas algorithm, O(n).
    """
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    sub = [0.0, *dx[1:].tolist(), d1]
    diag = [dx[1], *(2.0 * (dx[:-1] + dx[1:])).tolist(), dx[-2]]
    sup = [d0, *dx[:-1].tolist()]
    rhs = [((dx[0] + 2.0 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0,
           *(3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])).tolist(),
           (dx[-1] ** 2 * slope[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1]
    for i in range(1, len(diag)):
        m = sub[i] / diag[i - 1]
        diag[i] -= m * sup[i - 1]
        rhs[i] -= m * rhs[i - 1]
    s = [rhs[-1] / diag[-1]]
    for i in range(len(diag) - 2, -1, -1):
        s.append((rhs[i] - sup[i] * s[-1]) / diag[i])
    return np.array(s[::-1])


def resample_cubic(w: Waveform, target_fps: float) -> Waveform:
    """Cubic-spline interpolation onto a uniform grid at target_fps.

    The new grid starts at t=0 and spans the original time range; the sample
    count is chosen so the last grid point does not extrapolate.
    """
    check_positive(target_fps, "target_fps")
    if len(w) < 4:
        raise InvalidInputError("cubic resampling needs at least 4 samples")
    if target_fps == w.fps:
        return Waveform(w.samples.copy(), w.fps)
    times, y = w.times, w.samples
    check_cells(times[-1] * target_fps + 1.0, f"target_fps={target_fps:g}")
    n_out = int(np.floor(times[-1] * target_fps + _BAND_EPS)) + 1
    new_times = np.arange(n_out) / target_fps
    # on each knot interval: y + s t + c2 t^2 + c3 t^3, t measured from the knot
    dx = np.diff(times)
    slope = np.diff(y) / dx
    s = _not_a_knot_slopes(times, dx, slope)
    curv = (s[:-1] + s[1:] - 2.0 * slope) / dx
    c2, c3 = (slope - s[:-1]) / dx - curv, curv / dx
    seg = np.clip(np.searchsorted(times, new_times, side="right") - 1, 0, times.size - 2)
    t = new_times - times[seg]
    values = y[seg] + s[seg] * t + c2[seg] * (t * t) + c3[seg] * (t * t * t)
    return Waveform(values, target_fps)


def standardize_rows(x: np.ndarray) -> np.ndarray:
    """Zero-mean unit-variance copy of each row (last axis); constant rows map to zeros."""
    x = np.asarray(x, dtype=float)
    centered = x - x.mean(axis=-1, keepdims=True)
    sd = np.sqrt(np.mean(centered ** 2, axis=-1, keepdims=True))
    return np.divide(centered, sd, out=np.zeros_like(centered), where=sd != 0.0)


def standardize(w: Waveform) -> Waveform:
    """Waveform standardized to mean 0, population std 1; a constant maps to zeros."""
    return Waveform(standardize_rows(w.samples), w.fps)


def spatial_mean_trace(v: VideoCube) -> Trace:
    """The trace of a cube: its per-frame channel means over the spatial dimensions.

    Each block of frames is copied pixels-first, (pixels, frames, 3), and
    reduced over its first axis: the same sequential sum over the pixels as
    `mean(axis=(1, 2))`, bit for bit, without that reduction's 3-value inner
    loop."""
    means = np.empty((len(v.data), 3))
    # one scratch for every block, which holds BLOCK_VALUES values or one
    # frame: a fresh copy per block took longer than the sums
    scratch = np.empty(min(v.data.size, max(BLOCK_VALUES, v.data[0].size)))
    start = 0
    for block in frame_blocks(v.data):
        pixels = block.reshape(len(block), -1, 3).transpose(1, 0, 2)
        copy = scratch[:block.size].reshape(pixels.shape)
        np.copyto(copy, pixels)
        copy.mean(axis=0, out=means[start:start + len(block)])
        start += len(block)
    return Trace(means, v.fps)


def frame_blocks(data: np.ndarray):
    """Views of consecutive blocks of whole frames (axis 0) of `data`, each of about
    BLOCK_VALUES values, so that a cube path's temporaries stay a block in size."""
    step = max(1, BLOCK_VALUES // data[0].size)
    for start in range(0, len(data), step):
        yield data[start:start + step]


def bandpass_brickwall(w: Waveform) -> Waveform:
    """Zero-phase FFT bandpass keeping only the bins inside `DEFAULT_BAND_BPM`."""
    n = len(w)
    spectrum = np.fft.rfft(w.samples - w.samples.mean())
    mask = band_bin_mask(spectrum.size, w.fps, n, DEFAULT_BAND_BPM)
    filtered = np.fft.irfft(np.where(mask, spectrum, 0.0), n)
    return Waveform(filtered, w.fps)


def window_samples(seconds: float, fps: float, name: str) -> int:
    """The whole number of samples that `seconds` spans at `fps`; `name` is the
    setting that an error names."""
    if not np.isfinite(seconds * fps):
        raise InvalidInputError(
            f"{name} ({seconds:g} s) holds no finite number of samples at {fps:g} fps")
    return int(round(seconds * fps))


def positive_hann(length: int) -> np.ndarray:
    """Hann taper with strictly positive endpoints, safe for weight division."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * (np.arange(length) + 1.0) / (length + 1.0))


def window_starts(total: int, length: int, hop: int) -> list[int]:
    """Window start indices covering [0, total); a final window is aligned to the end."""
    starts = list(range(0, total - length + 1, max(hop, 1)))
    if starts[-1] != total - length:
        starts.append(total - length)
    return starts


def stitch_overlap_add(segments, starts, total_len: int) -> np.ndarray:
    """Hann-weighted overlap-add of equal-length segments; weights renormalized."""
    length = len(segments[0])
    taper = positive_hann(length)
    acc = np.zeros(total_len)
    weight = np.zeros(total_len)
    for seg, start in zip(segments, starts):
        acc[start:start + length] += seg * taper
        weight[start:start + length] += taper
    return acc / weight
