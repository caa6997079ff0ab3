"""Synthetic pulsatile video scenes and pulseless negative-sample transforms."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, check_nonnegative, check_positive
from .signal_core import VideoCube, Waveform

NEGATIVE_KINDS = ("normal", "uniform", "shuffle")

# relative pulse strength per RGB channel; green carries the strongest signal,
# and the imbalance is what chrominance projections rely on
DEFAULT_CHANNEL_GAINS = (0.5, 1.0, 0.4)
# static brightness per channel before spatial patterning
_CHANNEL_BASE = (0.62, 0.52, 0.45)


@dataclass(frozen=True)
class SceneConfig:
    """Parameters of one synthetic scene.

    `hr_trajectory` is either a constant bpm or a piecewise-linear list of
    (time_s, bpm) knots.  Noise magnitudes are in 8-bit intensity units so a
    sigma of 3 means the same thing for positives and constructed negatives.
    """

    duration_s: float
    fps: float = 90.0
    dims: tuple[int, int] = (32, 32)
    hr_trajectory: object = 72.0
    pulse_amplitude: float = 0.02
    dicrotic_ratio: float = 0.0
    sensor_noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.duration_s * self.fps < 2:
            raise InvalidInputError("scene must span at least 2 frames")
        check_positive(self.fps, "fps")
        if np.shape(self.dims) != (2,) or not all(
                isinstance(d, (int, np.integer)) and d >= 1 for d in self.dims):
            raise InvalidInputError(f"dims {self.dims} must be two positive integers")
        frames = np.round(self.duration_s * self.fps)
        if not frames * self.dims[0] * self.dims[1] * 3 <= np.iinfo(np.intp).max:
            raise InvalidInputError(
                f"duration_s ({self.duration_s:g}) at fps ({self.fps:g}) makes {frames:.4g} "
                f"frames of {self.dims[0]}x{self.dims[1]}x3 values, more than an array can index")
        if not np.isscalar(self.hr_trajectory):
            knots = np.asarray(self.hr_trajectory, dtype=float)
            if (knots.ndim != 2 or knots.shape[1] != 2 or not np.all(np.isfinite(knots))
                    or not np.all(np.diff(knots[:, 0]) > 0)):
                raise InvalidInputError("hr_trajectory must be a list of finite [time_s, bpm] "
                                        "knots with strictly increasing times")
        lo, hi = np.min(self.hr_bpm_knots()[1]), np.max(self.hr_bpm_knots()[1])
        if not 40.0 <= lo <= hi <= 240.0:
            raise InvalidInputError("hr trajectory must stay within [40, 240] bpm")
        if not (0.0 <= self.dicrotic_ratio <= 1.0):
            raise InvalidInputError(f"dicrotic_ratio ({self.dicrotic_ratio:g}) must be in [0, 1]")
        if not np.isfinite(self.pulse_amplitude):
            raise InvalidInputError(f"pulse_amplitude ({self.pulse_amplitude:g}) must be finite")
        check_nonnegative(self.sensor_noise_sigma, "sensor_noise_sigma")

    def hr_bpm_knots(self):
        """(times, bpms) arrays describing the trajectory."""
        if np.isscalar(self.hr_trajectory):
            return np.array([0.0, self.duration_s]), np.array([float(self.hr_trajectory)] * 2)
        knots = np.asarray(self.hr_trajectory, dtype=float)
        return knots[:, 0], knots[:, 1]

    def hr_at(self, times: np.ndarray) -> np.ndarray:
        """Instantaneous heart rate (bpm) at the given times."""
        knot_t, knot_bpm = self.hr_bpm_knots()
        return np.interp(times, knot_t, knot_bpm)


def generate_positive(cfg: SceneConfig) -> tuple[VideoCube, Waveform]:
    """Render a pulsatile scene and its noiseless ground-truth modulator.

    Every pixel carries base(x,y) * (1 + amplitude * gain_c * m(t)) where
    m(t) = sin(phase) + dicrotic_ratio * sin(2 * phase) and the phase advances
    at the configured heart rate.  Sensor noise is added in the 8-bit domain
    and the result is clamped back to [0, 1].
    """
    n_frames = int(round(cfg.duration_s * cfg.fps))
    height, width = cfg.dims
    times = np.arange(n_frames) / cfg.fps
    hr = cfg.hr_at(times)
    # phase advances at 2*pi*hr/60 rad/s; integrate with the trapezoid rule
    inst_rad_per_s = 2.0 * np.pi * hr / 60.0
    phase = np.concatenate([[0.0], np.cumsum(0.5 * (inst_rad_per_s[1:] + inst_rad_per_s[:-1]) / cfg.fps)])
    modulator = np.sin(phase) + cfg.dicrotic_ratio * np.sin(2.0 * phase)
    truth = cfg.pulse_amplitude * modulator

    rng = np.random.default_rng(cfg.seed)
    base = rng.uniform(0.35, 0.65, size=(height, width))
    gains = np.asarray(DEFAULT_CHANNEL_GAINS)
    channel_base = base[:, :, None] * np.asarray(_CHANNEL_BASE)
    modulation = 1.0 + cfg.pulse_amplitude * gains[None, :] * modulator[:, None]
    cube = channel_base[None, :, :, :] * modulation[:, None, None, :]
    if cfg.sensor_noise_sigma > 0:
        # in place: the same arithmetic as np.clip(cube * 255 + noise, 0, 255) / 255
        cube *= 255.0
        cube += rng.normal(0.0, cfg.sensor_noise_sigma, size=cube.shape)
        np.clip(cube, 0.0, 255.0, out=cube)
        cube /= 255.0
    return VideoCube(cube, cfg.fps), Waveform(truth, cfg.fps)


@dataclass(frozen=True)
class NegativeTransform:
    """One of the three pulseless transforms: NORMAL, UNIFORM or SHUFFLE."""

    kind: str
    normal_sigma: float = 3.0
    uniform_bounds: tuple[float, float] = (-3.0, 3.0)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in NEGATIVE_KINDS:
            raise InvalidInputError(f"unknown negative kind {self.kind!r}")
        check_positive(self.normal_sigma, "normal_sigma")
        if not -np.inf < self.uniform_bounds[0] < self.uniform_bounds[1] < np.inf:
            raise InvalidInputError(f"uniform_bounds {list(self.uniform_bounds)} must be "
                                    "finite and satisfy low < high")


def make_negative(v: VideoCube, transform: NegativeTransform) -> VideoCube:
    """Destroy the temporal pulse signal while keeping the spatial content.

    NORMAL/UNIFORM replicate one uniformly chosen frame and add i.i.d.
    per-pixel noise in the 8-bit domain; SHUFFLE permutes the frame order.
    Dimensions and frame rate are unchanged.
    """
    rng = np.random.default_rng(transform.seed)
    n_frames = v.data.shape[0]
    if transform.kind == "shuffle":
        return VideoCube(v.data[rng.permutation(n_frames)], v.fps)
    frame = v.data[int(rng.integers(n_frames))] * 255.0
    if transform.kind == "normal":
        noise = rng.normal(0.0, transform.normal_sigma, size=v.data.shape)
    else:
        low, high = transform.uniform_bounds
        noise = rng.uniform(low, high, size=v.data.shape)
    # in place: the same arithmetic as np.clip(frame + noise, 0, 255) / 255
    noise += frame[None, :, :, :]
    np.clip(noise, 0.0, 255.0, out=noise)
    noise /= 255.0
    return VideoCube(noise, v.fps)
