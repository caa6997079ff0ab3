"""A small trainable temporal pulse estimator with manual backpropagation.

The model maps the spatial-mean RGB trace of a clip through two temporal
convolutions (tanh between them) with edge-replication padding, so a
temporally constant input produces a constant output with no boundary
transients.  Training steps, validation and inference each run one (B, C, T)
stack of clips through FFT convolutions (Mathieu, Henaff & LeCun, ICLR 2014).
Whole videos are processed clip-by-clip and stitched with Hann-weighted
overlap-add.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidArgumentError,
    InvalidInputError,
    InvalidTrainingSetError,
    NumericalDivergenceError,
    parsing,
)
from .losses import LossSpec, batch_loss
from .signal_core import (
    VideoCube,
    Waveform,
    spatial_mean_trace,
    standardize_rows,
    stitch_overlap_add,
    window_starts,
)

PARAM_NAMES = ("w1", "b1", "w2", "b2")


@dataclass
class ToyEstimator:
    """Two temporal convolutions: C_in -> filters (tanh) -> 1 (linear).
    The four parameter arrays are views into one flat vector, `flat`."""

    w1: np.ndarray  # (filters, in_channels, kernel_len)
    b1: np.ndarray  # (filters,)
    w2: np.ndarray  # (1, filters, kernel_len)
    b2: np.ndarray  # (1,)
    activation: str = "tanh"
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if np.shape(self.w1)[2] % 2 == 0 or np.shape(self.w2)[2] % 2 == 0:
            raise InvalidArgumentError("kernel lengths must be odd")
        if self.activation not in ("tanh", "linear"):
            raise InvalidArgumentError(f"unknown activation {self.activation!r}")
        self.flat = np.concatenate([np.ravel(getattr(self, name)) for name in PARAM_NAMES],
                                   dtype=float)
        for name, view in self.split(self.flat).items():
            setattr(self, name, view)

    @classmethod
    def init(cls, filters: int = 8, kernel_len: int = 11, in_channels: int = 3,
             scale: float = 0.1, seed: int = 0, activation: str = "tanh"):
        for name, size in (("filters", filters), ("kernel_len", kernel_len)):
            if size < 1:
                raise InvalidArgumentError(f"{name} ({size}) must be at least 1")
        if not scale > 0:
            raise InvalidArgumentError(f"scale ({scale:g}) must be positive")
        rng = np.random.default_rng(seed)
        return cls(w1=rng.normal(0.0, scale, (filters, in_channels, kernel_len)),
                   b1=np.zeros(filters),
                   w2=rng.normal(0.0, scale, (1, filters, kernel_len)),
                   b2=np.zeros(1),
                   activation=activation)

    @property
    def in_channels(self) -> int:
        return self.w1.shape[1]

    @property
    def receptive_field(self) -> int:
        return self.w1.shape[2] + self.w2.shape[2] - 1

    def split(self, flat: np.ndarray) -> dict:
        """Views of a parameter-sized flat vector, keyed and shaped like the parameters."""
        views, offset = {}, 0
        for name in PARAM_NAMES:
            shape = np.shape(getattr(self, name))
            size = int(np.prod(shape))
            views[name] = flat[offset:offset + size].reshape(shape)
            offset += size
        return views

    def copy(self) -> "ToyEstimator":
        return ToyEstimator(self.w1, self.b1, self.w2, self.b2, self.activation)

    def to_dict(self):
        return {"filters": self.w1.shape[0], "in_channels": self.in_channels,
                "kernel_len1": self.w1.shape[2], "kernel_len2": self.w2.shape[2],
                "activation": self.activation,
                "w1": list(map(float, self.w1.ravel())),
                "b1": list(map(float, self.b1)),
                "w2": list(map(float, self.w2.ravel())),
                "b2": list(map(float, self.b2))}

    @classmethod
    def from_dict(cls, payload):
        with parsing("estimator model"):
            f, c = payload["filters"], payload["in_channels"]
            k1, k2 = payload["kernel_len1"], payload["kernel_len2"]
            return cls(w1=np.asarray(payload["w1"], dtype=float).reshape(f, c, k1),
                       b1=np.asarray(payload["b1"], dtype=float),
                       w2=np.asarray(payload["w2"], dtype=float).reshape(1, f, k2),
                       b2=np.asarray(payload["b2"], dtype=float),
                       activation=payload.get("activation", "tanh"))


def _fft_len(n_frames: int, kernel: int) -> int:
    """Smallest 3^b 2^a (b <= 3) >= T + 2 (k - 1): the full convolution of the
    edge-padded input with the kernel then fits without wrapping around."""
    need = n_frames + 2 * (kernel - 1)
    return min(m << (-(-need // m) - 1).bit_length() for m in (1, 3, 9, 27))


def _fft_conv(x: np.ndarray, weights: np.ndarray, bias: np.ndarray):
    """Temporal convolution with edge padding of a (B, C, T) stack: (B, F, T).

    y[b, f, t] = bias[f] + sum over c, j of weights[f, c, j] * x_pad[b, c, t + j],
    a cross-correlation taken as conj(W) * X in the frequency domain.  Also
    returns the padded input's spectrum, which the weight gradient reuses.
    """
    n_frames, kernel = x.shape[-1], weights.shape[-1]
    pad = kernel // 2
    n = _fft_len(n_frames, kernel)
    padded = np.concatenate([np.repeat(x[..., :1], pad, axis=-1), x,
                             np.repeat(x[..., -1:], pad, axis=-1)], axis=-1)
    spectrum = np.fft.rfft(padded, n)
    products = np.einsum("bcn,fcn->bfn", spectrum, np.fft.rfft(weights, n).conj())
    return np.fft.irfft(products, n)[..., :n_frames] + bias[:, None], spectrum


def _fft_conv_weight_grad(spectrum: np.ndarray, upstream: np.ndarray, kernel: int):
    """(d_weights, d_bias) of `_fft_conv`, summed over the batch, from its
    padded-input spectrum: the cross-correlation of the (B, F, T) upstream
    gradient with the padded input at lags 0..k-1."""
    n = _fft_len(upstream.shape[-1], kernel)
    products = np.einsum("bfn,bcn->fcn", np.fft.rfft(upstream, n).conj(), spectrum)
    return np.fft.irfft(products, n)[..., :kernel], upstream.sum(axis=(0, 2))


def _fft_conv_input_grad(weights: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of `_fft_conv` with respect to its (B, C, T) input."""
    n_frames, kernel = upstream.shape[-1], weights.shape[-1]
    pad = kernel // 2
    n = _fft_len(n_frames, kernel)
    # full convolution of upstream with each kernel: (B, C, T + 2 * pad)
    products = np.einsum("bfn,fcn->bcn", np.fft.rfft(upstream, n), np.fft.rfft(weights, n))
    d_padded = np.fft.irfft(products, n)[..., :n_frames + 2 * pad]
    # adjoint of edge padding: fold the replicated borders onto the end samples
    d_x = d_padded[..., pad:pad + n_frames].copy()
    d_x[..., 0] += d_padded[..., :pad].sum(axis=-1)
    d_x[..., -1] += d_padded[..., pad + n_frames:].sum(axis=-1)
    return d_x


def _forward(model: ToyEstimator, x: np.ndarray):
    """Forward pass on a standardized (B, C, T) stack: (B, T) outputs and the
    intermediates `_backward` reads."""
    pre, spectrum1 = _fft_conv(x, model.w1, model.b1)
    hidden = np.tanh(pre) if model.activation == "tanh" else pre
    out, spectrum2 = _fft_conv(hidden, model.w2, model.b2)
    return out[:, 0], (spectrum1, hidden, spectrum2)


def _backward(model: ToyEstimator, cache, upstream: np.ndarray) -> np.ndarray:
    """Flat parameter gradient, summed over the batch, for a (B, T) upstream dL/dy."""
    spectrum1, hidden, spectrum2 = cache
    upstream = upstream[:, None, :]
    d_w2, d_b2 = _fft_conv_weight_grad(spectrum2, upstream, model.w2.shape[2])
    d_hidden = _fft_conv_input_grad(model.w2, upstream)
    d_pre = d_hidden * (1.0 - hidden ** 2) if model.activation == "tanh" else d_hidden
    # the first layer's input is data, so its input gradient is never needed
    d_w1, d_b1 = _fft_conv_weight_grad(spectrum1, d_pre, model.w1.shape[2])
    return np.concatenate([d_w1.ravel(), d_b1, d_w2.ravel(), d_b2])


def _trace(model: ToyEstimator, video: VideoCube) -> np.ndarray:
    """The (C, T) spatial-mean trace of a video, checked against the model."""
    trace = spatial_mean_trace(video).T
    if trace.shape[0] != model.in_channels:
        raise InvalidInputError(
            f"clip has {trace.shape[0]} channels, model expects {model.in_channels}")
    return trace


def _crops(traces, starts, clip_len: int) -> np.ndarray:
    """Standardized (B, C, clip_len) stack of crops of (C, T) traces."""
    return standardize_rows(np.stack([trace[:, start:start + clip_len]
                                      for trace, start in zip(traces, starts)]))


def forward(model: ToyEstimator, clip: VideoCube) -> Waveform:
    """Predict a waveform for one clip (length equals the clip length)."""
    trace = _trace(model, clip)
    if trace.shape[1] < model.receptive_field:
        raise InsufficientDataError("clip shorter than the model's receptive field")
    out, _ = _forward(model, standardize_rows(trace)[None])
    return Waveform(out[0], clip.fps)


def backward(model: ToyEstimator, clip: VideoCube, upstream: np.ndarray):
    """Exact parameter gradients of the forward map for a given upstream dL/dy,
    keyed like the parameters."""
    _, cache = _forward(model, standardize_rows(_trace(model, clip))[None])
    return model.split(_backward(model, cache, np.asarray(upstream, dtype=float)[None]))


@dataclass
class TrainConfig:
    clip_len: int = 270
    batch_size: int = 8
    steps: int = 2000
    learning_rate: float = 1e-2
    momentum: float = 0.9
    seed: int = 0
    loss: LossSpec = field(default_factory=LossSpec)
    negative_mix: float = 0.5
    val_every: int = 100

    def __post_init__(self):
        if not 0.0 <= self.negative_mix <= 1.0:
            raise InvalidArgumentError("negative_mix must be in [0, 1]")
        for name in ("clip_len", "batch_size", "steps", "val_every"):
            if getattr(self, name) < 1:
                raise InvalidArgumentError(
                    f"train.{name} ({getattr(self, name)}) must be at least 1")


def _split_corpus(corpus, clip_len: int):
    """Positives and negatives as lists of ((C, T) trace, target samples or
    None), plus the frame rate all clips share."""
    positives, negatives = [], []
    fps = None
    for clip, target, is_positive in corpus:
        fps = clip.fps if fps is None else fps
        if clip.fps != fps:
            raise InvalidTrainingSetError("all corpus clips must share one frame rate")
        n_frames = clip.data.shape[0]
        if n_frames < clip_len:
            raise InvalidTrainingSetError(
                f"corpus clip of {n_frames} frames shorter than clip_len={clip_len}")
        if is_positive and (target is None or len(target) != n_frames):
            raise InvalidTrainingSetError(
                "positive corpus clips need a target waveform of their own length")
        trace = np.ascontiguousarray(spatial_mean_trace(clip).T)
        (positives if is_positive else negatives).append(
            (trace, target.samples if is_positive else None))
    return positives, negatives, fps


def _score(model, samples, starts, clip_len, fps, spec):
    """One batched forward pass over crops of (trace, target or None) samples.

    Returns the per-row loss values, the (B, T) upstream gradients and the
    cache `_backward` reads.  A row with a target is a positive.
    """
    out, cache = _forward(model, _crops([trace for trace, _ in samples], starts, clip_len))
    if not np.all(np.isfinite(out)):
        raise NumericalDivergenceError("non-finite estimator output")
    positive = np.array([target is not None for _, target in samples])
    targets = np.zeros_like(out)
    for row, ((_, target), start) in enumerate(zip(samples, starts)):
        if target is not None:
            targets[row] = target[start:start + clip_len]
    values, upstream = batch_loss(out, targets, positive, fps, spec)
    return values, upstream, cache


def _validation_metric(model, val_samples, fps, cfg):
    """Mean positive loss on the validation positives plus, when negatives are
    in play (`val_samples` holds some), the mean negative loss on them.
    Deterministic: the first window of every clip, in one batch."""
    values, _, _ = _score(model, val_samples, [0] * len(val_samples),
                          cfg.clip_len, fps, cfg.loss)
    positive = np.array([target is not None for _, target in val_samples])
    metric = float(values[positive].mean())
    if not positive.all():
        metric += float(values[~positive].mean())
    return metric


def train(cfg: TrainConfig, corpus, val_corpus=None, model: ToyEstimator = None):
    """SGD with momentum on the combined loss over a labeled clip corpus.

    `corpus` and `val_corpus` are sequences of (VideoCube, Waveform | None,
    is_positive).  Clips longer than clip_len are randomly cropped each draw.
    Negatives are drawn with probability `cfg.negative_mix`, or never when
    `cfg.loss.negative_loss` is "none".

    Returns (model, loss_history, validation).  With a validation corpus the
    metric is taken every `cfg.val_every` steps and after the last step, the
    best-on-validation snapshot is returned instead of the final parameters,
    and `validation` is {"steps", "metric", "checkpoint_step"}: the curve and
    the step of the returned parameters.  Without one, `validation` is None.
    """
    negative_mix = 0.0 if cfg.loss.negative_loss == "none" else cfg.negative_mix
    positives, negatives, fps = _split_corpus(corpus, cfg.clip_len)
    if not positives:
        raise InvalidTrainingSetError("training corpus has no positive samples")
    if negative_mix > 0 and not negatives:
        raise InvalidTrainingSetError("negative_mix > 0 but corpus has no negatives")
    model = ToyEstimator.init(seed=cfg.seed) if model is None else model.copy()

    validation = None
    if val_corpus:
        val_pos, val_neg, val_fps = _split_corpus(val_corpus, cfg.clip_len)
        if not val_pos:
            raise InvalidTrainingSetError("validation corpus has no positive samples")
        val_samples = val_pos + (val_neg if negative_mix > 0 else [])
        validation = {"steps": [], "metric": [], "checkpoint_step": cfg.steps}

    rng = np.random.default_rng(cfg.seed)
    velocity = np.zeros(model.flat.size)
    history = []
    best_metric = np.inf
    best_params = None

    for step in range(cfg.steps):
        samples, starts = [], []
        for _ in range(cfg.batch_size):
            take_negative = rng.random() < negative_mix
            pool = negatives if take_negative else positives
            sample = pool[int(rng.integers(len(pool)))]
            n_frames = sample[0].shape[1]
            starts.append(int(rng.integers(n_frames - cfg.clip_len + 1))
                          if n_frames > cfg.clip_len else 0)
            samples.append(sample)
        values, upstream, cache = _score(model, samples, starts, cfg.clip_len, fps, cfg.loss)
        batch_loss_value = float(values.mean())
        if not np.isfinite(batch_loss_value):
            raise NumericalDivergenceError(
                f"non-finite training loss {batch_loss_value} at step {step}")
        history.append(batch_loss_value)
        velocity = cfg.momentum * velocity + _backward(model, cache, upstream) / cfg.batch_size
        model.flat -= cfg.learning_rate * velocity

        if validation is not None and ((step + 1) % cfg.val_every == 0
                                       or step + 1 == cfg.steps):
            metric = _validation_metric(model, val_samples, val_fps, cfg)
            validation["steps"].append(step + 1)
            validation["metric"].append(metric)
            if metric < best_metric:
                best_metric = metric
                best_params = model.flat.copy()
                validation["checkpoint_step"] = step + 1

    if best_params is not None:
        model.flat[...] = best_params
    return model, history, validation


def clip_predictions(model: ToyEstimator, video: VideoCube, clip_len: int,
                     overlap: float = 0.5):
    """Run each overlapping clip of a video through the model, as one batch.

    Returns (outputs, starts): the raw (n_clips, clip_len) clip predictions
    and their first frames.  Stitch them with `stitch_overlap_add`, raw or
    standardized per clip, and read amplitudes (per-clip std) from them
    directly.
    """
    n_frames = video.data.shape[0]
    if clip_len < 1:
        raise InvalidArgumentError(f"clip_len ({clip_len}) must be at least 1")
    if n_frames < clip_len:
        raise InsufficientDataError("video shorter than one clip")
    if not 0.0 <= overlap < 1.0:
        raise InvalidArgumentError("overlap must be in [0, 1)")
    hop = max(int(round(clip_len * (1.0 - overlap))), 1)
    starts = window_starts(n_frames, clip_len, hop)
    trace = _trace(model, video)
    outputs, _ = _forward(model, _crops([trace] * len(starts), starts, clip_len))
    return outputs, starts


def infer_video(model: ToyEstimator, video: VideoCube, clip_len: int,
                overlap: float = 0.5) -> Waveform:
    """Whole-video inference by overlap-added, per-clip standardized predictions.

    Spectral training losses are amplitude-invariant, so per-clip amplitudes
    carry no meaning here; `clip_predictions` keeps them.
    """
    outputs, starts = clip_predictions(model, video, clip_len, overlap)
    return Waveform(stitch_overlap_add(standardize_rows(outputs), starts,
                                       video.data.shape[0]), video.fps)
