"""A small trainable temporal pulse estimator with manual backpropagation.

The model maps the spatial-mean RGB trace of a clip through two temporal
convolutions (tanh between them) with edge-replication padding, so a
temporally constant input produces a constant output with no boundary
transients.  Whole videos are processed clip-by-clip and stitched with
Hann-weighted overlap-add.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    InsufficientDataError,
    InvalidArgumentError,
    InvalidInputError,
    InvalidTrainingSetError,
    NumericalDivergenceError,
    check_keys,
)
from .losses import LossSpec, combined_loss
from .signal_core import (
    VideoCube,
    Waveform,
    spatial_mean_trace,
    standardize_samples,
    stitch_overlap_add,
    window_starts,
)


@dataclass
class ToyEstimator:
    """Two temporal convolutions: C_in -> filters (tanh) -> 1 (linear)."""

    w1: np.ndarray  # (filters, in_channels, kernel_len)
    b1: np.ndarray  # (filters,)
    w2: np.ndarray  # (1, filters, kernel_len)
    b2: np.ndarray  # (1,)
    activation: str = "tanh"

    def __post_init__(self):
        if self.w1.shape[2] % 2 == 0 or self.w2.shape[2] % 2 == 0:
            raise InvalidArgumentError("kernel lengths must be odd")
        if self.activation not in ("tanh", "linear"):
            raise InvalidArgumentError(f"unknown activation {self.activation!r}")

    @classmethod
    def init(cls, filters: int = 8, kernel_len: int = 11, in_channels: int = 3,
             scale: float = 0.1, seed: int = 0, activation: str = "tanh"):
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

    def params(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def flat_params(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.params().values()])

    def set_flat_params(self, flat: np.ndarray) -> None:
        offset = 0
        for p in self.params().values():
            p[...] = flat[offset:offset + p.size].reshape(p.shape)
            offset += p.size

    def copy(self) -> "ToyEstimator":
        return copy.deepcopy(self)

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
        f, c = payload["filters"], payload["in_channels"]
        k1, k2 = payload["kernel_len1"], payload["kernel_len2"]
        return cls(w1=np.asarray(payload["w1"], dtype=float).reshape(f, c, k1),
                   b1=np.asarray(payload["b1"], dtype=float),
                   w2=np.asarray(payload["w2"], dtype=float).reshape(1, f, k2),
                   b2=np.asarray(payload["b2"], dtype=float),
                   activation=payload.get("activation", "tanh"))


def _windows(padded: np.ndarray, kernel: int) -> np.ndarray:
    """Length-`kernel` windows of a (C, L) array as a contiguous
    (L - kernel + 1, C*kernel) matrix."""
    windows = sliding_window_view(padded, kernel, axis=1)
    return windows.transpose(1, 0, 2).reshape(windows.shape[1], -1)


def _conv_same(x: np.ndarray, weights: np.ndarray, bias: np.ndarray):
    """Temporal convolution with edge padding: (C, T) -> (F, T).

    Returns the output and the window matrix that `_conv_same_backward`
    reuses.
    """
    kernel = weights.shape[2]
    pad = kernel // 2
    padded = np.concatenate([np.repeat(x[:, :1], pad, axis=1), x,
                             np.repeat(x[:, -1:], pad, axis=1)], axis=1)
    cols = _windows(padded, kernel)
    return weights.reshape(weights.shape[0], -1) @ cols.T + bias[:, None], cols


def _conv_same_backward(cols: np.ndarray, weights: np.ndarray, upstream: np.ndarray):
    """Parameter gradients of _conv_same from its window matrix: (d_weights, d_bias)."""
    return (upstream @ cols).reshape(weights.shape), upstream.sum(axis=1)


def _conv_same_input_grad(weights: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient of _conv_same with respect to its (C, T) input."""
    n_out, n_in, kernel = weights.shape
    pad = kernel // 2
    n_frames = upstream.shape[1]
    # full convolution of upstream with each kernel, as windows of the
    # zero-padded upstream times the flipped kernels: (C, T + 2 * pad)
    zeros = np.zeros((n_out, kernel - 1))
    cols = _windows(np.concatenate([zeros, upstream, zeros], axis=1), kernel)
    flipped = weights[:, :, ::-1].transpose(0, 2, 1).reshape(n_out * kernel, n_in)
    d_padded = (cols @ flipped).T
    # adjoint of edge padding: fold the replicated borders onto the end samples
    d_x = d_padded[:, pad:pad + n_frames].copy()
    d_x[:, 0] += d_padded[:, :pad].sum(axis=1)
    d_x[:, -1] += d_padded[:, pad + n_frames:].sum(axis=1)
    return d_x


def standardize_trace(trace: np.ndarray) -> np.ndarray:
    """Per-channel standardization of a (T, C) trace; constant channels zero out."""
    out = np.empty_like(trace, dtype=float)
    for ch in range(trace.shape[1]):
        out[:, ch], _ = standardize_samples(trace[:, ch])
    return out


def _forward_cache(model: ToyEstimator, x: np.ndarray):
    """Forward pass on a standardized (C, T) input, keeping intermediates."""
    pre, cols1 = _conv_same(x, model.w1, model.b1)
    hidden = np.tanh(pre) if model.activation == "tanh" else pre
    out, cols2 = _conv_same(hidden, model.w2, model.b2)
    return out[0], {"cols1": cols1, "hidden": hidden, "cols2": cols2}


def _backward_cache(model: ToyEstimator, cache, upstream: np.ndarray):
    upstream = upstream[None, :]
    d_w2, d_b2 = _conv_same_backward(cache["cols2"], model.w2, upstream)
    d_hidden = _conv_same_input_grad(model.w2, upstream)
    if model.activation == "tanh":
        d_pre = d_hidden * (1.0 - cache["hidden"] ** 2)
    else:
        d_pre = d_hidden
    # the first layer's input is data, so its input gradient is never needed
    d_w1, d_b1 = _conv_same_backward(cache["cols1"], model.w1, d_pre)
    return {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}


def _clip_input(model: ToyEstimator, clip: VideoCube) -> np.ndarray:
    trace = spatial_mean_trace(clip)
    if trace.shape[1] != model.in_channels:
        raise InvalidInputError(
            f"clip has {trace.shape[1]} channels, model expects {model.in_channels}")
    if trace.shape[0] < model.receptive_field:
        raise InsufficientDataError("clip shorter than the model's receptive field")
    return standardize_trace(trace).T


def forward(model: ToyEstimator, clip: VideoCube) -> Waveform:
    """Predict a waveform for one clip (length equals the clip length)."""
    out, _ = _forward_cache(model, _clip_input(model, clip))
    return Waveform(out, clip.fps)


def backward(model: ToyEstimator, clip: VideoCube, upstream: np.ndarray):
    """Exact parameter gradients of the forward map for a given upstream dL/dy."""
    x = _clip_input(model, clip)
    _, cache = _forward_cache(model, x)
    return _backward_cache(model, cache, np.asarray(upstream, dtype=float))


def flatten_grads(grads) -> np.ndarray:
    return np.concatenate([grads[key].ravel() for key in ("w1", "b1", "w2", "b2")])


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

    def to_dict(self):
        return {**vars(self), "loss": self.loss.to_dict()}

    @classmethod
    def from_dict(cls, payload):
        check_keys(payload, {f.name for f in fields(cls)}, "train config")
        kwargs = {k: v for k, v in payload.items() if k != "loss"}
        return cls(loss=LossSpec.from_dict(payload.get("loss", {})), **kwargs)


def _split_corpus(corpus):
    """Positives and negatives as lists of (trace, target samples or None),
    plus the frame rate all clips share."""
    positives, negatives = [], []
    fps = None
    for clip, target, is_positive in corpus:
        fps = clip.fps if fps is None else fps
        if clip.fps != fps:
            raise InvalidTrainingSetError("all corpus clips must share one frame rate")
        (positives if is_positive else negatives).append(
            (spatial_mean_trace(clip), target.samples if target is not None else None))
    return positives, negatives, fps


def _sample_loss(model, trace, target, is_positive, start, clip_len, fps, spec):
    """Loss value, upstream gradient and cache for one cropped training sample."""
    x = standardize_trace(trace[start:start + clip_len]).T
    out, cache = _forward_cache(model, x)
    pred = Waveform(out, fps)
    target_wave = None
    if is_positive:
        target_wave = Waveform(target[start:start + clip_len], fps)
    value, upstream = combined_loss(pred, target_wave, is_positive, spec)
    return value, upstream, cache


def _validation_metric(model, val_pos, val_neg, fps, cfg):
    """Positive loss on validation positives plus, when negatives are in play
    (`val_neg` non-empty), the negative loss on validation negatives.
    Deterministic (first window)."""
    total = 0.0
    for trace, target in val_pos:
        value, _, _ = _sample_loss(model, trace, target, True, 0,
                                   cfg.clip_len, fps, cfg.loss)
        total += value
    total /= len(val_pos)
    if val_neg:
        neg_total = 0.0
        for trace, _ in val_neg:
            value, _, _ = _sample_loss(model, trace, None, False, 0,
                                       cfg.clip_len, fps, cfg.loss)
            neg_total += value
        total += neg_total / len(val_neg)
    return total


def train(cfg: TrainConfig, corpus, val_corpus=None, model: ToyEstimator = None):
    """SGD with momentum on the combined loss over a labeled clip corpus.

    `corpus` and `val_corpus` are sequences of (VideoCube, Waveform | None,
    is_positive).  Clips longer than clip_len are randomly cropped each draw.
    Negatives are drawn with probability `cfg.negative_mix`, or never when
    `cfg.loss.negative_loss` is "none".
    Returns (model, loss_history); when a validation corpus is supplied the
    best-on-validation snapshot is returned instead of the final parameters.
    """
    negative_mix = 0.0 if cfg.loss.negative_loss == "none" else cfg.negative_mix
    positives, negatives, fps = _split_corpus(corpus)
    if not positives:
        raise InvalidTrainingSetError("training corpus has no positive samples")
    if negative_mix > 0 and not negatives:
        raise InvalidTrainingSetError("negative_mix > 0 but corpus has no negatives")
    if model is None:
        model = ToyEstimator.init(seed=cfg.seed)
    else:
        model = model.copy()

    val_pos = None
    if val_corpus:
        val_pos, val_neg, val_fps = _split_corpus(val_corpus)
        if not val_pos:
            raise InvalidTrainingSetError("validation corpus has no positive samples")
        if negative_mix == 0:
            val_neg = []

    rng = np.random.default_rng(cfg.seed)
    velocity = np.zeros(model.flat_params().size)
    history = []
    best_metric = np.inf
    best_params = None

    for step in range(cfg.steps):
        grad_acc = np.zeros_like(velocity)
        loss_acc = 0.0
        for _ in range(cfg.batch_size):
            take_negative = rng.random() < negative_mix
            pool = negatives if take_negative else positives
            trace, target = pool[int(rng.integers(len(pool)))]
            n_frames = trace.shape[0]
            if n_frames < cfg.clip_len:
                raise InvalidTrainingSetError(
                    f"corpus clip of {n_frames} frames shorter than clip_len={cfg.clip_len}")
            start = int(rng.integers(n_frames - cfg.clip_len + 1)) \
                if n_frames > cfg.clip_len else 0
            value, upstream, cache = _sample_loss(
                model, trace, target, not take_negative,
                start, cfg.clip_len, fps, cfg.loss)
            grad_acc += flatten_grads(_backward_cache(model, cache, upstream))
            loss_acc += value
        batch_loss = loss_acc / cfg.batch_size
        if not np.isfinite(batch_loss):
            raise NumericalDivergenceError(
                f"non-finite training loss {batch_loss} at step {step}")
        history.append(batch_loss)
        velocity = cfg.momentum * velocity + grad_acc / cfg.batch_size
        model.set_flat_params(model.flat_params() - cfg.learning_rate * velocity)

        if val_pos is not None and (step + 1) % cfg.val_every == 0:
            metric = _validation_metric(model, val_pos, val_neg, val_fps, cfg)
            if metric < best_metric:
                best_metric = metric
                best_params = model.flat_params().copy()

    if val_pos is not None:
        metric = _validation_metric(model, val_pos, val_neg, val_fps, cfg)
        if metric < best_metric:
            best_params = model.flat_params().copy()
        if best_params is not None:
            model.set_flat_params(best_params)
    return model, history


def clip_predictions(model: ToyEstimator, video: VideoCube, clip_len: int,
                     overlap: float = 0.5):
    """Run each overlapping clip of a video through the model once.

    Returns (outputs, starts): the raw clip predictions and their first
    frames.  Stitch them with `stitch_overlap_add`, raw or standardized per
    clip, and read amplitudes (per-clip std) from them directly.
    """
    n_frames = video.data.shape[0]
    if n_frames < clip_len:
        raise InsufficientDataError("video shorter than one clip")
    if not 0.0 <= overlap < 1.0:
        raise InvalidArgumentError("overlap must be in [0, 1)")
    hop = max(int(round(clip_len * (1.0 - overlap))), 1)
    starts = window_starts(n_frames, clip_len, hop)
    trace = spatial_mean_trace(video)
    outputs = []
    for start in starts:
        x = standardize_trace(trace[start:start + clip_len]).T
        out, _ = _forward_cache(model, x)
        outputs.append(out)
    return outputs, starts


def infer_video(model: ToyEstimator, video: VideoCube, clip_len: int,
                overlap: float = 0.5) -> Waveform:
    """Whole-video inference by overlap-added, per-clip standardized predictions.

    Spectral training losses are amplitude-invariant, so per-clip amplitudes
    carry no meaning here; `clip_predictions` keeps them.
    """
    outputs, starts = clip_predictions(model, video, clip_len, overlap)
    segments = [standardize_samples(out)[0] for out in outputs]
    return Waveform(stitch_overlap_add(segments, starts, video.data.shape[0]), video.fps)
