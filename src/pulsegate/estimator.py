"""A small trainable temporal pulse estimator with manual backpropagation.

The model maps the spatial-mean RGB `Trace` of a clip through two temporal
convolutions (tanh between them) with edge-replication padding, so a
temporally constant input produces a constant output with no boundary
transients.  Training steps, validation and inference each run one (B, 3, T)
stack of clips through FFT convolutions (Mathieu, Henaff & LeCun, ICLR 2014).
A linear convolution of T samples with k taps has T + k - 1 output samples,
so FFTs of that length (rounded up to a 5-smooth size) hold the forward
product, the weight gradient and the input gradient without wrap-around.
The backward pass reuses the forward pass's kernel spectrum and transforms
the upstream gradient once for both of layer 2's gradients.  Whole videos
are processed clip-by-clip and stitched with Hann-weighted overlap-add.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError, NumericalError, check_positive, parsing
from .losses import LossSpec, batch_loss
from .signal_core import (
    Trace,
    Waveform,
    check_cells,
    standardize_rows,
    stitch_overlap_add,
    window_starts,
)

PARAM_NAMES = ("w1", "b1", "w2", "b2")


@dataclass
class ToyEstimator:
    """Two temporal convolutions: R, G, B -> filters (tanh) -> 1 (linear).
    The four parameter arrays are views into one flat vector, `flat`."""

    w1: np.ndarray  # (filters, 3, kernel_len)
    b1: np.ndarray  # (filters,)
    w2: np.ndarray  # (1, filters, kernel_len)
    b2: np.ndarray  # (1,)
    activation: str = "tanh"
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        filters = np.shape(self.w1)[0]
        for name, shape in (("w1", (filters, 3, np.shape(self.w1)[-1])), ("b1", (filters,)),
                            ("w2", (1, filters, np.shape(self.w2)[-1])), ("b2", (1,))):
            if np.shape(getattr(self, name)) != shape:
                raise InvalidInputError(f"{name} has shape {np.shape(getattr(self, name))}; "
                                        f"{filters} filters need {shape}")
        if np.shape(self.w1)[2] % 2 == 0 or np.shape(self.w2)[2] % 2 == 0:
            raise InvalidInputError("kernel lengths must be odd")
        if self.activation not in ("tanh", "linear"):
            raise InvalidInputError(f"unknown activation {self.activation!r}")
        self.flat = np.concatenate([np.ravel(getattr(self, name)) for name in PARAM_NAMES],
                                   dtype=float)
        for name, view in self.split(self.flat).items():
            setattr(self, name, view)

    @classmethod
    def init(cls, filters: int = 8, kernel_len: int = 11, init_scale: float = 0.1,
             seed: int = 0, activation: str = "tanh"):
        """Random kernels and zero biases; errors name the configs' `estimator` keys."""
        if filters < 1:
            raise InvalidInputError(f"estimator.filters ({filters}) must be at least 1")
        if kernel_len < 1 or kernel_len % 2 == 0:
            raise InvalidInputError(
                f"estimator.kernel_len ({kernel_len}) must be odd and at least 1")
        check_positive(init_scale, "estimator.init_scale")
        check_cells(filters * 3.0 * kernel_len, "estimator.filters with estimator.kernel_len")
        rng = np.random.default_rng(seed)
        return cls(w1=rng.normal(0.0, init_scale, (filters, 3, kernel_len)),
                   b1=np.zeros(filters),
                   w2=rng.normal(0.0, init_scale, (1, filters, kernel_len)),
                   b2=np.zeros(1),
                   activation=activation)

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
        return {"filters": self.w1.shape[0], "in_channels": 3,
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


@lru_cache(maxsize=16)
def _fft_len(n_frames: int, kernel: int) -> int:
    """Smallest 2^a 3^b 5^c >= T + k - 1, the length of the full linear
    convolution of T samples with k taps.  None of the three products wraps
    around at that length: the edge-padded input has T + k - 1 samples, the
    forward output t and the weight gradient's lag j (t < T, j < k) read
    padded samples up to T + k - 2, and the input gradient is the full
    convolution of the T-sample upstream with the kernel.  Cached: a training
    run asks for one or two shapes thousands of times."""
    need = n_frames + kernel - 1
    odd = [3 ** b * 5 ** c for b in range(need.bit_length()) for c in range(need.bit_length())]
    return min(m << (-(-need // m) - 1).bit_length() for m in odd)


def _fft_conv(x: np.ndarray, weights: np.ndarray, bias: np.ndarray):
    """Temporal convolution with edge padding of a (B, C, T) stack: (B, F, T).

    y[b, f, t] = bias[f] + sum over c, j of weights[f, c, j] * x_pad[b, c, t + j],
    a cross-correlation taken as conj(W) * X in the frequency domain.  Also
    returns the padded input's spectrum X and the kernels' spectrum W, which
    the gradients reuse.
    """
    n_frames, kernel = x.shape[-1], weights.shape[-1]
    pad = kernel // 2
    n = _fft_len(n_frames, kernel)
    padded = np.concatenate([np.repeat(x[..., :1], pad, axis=-1), x,
                             np.repeat(x[..., -1:], pad, axis=-1)], axis=-1)
    spectrum = np.fft.rfft(padded, n)
    kernels = np.fft.rfft(weights, n)
    products = np.einsum("bcn,fcn->bfn", spectrum, kernels.conj())
    return np.fft.irfft(products, n)[..., :n_frames] + bias[:, None], spectrum, kernels


def _fft_conv_weight_grad(spectrum: np.ndarray, upstream_spectrum: np.ndarray,
                          n: int, kernel: int) -> np.ndarray:
    """d_weights of `_fft_conv`, summed over the batch, from its padded-input
    spectrum and the (B, F, T) upstream gradient's spectrum, both of length-n
    transforms: their cross-correlation at lags 0..k-1."""
    products = np.einsum("bfn,bcn->fcn", upstream_spectrum.conj(), spectrum)
    return np.fft.irfft(products, n)[..., :kernel]


def _fft_conv_input_grad(weights: np.ndarray, upstream: np.ndarray, spectra=None) -> np.ndarray:
    """Gradient of `_fft_conv` with respect to its (B, C, T) input.  `spectra`,
    when given, holds the upstream's and the kernels' spectra at `_fft_len`,
    which a caller that has them passes instead of transforming again."""
    n_frames, kernel = upstream.shape[-1], weights.shape[-1]
    pad = kernel // 2
    n = _fft_len(n_frames, kernel)
    upstream_spectrum, kernels = spectra or (np.fft.rfft(upstream, n), np.fft.rfft(weights, n))
    # full convolution of upstream with each kernel: (B, C, T + 2 * pad)
    products = np.einsum("bfn,fcn->bcn", upstream_spectrum, kernels)
    d_padded = np.fft.irfft(products, n)[..., :n_frames + 2 * pad]
    # adjoint of edge padding: fold the replicated borders onto the end samples
    d_x = d_padded[..., pad:pad + n_frames].copy()
    d_x[..., 0] += d_padded[..., :pad].sum(axis=-1)
    d_x[..., -1] += d_padded[..., pad + n_frames:].sum(axis=-1)
    return d_x


def _forward(model: ToyEstimator, x: np.ndarray):
    """Forward pass on a standardized (B, 3, T) stack: (B, T) outputs and the
    intermediates `_backward` reads."""
    pre, spectrum1, _ = _fft_conv(x, model.w1, model.b1)
    hidden = np.tanh(pre) if model.activation == "tanh" else pre
    out, spectrum2, kernels2 = _fft_conv(hidden, model.w2, model.b2)
    return out[:, 0], (spectrum1, hidden, spectrum2, kernels2)


def _backward(model: ToyEstimator, cache, upstream: np.ndarray) -> np.ndarray:
    """Flat parameter gradient, summed over the batch, for a (B, T) upstream dL/dy."""
    spectrum1, hidden, spectrum2, kernels2 = cache
    upstream = upstream[:, None, :]
    n_frames, k1, k2 = upstream.shape[-1], model.w1.shape[2], model.w2.shape[2]
    n1, n2 = _fft_len(n_frames, k1), _fft_len(n_frames, k2)
    # layer 2's weight and input gradients share the upstream's spectrum
    upstream_spectrum = np.fft.rfft(upstream, n2)
    d_w2 = _fft_conv_weight_grad(spectrum2, upstream_spectrum, n2, k2)
    d_hidden = _fft_conv_input_grad(model.w2, upstream, (upstream_spectrum, kernels2))
    d_pre = d_hidden * (1.0 - hidden ** 2) if model.activation == "tanh" else d_hidden
    # the first layer's input is data, so its input gradient is never needed
    d_w1 = _fft_conv_weight_grad(spectrum1, np.fft.rfft(d_pre, n1), n1, k1)
    return np.concatenate([d_w1.ravel(), d_pre.sum(axis=(0, 2)), d_w2.ravel(),
                           upstream.sum(axis=(0, 2))])


def _crops(traces, starts, clip_len: int) -> np.ndarray:
    """Standardized (B, 3, clip_len) stack of crops of (3, T) traces."""
    return standardize_rows(np.stack([trace[:, start:start + clip_len]
                                      for trace, start in zip(traces, starts)]))


def backward(model: ToyEstimator, clip: Trace, upstream: np.ndarray):
    """Exact parameter gradients of the forward map for a given upstream dL/dy,
    keyed like the parameters.  `upstream` holds one finite value per clip frame."""
    with parsing("upstream"):
        upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != (len(clip),):
        raise InvalidInputError(f"upstream has shape {upstream.shape}; "
                                f"the clip has {len(clip)} frames")
    if not np.all(np.isfinite(upstream)):
        raise InvalidInputError("upstream values must be finite")
    _, cache = _forward(model, standardize_rows(clip.values.T)[None])
    return model.split(_backward(model, cache, upstream[None]))


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
            raise InvalidInputError("negative_mix must be in [0, 1]")
        for name in ("clip_len", "batch_size", "steps", "val_every"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"train.{name} ({getattr(self, name)}) must be at least 1")
        check_positive(self.learning_rate, "train.learning_rate")
        if not 0.0 <= self.momentum < 1.0:  # NaN fails too
            raise InvalidInputError(f"train.momentum ({self.momentum:g}) must be in [0, 1)")


def _split_corpus(corpus, clip_len: int):
    """Positives and negatives as lists of ((3, T) trace values, target samples
    or None), plus the frame rate all clips share."""
    positives, negatives = [], []
    fps = None
    for clip, target in corpus:
        fps = clip.fps if fps is None else fps
        if clip.fps != fps:
            raise InvalidInputError("all corpus clips must share one frame rate")
        n_frames = len(clip)
        if n_frames < clip_len:
            raise InvalidInputError(
                f"corpus clip of {n_frames} frames shorter than clip_len={clip_len}")
        if target is not None and len(target) != n_frames:
            raise InvalidInputError(
                "positive corpus clips need a target waveform of their own length")
        # not an exact test: a CSV target's fps comes from its rounded times
        if target is not None and abs(target.fps - fps) * n_frames / fps >= 0.5:
            raise InvalidInputError(f"a target at {target.fps:g} fps drifts half a frame or "
                                    f"more from its clip at {fps:g} fps")
        trace = np.ascontiguousarray(clip.values.T)
        (negatives if target is None else positives).append(
            (trace, None if target is None else target.samples))
    return positives, negatives, fps


def _score(model, samples, starts, clip_len, fps, spec):
    """One batched forward pass over crops of (trace, target or None) samples.

    Returns the per-row loss values, the (B, T) upstream gradients and the
    cache `_backward` reads.  A row with a target is a positive.
    """
    out, cache = _forward(model, _crops([trace for trace, _ in samples], starts, clip_len))
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite estimator output")
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


# a diverging step overflows quietly: `train` stops on its non-finite loss itself
@np.errstate(over="ignore", invalid="ignore")
def train(cfg: TrainConfig, corpus, val_corpus=None, model: ToyEstimator = None):
    """SGD with momentum on the combined loss over a labeled clip corpus.

    `corpus` and `val_corpus` are sequences of (Trace, Waveform | None)
    pairs: a clip with a target waveform is a positive, one with None a
    negative.  Clips longer than clip_len are randomly cropped each draw.
    Negatives are drawn with probability `cfg.negative_mix`, or never when
    `cfg.loss.negative_loss` is "none".

    Returns (model, loss_history, validation).  With a validation corpus the
    metric is taken every `cfg.val_every` steps and after the last step, the
    best-on-validation snapshot is returned instead of the final parameters,
    and `validation` is {"steps", "metric", "checkpoint_step"}: the curve and
    the step of the returned parameters.  Without one, `validation` is None.
    """
    negative_mix = 0.0 if cfg.loss.negative_loss == "none" else cfg.negative_mix
    model = ToyEstimator.init(seed=cfg.seed) if model is None else model.copy()
    positives, negatives, fps = _split_corpus(corpus, cfg.clip_len)
    if not positives:
        raise InvalidInputError("training corpus has no positive samples")
    if negative_mix > 0 and not negatives:
        raise InvalidInputError("negative_mix > 0 but corpus has no negatives")

    validation = None
    if val_corpus:
        val_pos, val_neg, val_fps = _split_corpus(val_corpus, cfg.clip_len)
        if not val_pos:
            raise InvalidInputError("validation corpus has no positive samples")
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
            raise NumericalError(f"non-finite training loss {batch_loss_value} at step {step}")
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


def clip_predictions(model: ToyEstimator, video: Trace, clip_len: int,
                     overlap: float = 0.5):
    """Run each overlapping clip of a video through the model, as one batch.

    Returns (outputs, starts): the raw (n_clips, clip_len) clip predictions
    and their first frames.  Stitch them raw with `stitch_overlap_add` or
    with `standardized_stitch`, and read amplitudes (per-clip std) from them
    directly.
    """
    n_frames = len(video)
    if clip_len < 1:
        raise InvalidInputError(f"clip_len ({clip_len}) must be at least 1")
    if n_frames < clip_len:
        raise InvalidInputError("video shorter than one clip")
    if not 0.0 <= overlap < 1.0:
        raise InvalidInputError("overlap must be in [0, 1)")
    hop = max(int(round(clip_len * (1.0 - overlap))), 1)
    starts = window_starts(n_frames, clip_len, hop)
    outputs, _ = _forward(model, _crops([video.values.T] * len(starts), starts, clip_len))
    return outputs, starts


def infer_video(model: ToyEstimator, video: Trace, clip_len: int,
                overlap: float = 0.5) -> Waveform:
    """Whole-video inference: the `standardized_stitch` of the video's clip predictions."""
    outputs, starts = clip_predictions(model, video, clip_len, overlap)
    return standardized_stitch(outputs, starts, len(video), video.fps)


def standardized_stitch(outputs: np.ndarray, starts, n_frames: int, fps: float) -> Waveform:
    """`clip_predictions` outputs, each standardized, overlap-added over `n_frames`:
    the waveform that pulse rates are read from.  Spectral training losses are
    amplitude-invariant, so per-clip amplitudes carry no meaning here."""
    return Waveform(stitch_overlap_add(standardize_rows(outputs), starts, n_frames), fps)
