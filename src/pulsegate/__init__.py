"""pulsegate: anomaly-aware remote pulse estimation at desk scale.

Signal types and transforms, synthetic pulsatile scenes with pulseless
negative transforms, color-baseline and trainable waveform estimators,
spectral training losses with analytic gradients, AMPD-based waveform
features, one/two-class RBF SVMs, and pulse-rate evaluation.
"""

from .baselines import estimate_chrom, estimate_green, estimate_pos
from .classify import (
    ANOMALOUS,
    LIVE,
    SvmModel,
    decision_values,
    fit_one_class,
    fit_two_class,
    frame_accuracy,
    predict,
)
from .errors import PulsegateError
from .estimator import (
    ToyEstimator,
    TrainConfig,
    backward,
    clip_predictions,
    forward,
    infer_video,
    train,
)
from .evaluate import ErrorReport, RateSeries, error_metrics, pulse_rate
from .features import PulseFeatureVector, ampd_peaks, extract_features, feature_matrix, snr_db
from .losses import (
    LossSpec,
    combined_loss,
    loss_mse_flatline,
    loss_neg_pearson,
    loss_spectral_entropy,
    loss_spectral_flatness,
    loss_std,
)
from .signal_core import (
    Trace,
    VideoCube,
    Waveform,
    hilbert_envelope,
    psd_normalized,
    resample_cubic,
    spatial_mean_trace,
    standardize,
)
from .synth import NegativeTransform, SceneConfig, generate_positive, make_negative

__version__ = "0.1.0"

__all__ = [
    "ANOMALOUS", "ErrorReport", "LIVE", "LossSpec", "NegativeTransform",
    "PulseFeatureVector", "PulsegateError", "RateSeries", "SceneConfig",
    "SvmModel", "ToyEstimator", "Trace", "TrainConfig", "VideoCube",
    "Waveform", "ampd_peaks", "backward", "clip_predictions", "combined_loss",
    "decision_values", "error_metrics", "estimate_chrom", "estimate_green",
    "estimate_pos", "extract_features", "feature_matrix", "fit_one_class",
    "fit_two_class", "forward", "frame_accuracy", "generate_positive",
    "hilbert_envelope", "infer_video", "loss_mse_flatline", "loss_neg_pearson",
    "loss_spectral_entropy", "loss_spectral_flatness", "loss_std",
    "make_negative", "predict", "psd_normalized", "pulse_rate",
    "resample_cubic", "snr_db", "spatial_mean_trace", "standardize", "train",
]
