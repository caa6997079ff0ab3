"""Hallucinated heartbeats at desk scale.

Trains the toy estimator twice on the same corpus: once with positives
only, once with the spectral-flatness penalty on constructed negatives.
Both are then shown pulseless inputs.  The positives-only model keeps
predicting narrowband, pulse-like waveforms; the anomaly-aware model
spreads its prediction across the band, making the failure visible.

Takes a couple of minutes (two small training runs).
"""

import numpy as np

from pulsegate import (
    LossSpec,
    NegativeTransform,
    SceneConfig,
    ToyEstimator,
    TrainConfig,
    Waveform,
    clip_predictions,
    extract_features,
    generate_positive,
    make_negative,
    spatial_mean_trace,
    train,
)
from pulsegate.features import FEATURE_NAMES
from pulsegate.signal_core import stitch_overlap_add

FPS, DIMS, NFFT, CLIP = 20.0, (12, 12), 5400, 200


def scene(seed, duration, noise):
    rng = np.random.default_rng(seed)
    center = float(rng.uniform(73.0, 77.0))
    knots = np.arange(0.0, duration + 2.0, 2.0)
    walk = np.cumsum(rng.normal(0.0, 4.0, knots.size))
    walk = np.clip(center + walk - walk.mean(), center - 8.0, center + 8.0)
    return generate_positive(SceneConfig(
        duration_s=duration, fps=FPS, dims=DIMS,
        hr_trajectory=list(zip(knots, walk)), pulse_amplitude=0.015,
        dicrotic_ratio=0.25, sensor_noise_sigma=noise, seed=seed))


def median_snr(model, traces):
    values = []
    for trace in traces:
        # raw clip amplitudes: a flatline must stay a flatline for the SNR
        outputs, starts = clip_predictions(model, trace, CLIP, overlap=0.5)
        wave = Waveform(stitch_overlap_add(outputs, starts, len(trace)), trace.fps)
        table = extract_features(wave, 10.0, 2.0, NFFT)
        values += list(table.matrix[:, FEATURE_NAMES.index("snr_db")])
    return float(np.median(values))


def main():
    print("building corpus (12 positive scenes + 12 constructed negatives)...")
    train_pos = [scene(100 + i, 20.0, 32.0) for i in range(12)]
    kinds = ("normal", "uniform", "shuffle")
    train_neg = [make_negative(cube, NegativeTransform(kind=kinds[i % 3], seed=i))
                 for i, (cube, _) in enumerate(train_pos)]
    # the estimator reads each video's per-frame spatial mean; a sample with a
    # target waveform is a positive, one with None a negative
    corpus = [(spatial_mean_trace(c), gt) for c, gt in train_pos] + \
             [(spatial_mean_trace(c), None) for c in train_neg]

    test_pos = [spatial_mean_trace(scene(300 + i, 30.0, 6.0)[0]) for i in range(4)]
    test_neg = [spatial_mean_trace(make_negative(scene(400 + i, 30.0, 6.0)[0],
                                                 NegativeTransform(kind=kinds[i % 3],
                                                                   seed=50 + i)))
                for i in range(6)]

    for label, negative_loss, mix in [("positives-only", "none", 0.0),
                                      ("flatness-aware", "spectral_flatness", 0.5)]:
        print(f"\ntraining {label} model (1500 steps)...")
        cfg = TrainConfig(clip_len=CLIP, batch_size=8, steps=1500,
                          learning_rate=0.01, momentum=0.9, seed=42,
                          loss=LossSpec(negative_loss=negative_loss, nfft=NFFT),
                          negative_mix=mix)
        model, history, _ = train(cfg, corpus,
                                  model=ToyEstimator.init(filters=8, kernel_len=91,
                                                          seed=42))
        print(f"  batch loss {np.mean(history[:50]):.3f} -> {np.mean(history[-50:]):.3f}")
        pos = median_snr(model, test_pos)
        neg = median_snr(model, test_neg)
        print(f"  median in-band SNR: positives {pos:+6.2f} dB, "
              f"pulseless inputs {neg:+6.2f} dB (gap {pos - neg:.2f} dB)")

    print("\nthe positives-only model 'hallucinates' narrowband pulses on noise;")
    print("the flatness penalty pushes those predictions toward white spectra")


if __name__ == "__main__":
    main()
