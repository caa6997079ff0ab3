"""Waveform features and one/two-class liveness SVMs.

Extracts the feature table (per window: SNR, amplitude, Hilbert envelope,
AMPD inter-beat statistics) from CHROM waveforms of live and pulseless
scenes, then fits the two classifier kinds and scores held-out videos.
"""

import numpy as np

from pulsegate import (
    ANOMALOUS,
    LIVE,
    NegativeTransform,
    SceneConfig,
    estimate_chrom,
    extract_features,
    fit_one_class,
    fit_two_class,
    generate_positive,
    make_negative,
    predict,
    spatial_mean_trace,
)
from pulsegate.features import FEATURE_NAMES


def chrom_features(cube):
    wave = estimate_chrom(spatial_mean_trace(cube))
    return extract_features(wave, window_s=10.0, stride_s=2.0, nfft=5400).matrix


def scene(seed, noise=2.0):
    return generate_positive(SceneConfig(
        duration_s=30.0, fps=30.0, dims=(12, 12),
        hr_trajectory=[(0.0, 68.0 + seed % 7), (30.0, 72.0 + seed % 5)],
        pulse_amplitude=0.02, dicrotic_ratio=0.25,
        sensor_noise_sigma=noise, seed=seed))[0]


def main():
    kinds = ("normal", "uniform", "shuffle")
    live_train = [scene(i) for i in range(8)]
    anom_train = [make_negative(scene(20 + i), NegativeTransform(kind=kinds[i % 3],
                                                                 seed=i))
                  for i in range(8)]
    live_test = [scene(40 + i) for i in range(4)]
    anom_test = [make_negative(scene(60 + i), NegativeTransform(kind=kinds[i % 3],
                                                                seed=90 + i))
                 for i in range(4)]

    x_live = np.vstack([chrom_features(c) for c in live_train])
    x_anom = np.vstack([chrom_features(c) for c in anom_train])
    print("median features from CHROM waveforms (live vs pulseless):")
    for i, name in enumerate(FEATURE_NAMES):
        print(f"  {name:9s} {np.median(x_live[:, i]):9.4f} {np.median(x_anom[:, i]):9.4f}")

    two = fit_two_class(np.vstack([x_live, x_anom]),
                        np.hstack([np.full(len(x_live), LIVE),
                                   np.full(len(x_anom), ANOMALOUS)]))
    one = fit_one_class(x_live, nu=0.5)

    live_rows = [chrom_features(c) for c in live_test]
    anom_rows = [chrom_features(c) for c in anom_test]
    xt = np.vstack(live_rows + anom_rows)
    yt = np.hstack([np.full(sum(map(len, live_rows)), LIVE),
                    np.full(sum(map(len, anom_rows)), ANOMALOUS)])

    for name, model in [("two-class", two), ("one-class", one)]:
        labels, _ = predict(model, xt)
        print(f"{name} held-out window accuracy: {(labels == yt).mean():.3f}")


if __name__ == "__main__":
    main()
