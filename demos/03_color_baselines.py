"""GREEN, CHROM and POS on synthetic scenes.

Runs the three color-transformation estimators on a clean scene and on a
scene with strong common-mode flicker, then reports windowed pulse rates.
CHROM/POS cancel the common-mode component; GREEN does not.
"""

import numpy as np

from pulsegate import (
    SceneConfig,
    Trace,
    estimate_chrom,
    estimate_green,
    estimate_pos,
    generate_positive,
    pulse_rate,
    resample_cubic,
    spatial_mean_trace,
)

ESTIMATORS = {"green": estimate_green, "chrom": estimate_chrom, "pos": estimate_pos}


def rate_of(wave):
    hi = resample_cubic(wave, 90.0)
    rates = pulse_rate(hi, window_s=10.0, stride_frames=90, nfft=5400)
    return float(np.nanmedian(rates.bpm))


def main():
    cfg = SceneConfig(duration_s=30.0, fps=30.0, dims=(16, 16), hr_trajectory=72.0,
                      pulse_amplitude=0.02, dicrotic_ratio=0.25,
                      sensor_noise_sigma=1.0, seed=8)
    cube, _ = generate_positive(cfg)
    trace = spatial_mean_trace(cube)

    print("clean synthetic scene at 72 bpm:")
    for name, estimator in ESTIMATORS.items():
        print(f"  {name:6s} median rate {rate_of(estimator(trace)):6.1f} bpm")

    # add 20% common-mode flicker at 48 bpm (in-band!)
    t = np.arange(len(trace)) / trace.fps
    flicker = 1.0 + 0.2 * np.sin(2 * np.pi * 0.8 * t)
    flickered = Trace(trace.values * flicker[:, None], trace.fps)
    print("\nsame scene with 20% common-mode flicker at 48 bpm:")
    for name, estimator in ESTIMATORS.items():
        print(f"  {name:6s} median rate {rate_of(estimator(flickered)):6.1f} bpm")
    print("\nchrominance projections reject what the green channel cannot")


if __name__ == "__main__":
    main()
