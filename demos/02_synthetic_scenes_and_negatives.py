"""Synthetic pulsatile scenes and the three pulseless transforms.

Renders a small scene, applies NORMAL / UNIFORM / SHUFFLE, and compares
the spatial-mean green traces: the pulse peak disappears from all three
negatives while the spatial content stays untouched.
"""

import numpy as np

from pulsegate import (
    NegativeTransform,
    SceneConfig,
    generate_positive,
    make_negative,
    spatial_mean_trace,
)
from pulsegate.signal_core import psd_rows


def trace_summary(name, cube):
    green = spatial_mean_trace(cube).values[:, 1]
    power, _ = psd_rows(green, cube.fps, 5400)
    peak = np.argmax(power)
    print(f"{name:10s} trace std {green.std() * 255:6.3f} (8-bit)   "
          f"peak {peak * (cube.fps * 60.0 / 5400):6.1f} bpm carries {100 * power[peak]:5.1f}% "
          f"of in-band power")


def main():
    cfg = SceneConfig(duration_s=20.0, fps=30.0, dims=(16, 16),
                      hr_trajectory=[(0.0, 70.0), (20.0, 76.0)],
                      pulse_amplitude=0.02, dicrotic_ratio=0.3,
                      sensor_noise_sigma=1.0, seed=3)
    cube, truth = generate_positive(cfg)
    print(f"scene: {cube.data.shape[0]} frames of {cfg.dims[0]}x{cfg.dims[1]} "
          f"at {cfg.fps:g} fps, pulse 70->76 bpm\n")

    trace_summary("positive", cube)
    for kind in ("normal", "uniform", "shuffle"):
        negative = make_negative(cube, NegativeTransform(kind=kind, seed=11))
        trace_summary(kind, negative)

    print("\nnegatives keep the scene's appearance: per-frame means differ from")
    shuffled = make_negative(cube, NegativeTransform(kind="shuffle", seed=11))
    print(f"the positive by at most "
          f"{np.abs(np.sort(cube.data.mean((1, 2, 3))) - np.sort(shuffled.data.mean((1, 2, 3)))).max():.2e} "
          f"after sorting (SHUFFLE is a pure permutation)")


if __name__ == "__main__":
    main()
