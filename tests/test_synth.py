import re

import numpy as np
import pytest

from pulsegate.errors import InvalidInputError
from pulsegate.evaluate import pulse_rate
from pulsegate.signal_core import psd_rows, spatial_mean_trace
from pulsegate.synth import (
    NegativeTransform,
    SceneConfig,
    generate_positive,
    make_negative,
)


def scene(**kwargs):
    defaults = dict(duration_s=10.0, fps=30.0, dims=(8, 8), hr_trajectory=90.0,
                    pulse_amplitude=0.02, seed=42)
    defaults.update(kwargs)
    return SceneConfig(**defaults)


class TestGeneratePositive:
    def test_truth_psd_peaks_at_configured_rate(self):
        cube, truth = generate_positive(scene(hr_trajectory=90.0))
        # 30 fps and nfft 5400: bin k sits at k / 3 bpm
        power, _ = psd_rows(truth.samples, truth.fps, 5400)
        assert np.argmax(power) / 3.0 == pytest.approx(90.0, abs=1.0)

    def test_zero_amplitude_is_degenerate(self):
        cube, truth = generate_positive(scene(pulse_amplitude=0.0))
        np.testing.assert_array_equal(truth.samples, 0.0)
        # static scene apart from (absent) noise
        assert np.ptp(cube.data, axis=0).max() == 0.0

    def test_hr_ramp_tracked_by_windowed_rates(self):
        # oracle: instantaneous frequency from the phase integral
        cfg = scene(duration_s=60.0, fps=30.0,
                    hr_trajectory=[(0.0, 60.0), (60.0, 120.0)])
        _, truth = generate_positive(cfg)
        rates = pulse_rate(truth, window_s=10.0, stride_frames=30, nfft=5400)
        expected = cfg.hr_at(rates.times_s)
        assert np.abs(rates.bpm - expected).max() <= 2.0

    def test_determinism(self):
        a, _ = generate_positive(scene(sensor_noise_sigma=2.0))
        b, _ = generate_positive(scene(sensor_noise_sigma=2.0))
        np.testing.assert_array_equal(a.data, b.data)

    def test_green_trace_correlates_with_truth(self):
        cube, truth = generate_positive(scene(sensor_noise_sigma=0.0))
        green = spatial_mean_trace(cube).values[:, 1]
        r = np.corrcoef(green, truth.samples)[0, 1]
        assert r > 0.95

    def test_hr_outside_band_rejected(self):
        with pytest.raises(InvalidInputError, match="hr trajectory"):
            scene(hr_trajectory=30.0)

    @pytest.mark.parametrize("dims", [(8,), (8, 8, 8), (0, 8), (8.0, 8)])
    def test_dims_not_two_positive_integers_rejected(self, dims):
        with pytest.raises(InvalidInputError, match="dims"):
            scene(dims=dims)

    @pytest.mark.parametrize("duration_s, fps, dims", [
        (24.0, 1e300, (16, 16)), (1.0, 1e15, (64, 64)), (float("inf"), 30.0, (8, 8))])
    def test_unindexable_scene_rejected(self, duration_s, fps, dims):
        with pytest.raises(InvalidInputError, match=re.escape(
                f"duration_s ({duration_s:g}) at fps ({fps:g}) makes")):
            scene(duration_s=duration_s, fps=fps, dims=dims)

    def test_largest_indexable_scenes_accepted(self):
        # 1e15 frames of 32 x 32 x 3 values is under 2**63; nothing is allocated
        scene(duration_s=1.0, fps=1e15, dims=(32, 32))

    def test_negative_sensor_noise_rejected(self):
        with pytest.raises(InvalidInputError, match=r"sensor_noise_sigma \(-1\)"):
            scene(sensor_noise_sigma=-1.0)


class TestMakeNegative:
    def test_shuffle_preserves_frame_multiset(self):
        cube, _ = generate_positive(scene())
        out = make_negative(cube, NegativeTransform(kind="shuffle", seed=7))
        orig = sorted(frame.tobytes() for frame in cube.data)
        perm = sorted(frame.tobytes() for frame in out.data)
        assert orig == perm
        assert any(not np.array_equal(a, b) for a, b in zip(cube.data, out.data))

    def test_shuffle_trace_is_permutation(self):
        cube, _ = generate_positive(scene())
        out = make_negative(cube, NegativeTransform(kind="shuffle", seed=3))
        a = np.sort(spatial_mean_trace(cube).values[:, 1])
        b = np.sort(spatial_mean_trace(out).values[:, 1])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_normal_residual_std_near_three(self):
        cube, _ = generate_positive(scene(duration_s=20.0))
        out = make_negative(cube, NegativeTransform(kind="normal", seed=11))
        # replay the seeded frame draw to recover the replicated base frame
        rng = np.random.default_rng(11)
        base = cube.data[int(rng.integers(cube.data.shape[0]))] * 255.0
        residual = out.data * 255.0 - base[None]
        assert residual.size >= 10_000
        assert residual.std() == pytest.approx(3.0, rel=0.05)

    def test_uniform_residuals_bounded(self):
        cube, _ = generate_positive(scene(duration_s=20.0))
        out = make_negative(cube, NegativeTransform(kind="uniform", seed=5))
        rng = np.random.default_rng(5)
        base = cube.data[int(rng.integers(cube.data.shape[0]))] * 255.0
        residual = out.data * 255.0 - base[None]
        assert residual.min() >= -3.0 - 1e-9
        assert residual.max() <= 3.0 + 1e-9
        assert abs(residual.mean()) < 0.05

    def test_determinism(self):
        cube, _ = generate_positive(scene())
        t = NegativeTransform(kind="normal", seed=9)
        np.testing.assert_array_equal(make_negative(cube, t).data,
                                      make_negative(cube, t).data)

    def test_dims_and_fps_unchanged(self):
        cube, _ = generate_positive(scene())
        for kind in ("normal", "uniform", "shuffle"):
            out = make_negative(cube, NegativeTransform(kind=kind, seed=1))
            assert out.data.shape == cube.data.shape
            assert out.fps == cube.fps
