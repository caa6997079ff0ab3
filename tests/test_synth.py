import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pulsegate.errors import InvalidInputError
from pulsegate.evaluate import pulse_rate
from pulsegate.fileio import read_cube, write_cube
from pulsegate.signal_core import BLOCK_VALUES, VideoCube, psd_rows, spatial_mean_trace
from pulsegate.synth import (
    NEGATIVE_KINDS,
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


def copy_of(cube):
    """A cube to hand `make_negative`, which overwrites its input."""
    return VideoCube(cube.data.copy(), cube.fps)


def copying_negative(data, transform):
    """`make_negative` as one full-size draw into a new array: the reference."""
    rng = np.random.default_rng(transform.seed)
    if transform.kind == "shuffle":
        return data[rng.permutation(len(data))]
    frame = data[int(rng.integers(len(data)))] * 255.0
    if transform.kind == "normal":
        noise = rng.normal(0.0, transform.normal_sigma, size=data.shape)
    else:
        noise = rng.uniform(*transform.uniform_bounds, size=data.shape)
    return np.clip(noise + frame, 0.0, 255.0) / 255.0


# 1002 frames of 8 x 8 x 3 values: two whole blocks of 341 frames and a part block
MANY_BLOCKS = dict(duration_s=33.4, fps=30.0, dims=(8, 8))


class TestBlocks:
    def test_positive_noise_equals_one_full_size_draw(self):
        cfg = scene(**MANY_BLOCKS, sensor_noise_sigma=2.0)
        cube, _ = generate_positive(cfg)
        per_block = BLOCK_VALUES // cube.data[0].size
        assert len(cube.data) > 2 * per_block and len(cube.data) % per_block
        clean, _ = generate_positive(replace(cfg, sensor_noise_sigma=0.0))
        rng = np.random.default_rng(cfg.seed)
        rng.uniform(0.35, 0.65, size=cfg.dims)  # the scene's base pattern
        noise = rng.normal(0.0, 2.0, size=clean.data.shape)
        expected = np.clip(clean.data * 255.0 + noise, 0.0, 255.0) / 255.0
        np.testing.assert_array_equal(cube.data, expected)

    @pytest.mark.parametrize("kind", NEGATIVE_KINDS)
    def test_negative_equals_the_copying_reference_in_place(self, kind):
        cube, _ = generate_positive(scene(**MANY_BLOCKS, sensor_noise_sigma=2.0))
        transform = NegativeTransform(kind=kind, seed=4)
        expected = copying_negative(cube.data, transform)
        out = make_negative(cube, transform)
        assert np.shares_memory(out.data, cube.data)
        np.testing.assert_array_equal(out.data, expected)


class TestMakeNegative:
    def test_shuffle_preserves_frame_multiset(self):
        cube, _ = generate_positive(scene())
        out = make_negative(copy_of(cube), NegativeTransform(kind="shuffle", seed=7))
        orig = sorted(frame.tobytes() for frame in cube.data)
        perm = sorted(frame.tobytes() for frame in out.data)
        assert orig == perm
        assert any(not np.array_equal(a, b) for a, b in zip(cube.data, out.data))

    def test_shuffle_trace_is_permutation(self):
        cube, _ = generate_positive(scene())
        out = make_negative(copy_of(cube), NegativeTransform(kind="shuffle", seed=3))
        a = np.sort(spatial_mean_trace(cube).values[:, 1])
        b = np.sort(spatial_mean_trace(out).values[:, 1])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_normal_residual_std_near_three(self):
        cube, _ = generate_positive(scene(duration_s=20.0))
        out = make_negative(copy_of(cube), NegativeTransform(kind="normal", seed=11))
        # replay the seeded frame draw to recover the replicated base frame
        rng = np.random.default_rng(11)
        base = cube.data[int(rng.integers(cube.data.shape[0]))] * 255.0
        residual = out.data * 255.0 - base[None]
        assert residual.size >= 10_000
        assert residual.std() == pytest.approx(3.0, rel=0.05)

    def test_uniform_residuals_bounded(self):
        cube, _ = generate_positive(scene(duration_s=20.0))
        out = make_negative(copy_of(cube), NegativeTransform(kind="uniform", seed=5))
        rng = np.random.default_rng(5)
        base = cube.data[int(rng.integers(cube.data.shape[0]))] * 255.0
        residual = out.data * 255.0 - base[None]
        assert residual.min() >= -3.0 - 1e-9
        assert residual.max() <= 3.0 + 1e-9
        assert abs(residual.mean()) < 0.05

    def test_determinism(self):
        cube, _ = generate_positive(scene())
        t = NegativeTransform(kind="normal", seed=9)
        np.testing.assert_array_equal(make_negative(copy_of(cube), t).data,
                                      make_negative(copy_of(cube), t).data)

    def test_dims_and_fps_unchanged(self):
        cube, _ = generate_positive(scene())
        for kind in ("normal", "uniform", "shuffle"):
            out = make_negative(copy_of(cube), NegativeTransform(kind=kind, seed=1))
            assert out.data.shape == cube.data.shape
            assert out.fps == cube.fps


def peak_over_cube(call, cube_bytes):
    """The most memory that `call()` holds at once, as a fraction of `cube_bytes`."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / cube_bytes
    finally:
        tracemalloc.stop()


# 600 frames of 32 x 32 x 3 float64 values: 14.7 MB, about 28 blocks; the
# returned cube counts as 1, its finiteness check as 1/8
@pytest.mark.parametrize("path, bound", [("generate_positive", 1.25), ("read_cube", 1.25),
                                         ("make_negative", 0.25), ("write_cube", 0.25)])
def test_cube_paths_hold_one_full_size_array(tmp_path, path, bound):
    cfg = scene(duration_s=20.0, dims=(32, 32), sensor_noise_sigma=2.0)
    if path == "generate_positive":
        peak = peak_over_cube(lambda: generate_positive(cfg), 600 * 32 * 32 * 3 * 8)
    else:
        cube, _ = generate_positive(cfg)
        write_cube(cube, tmp_path / "cube.bin")
        call = {"read_cube": lambda: read_cube(tmp_path / "cube.bin"),
                "make_negative": lambda: make_negative(cube, NegativeTransform("normal")),
                "write_cube": lambda: write_cube(cube, tmp_path / "again.bin")}[path]
        peak = peak_over_cube(call, cube.data.nbytes)
    assert peak <= bound
