import numpy as np
import pytest

from pulsegate import signal_core
from pulsegate.errors import InvalidInputError
from pulsegate.signal_core import (
    MAX_CELLS,
    Trace,
    VideoCube,
    Waveform,
    bandpass_brickwall,
    check_cells,
    hilbert_envelope_rows,
    one_sided_spectrum,
    power_spectrum,
    psd_rows,
    resample_cubic,
    spatial_mean_trace,
    standardize,
)


def sine_wave(freq_hz, fps, duration_s, amplitude=1.0, phase=0.0):
    t = np.arange(int(round(duration_s * fps))) / fps
    return Waveform(amplitude * np.sin(2 * np.pi * freq_hz * t + phase), fps)


class TestTypes:
    def test_waveform_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            Waveform(np.array([1.0]), 30.0)
        with pytest.raises(InvalidInputError):
            Waveform(np.array([1.0, np.nan]), 30.0)
        with pytest.raises(InvalidInputError):
            Waveform(np.array([1.0, 2.0]), 0.0)

    def test_cube_rejects_bad_shapes(self):
        with pytest.raises(InvalidInputError):
            VideoCube(np.zeros((1, 4, 4, 3)), 30.0)
        with pytest.raises(InvalidInputError):
            VideoCube(np.zeros((4, 4, 4, 2)), 30.0)
        with pytest.raises(InvalidInputError, match=r"\(T, H, W, 3\) RGB array .* \(4, 4, 4, 1\)"):
            VideoCube(np.zeros((4, 4, 4, 1)), 30.0)
        with pytest.raises(InvalidInputError):
            VideoCube(np.full((4, 4, 4, 3), np.inf), 30.0)

    @pytest.mark.parametrize("shape", [(10,), (10, 1, 1), (1, 3), (0, 3), (10, 0), (10, 1),
                                       (10, 2), (10, 4)], ids=str)
    def test_trace_rejects_bad_shapes(self, shape):
        with pytest.raises(InvalidInputError, match="trace must be a"):
            Trace(np.zeros(shape), 30.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_trace_rejects_non_finite_values(self, value):
        values = np.full((10, 3), 0.5)
        values[4, 1] = value
        with pytest.raises(InvalidInputError, match="trace values must be finite"):
            Trace(values, 30.0)

    @pytest.mark.parametrize("fps", [0.0, -30.0, np.nan, np.inf])
    def test_trace_rejects_bad_fps(self, fps):
        with pytest.raises(InvalidInputError, match="must be positive and finite"):
            Trace(np.full((10, 3), 0.5), fps)

    def test_trace_accepts_three_channels(self):
        trace = Trace(np.arange(6).reshape(2, 3), 30)
        assert len(trace) == 2
        assert trace.values.dtype == float and trace.fps == 30.0


class TestPsdNormalized:
    def test_sine_90bpm_dominant_bin(self):
        # 90 fps and nfft 5400: bin k sits at k bpm
        w = sine_wave(1.5, 90.0, 10.0)
        power, _ = psd_rows(w.samples[None], w.fps, 5400)
        assert np.argmax(power[0]) == 90

    def test_unit_sum_and_band_mask(self):
        rng = np.random.default_rng(3)
        psd = psd_rows(rng.standard_normal((5, 600)), 60.0, 1024)
        np.testing.assert_allclose(psd.power.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        assert np.all(psd.power[:, ~psd.in_band] == 0.0)

    def test_constant_signal_degenerate(self):
        psd = psd_rows(np.full((1, 100), 3.3), 30.0, 256)
        assert np.all(psd.power == 0.0)

    def test_two_tone_equal_split(self):
        # closed form: with whole cycles on the bin grid the DFT of a two-tone
        # signal puts exactly half the power in each tone's bin
        fps, dur = 90.0, 60.0
        t = np.arange(int(fps * dur)) / fps
        x = np.sin(2 * np.pi * 1.0 * t) + np.sin(2 * np.pi * 2.0 * t)
        power = psd_rows(x[None], fps, 5400).power[0]
        freqs = np.arange(power.size) * (fps * 60.0 / 5400)
        near_60 = np.abs(freqs - 60.0) <= 3.0
        near_120 = np.abs(freqs - 120.0) <= 3.0
        assert power[near_60].sum() == pytest.approx(0.5, abs=0.01)
        assert power[near_120].sum() == pytest.approx(0.5, abs=0.01)

    def test_parseval_identity(self):
        rng = np.random.default_rng(11)
        for nfft in (256, 999, 5400):
            x = rng.standard_normal(200)
            power = power_spectrum(x, nfft)
            centered = x - x.mean()
            lhs = np.sum(centered ** 2)
            rhs = power.sum() / nfft
            assert rhs == pytest.approx(lhs, rel=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(300)
        a, b = psd_rows(np.stack([x, 7.25 * x]), 30.0, 512).power
        assert np.argmax(a) == np.argmax(b)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_nfft_too_short_rejected(self):
        with pytest.raises(InvalidInputError, match="shorter than signal"):
            psd_rows(sine_wave(1.0, 30.0, 10.0).samples[None], 30.0, 100)


class TestHilbertEnvelope:
    def test_sine_envelope_is_amplitude(self):
        w = sine_wave(2.0, 90.0, 5.0, amplitude=2.0)
        env = hilbert_envelope_rows(w.samples)
        edge = int(0.05 * len(env))
        interior = env[edge:-edge]
        assert np.all(np.abs(interior - 2.0) < 0.04)

    def test_zero_signal(self):
        np.testing.assert_array_equal(hilbert_envelope_rows(np.zeros((2, 64))), 0.0)

    def test_am_modulated_sine_tracks_modulator(self):
        fps, dur = 100.0, 20.0
        t = np.arange(int(fps * dur)) / fps
        modulator = 1.0 + 0.5 * np.cos(2 * np.pi * 0.2 * t)
        x = modulator * np.sin(2 * np.pi * 8.0 * t)
        env = hilbert_envelope_rows(x)
        edge = int(0.1 * len(env))
        rel = np.abs(env[edge:-edge] - modulator[edge:-edge]) / modulator[edge:-edge]
        assert rel.max() < 0.03

    def test_envelope_dominates_signal(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(256)
        env = hilbert_envelope_rows(x)
        edge = int(0.05 * len(x))
        assert np.all(env[edge:-edge] >= np.abs(x[edge:-edge]) - 1e-9)


class TestResampleCubic:
    def test_sine_upsample_matches_analytic(self):
        # oracle: analytic sine; interior error grows ~f^4, values frozen from
        # the oracle itself (4 Hz at 30 fps sits just above 1e-3)
        for freq, bound in [(1.0, 1e-4), (2.0, 1e-4), (3.0, 5e-4), (4.0, 1.5e-3)]:
            fps, dur = 30.0, 10.0
            t = np.arange(int(dur * fps) + 1) / fps
            w = Waveform(np.sin(2 * np.pi * freq * t + 0.3), fps)
            res = resample_cubic(w, 90.0)
            expect = np.sin(2 * np.pi * freq * res.times + 0.3)
            edge = int(0.05 * len(res))
            assert np.abs(res.samples[edge:-edge] - expect[edge:-edge]).max() < bound

    def test_identity_when_fps_matches(self):
        w = sine_wave(1.0, 30.0, 4.0)
        res = resample_cubic(w, 30.0)
        np.testing.assert_array_equal(res.samples, w.samples)

    def test_linear_ramp_stays_linear(self):
        fps = 20.0
        t = np.arange(80) / fps
        w = Waveform(3.0 * t - 1.0, fps)
        res = resample_cubic(w, 50.0)
        np.testing.assert_allclose(res.samples, 3.0 * res.times - 1.0, atol=1e-9)

    def test_round_trip_reproduces_interior(self):
        fps = 30.0
        t = np.arange(300) / fps
        x = np.sin(2 * np.pi * 3.0 * t) + 0.5 * np.sin(2 * np.pi * 6.0 * t)
        up = resample_cubic(Waveform(x, fps), 90.0)
        back = resample_cubic(up, fps)
        n = min(len(back), len(t))
        edge = int(0.05 * n)
        assert np.abs(back.samples[edge:n - edge] - x[edge:n - edge]).max() < 1e-3

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError, match="at least 4 samples"):
            resample_cubic(Waveform(np.array([0.0, 1.0, 2.0]), 10.0), 20.0)


class TestCellBudget:
    @pytest.mark.parametrize("cells", [0, 1, MAX_CELLS, float(MAX_CELLS)])
    def test_within_budget_accepted(self, cells):
        check_cells(cells, "x")

    @pytest.mark.parametrize("cells", [MAX_CELLS + 1, 1e300, np.inf, np.nan])
    def test_over_budget_rejected(self, cells):
        with pytest.raises(InvalidInputError, match=f"^size=3 asks .* over the {MAX_CELLS}"):
            check_cells(cells, "size=3")

    def test_spectrum_counts_rows_times_bins(self, monkeypatch):
        monkeypatch.setattr(signal_core, "MAX_CELLS", 99)
        one_sided_spectrum(np.ones((3, 10)), 64)  # 3 rows of 33 bins
        with pytest.raises(InvalidInputError, match="nfft=64 asks for an array of 132"):
            one_sided_spectrum(np.ones((2, 2, 10)), 64)
        one_sided_spectrum(np.ones(10), 196)  # 99 bins
        with pytest.raises(InvalidInputError, match="nfft=198 asks for an array of 100"):
            one_sided_spectrum(np.ones(10), 198)

    def test_resample_counts_output_samples(self, monkeypatch):
        monkeypatch.setattr(signal_core, "MAX_CELLS", 100)
        w = Waveform(np.arange(4.0), 1.0)  # spans 3 s
        assert len(resample_cubic(w, 33.0)) == 100
        with pytest.raises(InvalidInputError, match="target_fps=33.4 asks"):
            resample_cubic(w, 33.4)


class TestStandardize:
    def test_basic(self):
        out = standardize(Waveform(np.array([1.0, 2.0, 3.0]), 10.0))
        assert abs(out.samples.mean()) < 1e-12
        assert out.samples.std() == pytest.approx(1.0, abs=1e-12)

    def test_constant_flags_degenerate(self):
        out = standardize(Waveform(np.full(5, 5.0), 10.0))
        np.testing.assert_array_equal(out.samples, 0.0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(100)
        a = standardize(Waveform(x, 10.0)).samples
        b = standardize(Waveform(2.5 * x + 4.0, 10.0)).samples
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestSpatialMeanTrace:
    def test_uniform_frames(self):
        cube = VideoCube(np.full((5, 4, 4, 3), 0.5), 30.0)
        trace = spatial_mean_trace(cube)
        assert trace.values.shape == (5, 3)
        np.testing.assert_allclose(trace.values, 0.5)

    def test_half_half_frame(self):
        frame = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]])[:, :, None], 3, axis=2)
        cube = VideoCube(np.stack([frame, frame]), 30.0)
        np.testing.assert_allclose(spatial_mean_trace(cube).values, 0.5)

    def test_global_signal_passes_through(self):
        g = np.linspace(0.2, 0.8, 20)
        cube = VideoCube(np.ones((20, 3, 3, 3)) * g[:, None, None, None], 30.0)
        np.testing.assert_allclose(spatial_mean_trace(cube).values[:, 0], g)

    @pytest.mark.parametrize("seed", [1, 3])
    def test_trace_is_the_spatial_mean(self, seed):
        # the estimators read the study's traces as they read a cube's
        cube = VideoCube(np.random.default_rng(seed).random((40, 7, 5, 3)), 25.0)
        trace = spatial_mean_trace(cube)
        assert np.array_equal(trace.values, cube.data.mean(axis=(1, 2)))
        assert trace.fps == 25.0


def test_bandpass_brickwall_removes_out_of_band():
    fps = 90.0
    t = np.arange(900) / fps
    x = np.sin(2 * np.pi * 1.5 * t) + np.sin(2 * np.pi * 10.0 * t)
    out = bandpass_brickwall(Waveform(x, fps))
    # analyze on the native grid so zero-padding leakage cannot reappear
    power = power_spectrum(out.samples, 900)
    power /= power.sum()
    freqs = np.arange(power.size) * (fps * 60.0 / 900)
    assert power[freqs > 300.0].sum() < 1e-12
    assert freqs[np.argmax(power)] == pytest.approx(90.0)


class TestAgainstScipy:
    """The numpy Hilbert envelope and not-a-knot spline against scipy."""

    LENGTHS = (4, 5, 6, 7, 64, 201, 600)

    def test_hilbert_envelope_matches(self):
        signal = pytest.importorskip("scipy.signal")
        rng = np.random.default_rng(5)
        for n in self.LENGTHS:
            x = rng.standard_normal(n)
            expect = np.abs(signal.hilbert(x))
            got = hilbert_envelope_rows(x)
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * expect.max())

    @pytest.mark.parametrize("target_fps", [7.0, 13.0, 90.0])
    def test_resample_cubic_matches(self, target_fps):
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(6)
        for n in self.LENGTHS:
            w = Waveform(rng.standard_normal(n), 20.0)
            got = resample_cubic(w, target_fps)
            assert got.times[-1] <= w.times[-1]
            expect = interpolate.CubicSpline(w.times, w.samples)(got.times)
            np.testing.assert_allclose(got.samples, expect, rtol=0,
                                       atol=1e-12 * np.abs(expect).max())

    def test_short_inputs_rejected(self):
        for n in (2, 3):
            w = Waveform(np.arange(float(n)), 10.0)
            with pytest.raises(InvalidInputError, match="at least 4 samples"):
                hilbert_envelope_rows(w.samples)
            with pytest.raises(InvalidInputError, match="at least 4 samples"):
                resample_cubic(w, 20.0)
