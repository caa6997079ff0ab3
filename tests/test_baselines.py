import numpy as np
import pytest

from pulsegate.baselines import estimate_chrom, estimate_green, estimate_pos
from pulsegate.errors import InvalidInputError
from pulsegate.evaluate import pulse_rate
from pulsegate.features import snr_rows
from pulsegate.signal_core import (
    Trace,
    Waveform,
    band_bin_mask,
    power_spectrum,
    spatial_mean_trace,
)
from pulsegate.synth import SceneConfig, generate_positive


def synthetic_trace(fps=30.0, duration_s=20.0, hr_bpm=72.0, seed=0):
    cfg = SceneConfig(duration_s=duration_s, fps=fps, dims=(8, 8),
                      hr_trajectory=hr_bpm, pulse_amplitude=0.02,
                      sensor_noise_sigma=0.0, seed=seed)
    cube, truth = generate_positive(cfg)
    return spatial_mean_trace(cube), truth


def constant_trace(fps=30.0, n=200):
    return Trace(np.full((n, 3), 0.5), fps)


class TestGreen:
    def test_psd_peak_at_modulation_frequency(self):
        fps, n, freq = 30.0, 600, 1.2
        t = np.arange(n) / fps
        values = np.column_stack([np.full(n, 0.6),
                                  1.0 + 0.01 * np.sin(2 * np.pi * freq * t),
                                  np.full(n, 0.4)])
        wave = estimate_green(Trace(values, fps))
        rates = pulse_rate(wave, window_s=10.0, stride_frames=600, nfft=5400)
        assert rates.bpm[0] == pytest.approx(freq * 60.0, abs=1.0)

    def test_constant_trace_degenerate(self):
        wave = estimate_green(constant_trace())
        np.testing.assert_array_equal(wave.samples, 0.0)

    def test_snr_on_clean_synthetic(self):
        trace, _ = synthetic_trace()
        wave = estimate_green(trace)
        assert snr_rows(wave.samples[None], wave.fps, 5400)[0] >= 10.0

    def test_sign_convention_darker_green_is_positive(self):
        fps, n = 30.0, 300
        t = np.arange(n) / fps
        dip = 1.0 - 0.05 * np.exp(-0.5 * ((t - 5.0) / 0.3) ** 2)
        values = np.column_stack([np.full(n, 0.6), dip, np.full(n, 0.4)])
        wave = estimate_green(Trace(values, fps))
        assert wave.samples[np.argmin(dip)] > 0


class TestChrom:
    def test_rate_on_clean_synthetic(self):
        trace, _ = synthetic_trace(hr_bpm=72.0)
        wave = estimate_chrom(trace)
        rates = pulse_rate(wave, window_s=10.0, stride_frames=60, nfft=5400)
        assert np.nanmedian(rates.bpm) == pytest.approx(72.0, abs=1.0)

    def test_common_mode_flicker_rejected(self):
        # two-tone construction: the pulse has a chrominance signature, the
        # flicker is common-mode; CHROM must favor the pulse bin
        fps, n = 30.0, 900
        t = np.arange(n) / fps
        pulse = 0.01 * np.sin(2 * np.pi * 1.2 * t)
        gains = np.array([0.5, 1.0, 0.4])
        base = np.array([0.62, 0.52, 0.45])
        values = base[None, :] * (1.0 + gains[None, :] * pulse[:, None])
        flicker = 1.0 + 0.1 * np.sin(2 * np.pi * 0.8 * t)
        values = values * flicker[:, None]
        wave = estimate_chrom(Trace(values, fps))
        power = power_spectrum(wave.samples, 5400)
        freqs = np.arange(power.size) * fps * 60.0 / 5400
        pulse_power = power[np.abs(freqs - 72.0) <= 3.0].sum()
        flicker_power = power[np.abs(freqs - 48.0) <= 3.0].sum()
        assert pulse_power > flicker_power

    def test_constant_trace_degenerate(self):
        np.testing.assert_array_equal(estimate_chrom(constant_trace()).samples, 0.0)

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError, match="shorter than one"):
            estimate_chrom(Trace(np.full((10, 3), 0.5), 30.0))


class TestPos:
    def test_rate_on_clean_synthetic(self):
        trace, _ = synthetic_trace(hr_bpm=60.0, seed=4)
        wave = estimate_pos(trace)
        rates = pulse_rate(wave, window_s=10.0, stride_frames=60, nfft=5400)
        assert np.nanmedian(rates.bpm) == pytest.approx(60.0, abs=1.0)

    def test_constant_trace_degenerate(self):
        np.testing.assert_array_equal(estimate_pos(constant_trace()).samples, 0.0)

    def test_noise_trace_has_out_of_band_energy(self):
        # no bandpass filtering: POS output on pure noise keeps high
        # frequencies outside [40, 240] bpm
        rng = np.random.default_rng(13)
        fps, n = 30.0, 900
        values = 0.5 + 0.01 * rng.standard_normal((n, 3))
        wave = estimate_pos(Trace(values, fps))
        power = power_spectrum(wave.samples, n)
        in_band = band_bin_mask(power.size, fps, n, (40.0, 240.0))
        outside = power[~in_band].sum() / power.sum()
        assert outside > 0.2


class TestScaleInvariance:
    @pytest.mark.parametrize("estimator", [estimate_green, estimate_chrom, estimate_pos])
    def test_global_scaling_invariant(self, estimator):
        trace, _ = synthetic_trace(seed=2)
        scaled = Trace(trace.values * 3.7, trace.fps)
        a = estimator(trace)
        b = estimator(scaled)
        np.testing.assert_allclose(a.samples, b.samples, atol=1e-9)

    @pytest.mark.parametrize("estimator", [estimate_green, estimate_chrom, estimate_pos])
    def test_length_and_fps_preserved(self, estimator):
        trace, _ = synthetic_trace(seed=3)
        wave = estimator(trace)
        assert len(wave) == len(trace)
        assert wave.fps == trace.fps
