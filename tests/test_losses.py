import warnings

import numpy as np
import pytest

from pulsegate.errors import InvalidInputError, NumericalError
from pulsegate.losses import (
    LossSpec,
    batch_loss,
    combined_loss,
    entropy_loss_value,
    flatness_loss_value,
)
from pulsegate.signal_core import Waveform, band_bin_mask, one_sided_spectrum, standardize


def finite_difference(fn, x, h=1e-4):
    grad = np.zeros_like(x)
    for i in range(x.size):
        plus = x.copy()
        plus[i] += h
        minus = x.copy()
        minus[i] -= h
        grad[i] = (fn(plus) - fn(minus)) / (2 * h)
    return grad


def rel_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-30)


def random_standardized(rng, n=256, fps=90.0):
    x = rng.standard_normal(n)
    return standardize(Waveform(x, fps))


PEARSON = LossSpec(positive_loss="neg_pearson")


def negative_loss(kind, pred, nfft=512):
    """`combined_loss` of a negative sample under one negative loss."""
    return combined_loss(pred, None, LossSpec(negative_loss=kind, nfft=nfft))


def loss_id(value):
    """Parameter ids name a loss kind `loss_<kind>`."""
    return f"loss_{value}" if isinstance(value, str) else None


SPECTRAL = ["spectral_entropy", "spectral_flatness"]


class TestNegPearson:
    def test_perfect_match_is_zero(self):
        rng = np.random.default_rng(0)
        w = random_standardized(rng)
        value, _ = combined_loss(w, w, PEARSON)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_is_two(self):
        rng = np.random.default_rng(1)
        w = random_standardized(rng)
        flipped = Waveform(-w.samples, w.fps)
        value, _ = combined_loss(w, flipped, PEARSON)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        target = random_standardized(rng)
        for _ in range(5):
            pred = random_standardized(rng)
            _, grad = combined_loss(pred, target, PEARSON)
            fd = finite_difference(
                lambda z: combined_loss(Waveform(z, 90.0), target, PEARSON)[0], pred.samples)
            assert rel_error(grad, fd) < 1e-6
            assert abs(grad.mean()) < 1e-12

    def test_constant_signal_rejected(self):
        flat = Waveform(np.full(16, 2.0), 30.0)
        wavy = Waveform(np.sin(np.arange(16.0)), 30.0)
        with pytest.raises(NumericalError, match="constant signals"):
            combined_loss(flat, wavy, PEARSON)
        with pytest.raises(NumericalError, match="constant signals"):
            combined_loss(wavy, flat, PEARSON)


class TestStdLoss:
    def test_constant_is_zero(self):
        value, grad = negative_loss("std", Waveform(np.full(10, 4.0), 30.0))
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_two_point_value(self):
        value, _ = negative_loss("std", Waveform(np.array([-1.0, 1.0]), 30.0))
        assert value == pytest.approx(1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = random_standardized(rng)
            _, grad = negative_loss("std", w)
            fd = finite_difference(lambda z: negative_loss("std", Waveform(z, 90.0))[0],
                                   w.samples)
            assert rel_error(grad, fd) < 1e-6


class TestMseFlatline:
    def test_zero_signal(self):
        value, _ = negative_loss("mse_flatline", Waveform(np.zeros(8), 30.0))
        assert value == 0.0

    def test_known_value(self):
        value, _ = negative_loss("mse_flatline", Waveform(np.array([3.0, 3.0]), 30.0))
        assert value == pytest.approx(9.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        w = random_standardized(rng)
        _, grad = negative_loss("mse_flatline", w)
        fd = finite_difference(lambda z: negative_loss("mse_flatline", Waveform(z, 90.0))[0],
                               w.samples)
        assert rel_error(grad, fd) < 1e-8


class TestSpectralLossValues:
    def test_flat_distribution_is_zero(self):
        dist = np.full(200, 1.0 / 200)
        assert entropy_loss_value(dist) == pytest.approx(0.0, abs=1e-12)
        assert flatness_loss_value(dist) == pytest.approx(0.0, abs=1e-12)

    def test_single_bin_is_one(self):
        dist = np.zeros(200)
        dist[17] = 1.0
        assert entropy_loss_value(dist) == pytest.approx(1.0, abs=1e-12)
        assert flatness_loss_value(dist) == pytest.approx(1.0, abs=1e-6)

    def test_two_equal_bins_entropy(self):
        # direct evaluation: H = ln 2, K = 200
        dist = np.zeros(200)
        dist[10] = dist[90] = 0.5
        expected = 1.0 - np.log(2.0) / np.log(200.0)
        assert entropy_loss_value(dist) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.8692, abs=1e-4)


class TestSpectralLossGradients:
    @pytest.mark.parametrize("kind", SPECTRAL, ids=loss_id)
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(5)
        for _ in range(5):
            w = random_standardized(rng)
            _, grad = negative_loss(kind, w)
            fd = finite_difference(lambda z: negative_loss(kind, Waveform(z, 90.0))[0],
                                   w.samples)
            assert rel_error(grad, fd) < 1e-4

    @pytest.mark.parametrize("kind", SPECTRAL, ids=loss_id)
    def test_scale_invariance(self, kind):
        rng = np.random.default_rng(6)
        w = random_standardized(rng)
        scaled = Waveform(13.7 * w.samples, w.fps)
        v1, _ = negative_loss(kind, w)
        v2, _ = negative_loss(kind, scaled)
        assert v1 == pytest.approx(v2, abs=1e-9)

    @pytest.mark.parametrize("kind", SPECTRAL, ids=loss_id)
    def test_bounded_in_unit_interval(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = random_standardized(rng)
            value, _ = negative_loss(kind, w)
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("kind", SPECTRAL + ["std", "mse_flatline"], ids=loss_id)
    def test_descent_step_from_pure_tone(self, kind):
        fps = 90.0
        t = np.arange(256) / fps
        w = standardize(Waveform(np.sin(2 * np.pi * 1.5 * t), fps))
        value, grad = negative_loss(kind, w)
        after, _ = negative_loss(kind, Waveform(w.samples - 1e-3 * grad, fps))
        assert after < value

    @pytest.mark.parametrize("kind", SPECTRAL, ids=loss_id)
    def test_degenerate_spectrum_rejected(self, kind):
        with pytest.raises(NumericalError, match="no in-band"):
            negative_loss(kind, Waveform(np.full(64, 2.0), 90.0), nfft=128)


def spectral_rows_full_mask(pred, fps, nfft, band_bpm, kind):
    """The spectral penalties and their gradients computed over every
    one-sided bin, with the band as a mask: the reference for the in-band
    slice the loss works on."""
    spectrum, weights = one_sided_spectrum(pred, nfft)
    mask = band_bin_mask(weights.size, fps, nfft, band_bpm)
    power = np.abs(spectrum) ** 2 * weights * mask
    total = power.sum(axis=1, keepdims=True)
    values, grads = [], []
    for row, row_total, x in zip(power, total, spectrum):
        dist = row[mask] / row_total
        k = dist.size
        if kind == "spectral_entropy":
            values.append(entropy_loss_value(dist))
            grad_dist = np.where(dist > 1e-12, np.log(np.maximum(dist, 1e-12)) + 1.0,
                                 np.log(1e-12)) / np.log(k)
        else:
            values.append(flatness_loss_value(dist))
            geo = np.exp(np.mean(np.log(np.maximum(dist, 1e-12))))
            arith = dist.mean()
            d_geo = np.where(dist > 1e-12, geo / (k * dist), 0.0)
            grad_dist = -(d_geo * arith - geo / k) / arith ** 2
        q = np.zeros(row.size)
        q[mask] = (grad_dist - np.sum(grad_dist * dist)) / row_total * weights[mask]
        grad = nfft * np.fft.irfft(q * x, nfft)[:pred.shape[1]]
        grads.append(grad - grad.mean())
    return np.array(values), np.array(grads)


class TestSpectralBand:
    @pytest.mark.parametrize("kind", ["spectral_entropy", "spectral_flatness"])
    @pytest.mark.parametrize("fps, nfft, band_bpm", [
        (20.0, 5400, (40.0, 240.0)),   # the desk setting
        (90.0, 513, (40.0, 240.0)),    # odd nfft: no Nyquist bin
        (2.0, 256, (40.0, 240.0))])    # the band holds the Nyquist bin
    def test_slice_matches_full_mask_reference(self, kind, fps, nfft, band_bpm):
        rng = np.random.default_rng(nfft)
        pred = rng.standard_normal((5, 120))
        spec = LossSpec(negative_loss=kind, nfft=nfft, band_bpm=band_bpm)
        values, grads = batch_loss(pred, pred, np.zeros(5, bool), fps, spec)
        ref_values, ref_grads = spectral_rows_full_mask(pred, fps, nfft, band_bpm, kind)
        np.testing.assert_allclose(values, ref_values, rtol=1e-12, atol=0.0)
        for grad, ref in zip(grads, ref_grads):
            assert rel_error(grad, ref) < 1e-12

    def test_band_holding_dc_gives_no_warning(self):
        # the mean-removed rows' DC bin often comes out exactly 0; the flatness
        # gradient must not divide by it
        spec = LossSpec(negative_loss="spectral_flatness", nfft=5400, band_bpm=(0.0, 240.0))
        for seed in range(50):
            pred = np.random.default_rng(seed).standard_normal((4, 200))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values, grads = batch_loss(pred, pred, np.zeros(4, bool), 20.0, spec)
            assert np.all(np.isfinite(values)) and np.all(np.isfinite(grads))

    @pytest.mark.parametrize("kind", SPECTRAL, ids=loss_id)
    def test_empty_band_rejected(self, kind):
        # at 1 Hz the spectrum stops at 30 bpm, below the 40-240 bpm band
        pred = random_standardized(np.random.default_rng(14), n=64, fps=1.0)
        with pytest.raises(NumericalError, match="no in-band"):
            negative_loss(kind, pred, nfft=128)


class TestCombinedLoss:
    @pytest.mark.parametrize("kind, spec", [
        ("neg_pearson", PEARSON),
        ("std", LossSpec(negative_loss="std")),
        ("mse_flatline", LossSpec(negative_loss="mse_flatline")),
        ("spectral_entropy", LossSpec(negative_loss="spectral_entropy", nfft=512)),
        ("spectral_flatness", LossSpec(negative_loss="spectral_flatness", nfft=512))],
        ids=loss_id)
    def test_binding_is_a_batch_loss_row(self, kind, spec):
        rng = np.random.default_rng(13)
        pred, target = random_standardized(rng), random_standardized(rng)
        positive = kind == spec.positive_loss
        value, grad = combined_loss(pred, target if positive else None, spec)
        values, grads = batch_loss(pred.samples[None], target.samples[None],
                                   np.array([positive]), pred.fps, spec)
        assert np.array_equal(value, values[0])
        assert np.array_equal(grad, grads[0])

    def test_positive_dispatch(self):
        rng = np.random.default_rng(8)
        w = random_standardized(rng)
        spec = LossSpec(positive_loss="neg_pearson", negative_loss="std")
        value, _ = combined_loss(w, w, spec)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_unequal_lengths_rejected(self):
        rng = np.random.default_rng(15)
        pred, target = random_standardized(rng, n=64), random_standardized(rng, n=65)
        with pytest.raises(InvalidInputError, match="equal lengths"):
            combined_loss(pred, target, PEARSON)

    @pytest.mark.parametrize("band_bpm", [(240.0, 40.0), (40.0, 40.0), (-10.0, 240.0),
                                          (40.0,), (40.0, 240.0, 300.0)])
    def test_band_not_low_high_rejected(self, band_bpm):
        with pytest.raises(InvalidInputError, match="band_bpm"):
            LossSpec(negative_loss="spectral_flatness", band_bpm=band_bpm)

    def test_positive_mse_dispatch(self):
        rng = np.random.default_rng(12)
        w = random_standardized(rng)
        spec = LossSpec(positive_loss="mse", negative_loss="none")
        value, grad = combined_loss(w, w, spec)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_negative_std_flatline(self):
        flat = Waveform(np.zeros(64), 90.0)
        spec = LossSpec(negative_loss="std")
        value, _ = combined_loss(flat, None, spec)
        assert value == 0.0

    def test_negative_losses_on_white_noise_near_flat(self):
        # Monte-Carlo oracle over 100 white-noise signals.  Periodogram bins of
        # white noise are ~Exp distributed, so the realized flatness ratio
        # GM/AM concentrates near exp(-euler_gamma) ~ 0.56, putting the
        # flatness loss near 0.4 (not 0); the entropy loss lands near
        # (1 - euler_gamma)/log(K) ~ 0.12 for these K=19 in-band bins.  Both
        # sit far below the pure-tone value of 1.
        rng = np.random.default_rng(9)
        flat_spec = LossSpec(negative_loss="spectral_flatness", nfft=512)
        ent_spec = LossSpec(negative_loss="spectral_entropy", nfft=512)
        flatness, entropy = [], []
        for _ in range(100):
            w = random_standardized(rng)
            flatness.append(combined_loss(w, None, flat_spec)[0])
            entropy.append(combined_loss(w, None, ent_spec)[0])
        assert 0.25 < np.median(flatness) < 0.48
        assert np.median(entropy) < 0.2

    def test_none_negative_loss_is_zero(self):
        rng = np.random.default_rng(10)
        w = random_standardized(rng)
        value, grad = combined_loss(w, None, LossSpec(negative_loss="none"))
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)
