import numpy as np
import pytest

from pulsegate.errors import InvalidInputError, NumericalError
from pulsegate.losses import (
    LossSpec,
    batch_loss,
    combined_loss,
    entropy_loss_value,
    flatness_loss_value,
    loss_mse_flatline,
    loss_neg_pearson,
    loss_spectral_entropy,
    loss_spectral_flatness,
    loss_std,
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


class TestNegPearson:
    def test_perfect_match_is_zero(self):
        rng = np.random.default_rng(0)
        w = random_standardized(rng)
        value, _ = loss_neg_pearson(w, w)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated_is_two(self):
        rng = np.random.default_rng(1)
        w = random_standardized(rng)
        flipped = Waveform(-w.samples, w.fps)
        value, _ = loss_neg_pearson(w, flipped)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        target = random_standardized(rng)
        for _ in range(5):
            pred = random_standardized(rng)
            _, grad = loss_neg_pearson(pred, target)
            fd = finite_difference(
                lambda z: loss_neg_pearson(Waveform(z, 90.0), target)[0], pred.samples)
            assert rel_error(grad, fd) < 1e-6
            assert abs(grad.mean()) < 1e-12

    def test_constant_signal_rejected(self):
        flat = Waveform(np.full(16, 2.0), 30.0)
        wavy = Waveform(np.sin(np.arange(16.0)), 30.0)
        with pytest.raises(NumericalError, match="constant signals"):
            loss_neg_pearson(flat, wavy)
        with pytest.raises(NumericalError, match="constant signals"):
            loss_neg_pearson(wavy, flat)


class TestStdLoss:
    def test_constant_is_zero(self):
        value, grad = loss_std(Waveform(np.full(10, 4.0), 30.0))
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_two_point_value(self):
        value, _ = loss_std(Waveform(np.array([-1.0, 1.0]), 30.0))
        assert value == pytest.approx(1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            w = random_standardized(rng)
            _, grad = loss_std(w)
            fd = finite_difference(lambda z: loss_std(Waveform(z, 90.0))[0], w.samples)
            assert rel_error(grad, fd) < 1e-6


class TestMseFlatline:
    def test_zero_signal(self):
        value, _ = loss_mse_flatline(Waveform(np.zeros(8), 30.0))
        assert value == 0.0

    def test_known_value(self):
        value, _ = loss_mse_flatline(Waveform(np.array([3.0, 3.0]), 30.0))
        assert value == pytest.approx(9.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        w = random_standardized(rng)
        _, grad = loss_mse_flatline(w)
        fd = finite_difference(lambda z: loss_mse_flatline(Waveform(z, 90.0))[0], w.samples)
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
    @pytest.mark.parametrize("loss", [loss_spectral_entropy, loss_spectral_flatness])
    def test_gradient_matches_finite_differences(self, loss):
        rng = np.random.default_rng(5)
        for _ in range(5):
            w = random_standardized(rng)
            _, grad = loss(w, nfft=512)
            fd = finite_difference(
                lambda z: loss(Waveform(z, 90.0), nfft=512)[0],
                w.samples)
            assert rel_error(grad, fd) < 1e-4

    @pytest.mark.parametrize("loss", [loss_spectral_entropy, loss_spectral_flatness])
    def test_scale_invariance(self, loss):
        rng = np.random.default_rng(6)
        w = random_standardized(rng)
        scaled = Waveform(13.7 * w.samples, w.fps)
        v1, _ = loss(w, nfft=512)
        v2, _ = loss(scaled, nfft=512)
        assert v1 == pytest.approx(v2, abs=1e-9)

    @pytest.mark.parametrize("loss", [loss_spectral_entropy, loss_spectral_flatness])
    def test_bounded_in_unit_interval(self, loss):
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = random_standardized(rng)
            value, _ = loss(w, nfft=512)
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("loss", [loss_spectral_entropy, loss_spectral_flatness,
                                      loss_std, loss_mse_flatline])
    def test_descent_step_from_pure_tone(self, loss):
        fps = 90.0
        t = np.arange(256) / fps
        w = standardize(Waveform(np.sin(2 * np.pi * 1.5 * t), fps))
        if loss in (loss_std, loss_mse_flatline):
            value, grad = loss(w)
            after, _ = loss(Waveform(w.samples - 1e-3 * grad, fps))
        else:
            value, grad = loss(w, nfft=512)
            after, _ = loss(Waveform(w.samples - 1e-3 * grad, fps), nfft=512)
        assert after < value

    @pytest.mark.parametrize("loss", [loss_spectral_entropy, loss_spectral_flatness])
    def test_degenerate_spectrum_rejected(self, loss):
        with pytest.raises(NumericalError, match="no in-band"):
            loss(Waveform(np.full(64, 2.0), 90.0), nfft=128)


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

    @pytest.mark.parametrize("loss", [loss_spectral_entropy, loss_spectral_flatness])
    def test_empty_band_rejected(self, loss):
        # at 1 Hz the spectrum stops at 30 bpm, below the 40-240 bpm band
        pred = random_standardized(np.random.default_rng(14), n=64, fps=1.0)
        with pytest.raises(NumericalError, match="no in-band"):
            loss(pred, nfft=128)


class TestCombinedLoss:
    @pytest.mark.parametrize("loss, spec", [
        (loss_neg_pearson, LossSpec(positive_loss="neg_pearson")),
        (loss_std, LossSpec(negative_loss="std")),
        (loss_mse_flatline, LossSpec(negative_loss="mse_flatline")),
        (loss_spectral_entropy, LossSpec(negative_loss="spectral_entropy", nfft=512)),
        (loss_spectral_flatness, LossSpec(negative_loss="spectral_flatness", nfft=512))])
    def test_binding_is_a_batch_loss_row(self, loss, spec):
        rng = np.random.default_rng(13)
        pred, target = random_standardized(rng), random_standardized(rng)
        positive = loss is loss_neg_pearson
        value, grad = loss(pred, target) if positive else loss(pred, nfft=spec.nfft)
        values, grads = batch_loss(pred.samples[None], target.samples[None],
                                   np.array([positive]), pred.fps, spec)
        assert np.array_equal(value, values[0])
        assert np.array_equal(grad, grads[0])

    def test_positive_dispatch(self):
        rng = np.random.default_rng(8)
        w = random_standardized(rng)
        spec = LossSpec(positive_loss="neg_pearson", negative_loss="std")
        value, _ = combined_loss(w, w, True, spec)
        assert value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("band_bpm", [(240.0, 40.0), (40.0, 40.0), (-10.0, 240.0),
                                          (40.0,), (40.0, 240.0, 300.0)])
    def test_band_not_low_high_rejected(self, band_bpm):
        with pytest.raises(InvalidInputError, match="band_bpm"):
            LossSpec(negative_loss="spectral_flatness", band_bpm=band_bpm)

    def test_positive_mse_dispatch(self):
        rng = np.random.default_rng(12)
        w = random_standardized(rng)
        spec = LossSpec(positive_loss="mse", negative_loss="none")
        value, grad = combined_loss(w, w, True, spec)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_negative_std_flatline(self):
        flat = Waveform(np.zeros(64), 90.0)
        spec = LossSpec(negative_loss="std")
        value, _ = combined_loss(flat, None, False, spec)
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
            flatness.append(combined_loss(w, None, False, flat_spec)[0])
            entropy.append(combined_loss(w, None, False, ent_spec)[0])
        assert 0.25 < np.median(flatness) < 0.48
        assert np.median(entropy) < 0.2

    def test_none_negative_loss_is_zero(self):
        rng = np.random.default_rng(10)
        w = random_standardized(rng)
        value, grad = combined_loss(w, None, False, LossSpec(negative_loss="none"))
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)
