import numpy as np
import pytest

from pulsegate.errors import InvalidInputError, NumericalError
from pulsegate.estimator import (
    ToyEstimator,
    TrainConfig,
    _backward,
    _fft_conv,
    _fft_conv_input_grad,
    _fft_conv_weight_grad,
    _fft_len,
    _forward,
    _score,
    backward,
    clip_predictions,
    infer_video,
    train,
)
from pulsegate.losses import LossSpec, combined_loss
from pulsegate.signal_core import (
    Trace,
    VideoCube,
    Waveform,
    band_bin_mask,
    power_spectrum,
    spatial_mean_trace,
    standardize_rows,
    stitch_overlap_add,
)
from pulsegate.synth import NegativeTransform, SceneConfig, generate_positive, make_negative


def tone_cube(fps=30.0, duration_s=10.0, hr_bpm=72.0, seed=0, noise=0.0):
    cfg = SceneConfig(duration_s=duration_s, fps=fps, dims=(6, 6),
                      hr_trajectory=hr_bpm, pulse_amplitude=0.02,
                      sensor_noise_sigma=noise, seed=seed)
    return generate_positive(cfg)


def tone_trace(**scene):
    """The trace of a `tone_cube` scene, and its ground truth."""
    cube, truth = tone_cube(**scene)
    return spatial_mean_trace(cube), truth


def forward_one(model, x):
    """Model output for one standardized (C, T) input, and the cache."""
    out, cache = _forward(model, x[None])
    return out[0], cache


def predict_whole(model, trace):
    """Model output for a whole 3-channel trace taken as one standardized clip."""
    return forward_one(model, standardize_rows(trace.values.T))[0]


def backward_one(model, cache, upstream):
    """Flat parameter gradient for one sample's upstream dL/dy."""
    return _backward(model, cache, upstream[None])


def conv_same(x, weights, bias):
    """The batched FFT convolution applied to one (C, T) input."""
    return _fft_conv(x[None], weights, bias)[0][0]


def fd_param_grads(model, x, upstream, h=1e-5):
    """Finite differences of L = upstream . y through the flat parameters."""
    flat = model.flat.copy()
    grads = np.zeros_like(flat)
    for i in range(flat.size):
        for sign in (1.0, -1.0):
            bumped = flat.copy()
            bumped[i] += sign * h
            model.flat[...] = bumped
            out, _ = forward_one(model, x)
            grads[i] += sign * float(upstream @ out) / (2 * h)
    model.flat[...] = flat
    return grads


def conv_same_reference(x, weights, bias):
    """Edge-padded temporal convolution written as a direct double loop."""
    n_out, n_in, kernel = weights.shape
    n_frames = x.shape[1]
    out = np.empty((n_out, n_frames))
    for f in range(n_out):
        for t in range(n_frames):
            taps = np.clip(np.arange(t - kernel // 2, t + kernel // 2 + 1), 0, n_frames - 1)
            out[f, t] = bias[f] + np.sum(weights[f] * x[:, taps])
    return out


def taps_of(t, kernel, n_frames):
    """The edge-clamped input frames that output frame t of a k-tap conv reads."""
    return np.clip(np.arange(t - kernel // 2, t + kernel // 2 + 1), 0, n_frames - 1)


def weight_grad_reference(x, upstream, kernel):
    """d/dw of sum(upstream * conv(x)) for one (C, T) input, as a loop over frames."""
    grad = np.zeros((upstream.shape[0], x.shape[0], kernel))
    for t in range(x.shape[1]):
        grad += upstream[:, t, None, None] * x[None, :, taps_of(t, kernel, x.shape[1])]
    return grad


def input_grad_reference(weights, upstream):
    """d/dx of sum(upstream * conv(x)) for one (F, T) upstream, as a double loop."""
    n_out, n_in, kernel = weights.shape
    n_frames = upstream.shape[1]
    grad = np.zeros((n_in, n_frames))
    for f in range(n_out):
        for t in range(n_frames):
            np.add.at(grad, (slice(None), taps_of(t, kernel, n_frames)),
                      upstream[f, t] * weights[f])
    return grad


def conv_weight_grad(x, weights, upstream):
    """d/dw of sum(upstream * conv(x)) for one (C, T) input, through the FFT kernels."""
    n = _fft_len(x.shape[1], weights.shape[2])
    _, spectrum, _ = _fft_conv(x[None], weights, np.zeros(len(weights)))
    return _fft_conv_weight_grad(spectrum, np.fft.rfft(upstream[None], n), n, weights.shape[2])


def is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


KERNEL_LENS = [1, 3, 11, 91]  # 91 is longer than the 64-frame inputs
FILTERS = [1, 8]
# (T, k): T + k - 1 = 80 is itself 5-smooth, so the FFT has no slack; and
# the desk shape, T + k - 1 = 290 in a 300-point FFT
NO_WRAP_SHAPES = [(64, 17), (200, 91)]


class TestConvKernels:
    @pytest.mark.parametrize("filters", FILTERS)
    @pytest.mark.parametrize("kernel_len", KERNEL_LENS)
    def test_conv_same_matches_double_loop(self, kernel_len, filters):
        rng = np.random.default_rng(kernel_len + filters)
        x = rng.standard_normal((3, 64))
        weights = rng.standard_normal((filters, 3, kernel_len))
        bias = rng.standard_normal(filters)
        out = conv_same(x, weights, bias)
        expected = conv_same_reference(x, weights, bias)
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("filters", FILTERS)
    @pytest.mark.parametrize("kernel_len", KERNEL_LENS)
    def test_input_grad_matches_finite_differences(self, kernel_len, filters):
        # L = sum(upstream * conv(x)) is linear in x, so central differences
        # are exact up to rounding
        rng = np.random.default_rng(100 + kernel_len + filters)
        x = rng.standard_normal((3, 64))
        weights = rng.standard_normal((filters, 3, kernel_len))
        bias = rng.standard_normal(filters)
        upstream = rng.standard_normal((filters, 64))
        grad = _fft_conv_input_grad(weights, upstream[None])[0]
        fd = np.zeros_like(x)
        h = 1e-5
        for idx in np.ndindex(x.shape):
            for sign in (1.0, -1.0):
                bumped = x.copy()
                bumped[idx] += sign * h
                fd[idx] += sign * np.sum(upstream * conv_same(bumped, weights, bias)) / (2 * h)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6

    @pytest.mark.parametrize("activation", ["tanh", "linear"])
    @pytest.mark.parametrize("filters", FILTERS)
    @pytest.mark.parametrize("kernel_len", KERNEL_LENS)
    def test_param_grads_match_finite_differences(self, kernel_len, filters, activation):
        rng = np.random.default_rng(200 + kernel_len + filters)
        model = ToyEstimator.init(filters=filters, kernel_len=kernel_len, seed=kernel_len,
                                  activation=activation)
        x = rng.standard_normal((3, 64))
        upstream = rng.standard_normal(64)
        _, cache = forward_one(model, x)
        grads = backward_one(model, cache, upstream)
        fd = fd_param_grads(model, x, upstream)
        assert np.linalg.norm(grads - fd) / np.linalg.norm(fd) < 1e-4


class TestNoWrap:
    """The FFT products at `_fft_len` against direct loops and finite differences."""

    def test_fft_len_is_smallest_5_smooth(self):
        for n_frames in range(1, 400, 3):
            for kernel_len in range(1, 200, 2):
                need = n_frames + kernel_len - 1
                assert _fft_len(n_frames, kernel_len) == next(
                    m for m in range(need, 2 * need + 1) if is_5_smooth(m))

    @pytest.mark.parametrize("n_frames, kernel_len", NO_WRAP_SHAPES)
    def test_conv_matches_double_loop(self, n_frames, kernel_len):
        rng = np.random.default_rng(kernel_len)
        x = rng.standard_normal((3, n_frames))
        weights = rng.standard_normal((2, 3, kernel_len))
        bias = rng.standard_normal(2)
        expected = conv_same_reference(x, weights, bias)
        np.testing.assert_allclose(conv_same(x, weights, bias), expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("n_frames, kernel_len", NO_WRAP_SHAPES)
    def test_weight_grad_matches_loop_and_finite_differences(self, n_frames, kernel_len):
        rng = np.random.default_rng(10 + kernel_len)
        x = rng.standard_normal((3, n_frames))
        weights = rng.standard_normal((2, 3, kernel_len))
        upstream = rng.standard_normal((2, n_frames))
        grad = conv_weight_grad(x, weights, upstream)
        expected = weight_grad_reference(x, upstream, kernel_len)
        np.testing.assert_allclose(grad, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())
        # L is linear in the weights, so central differences are exact up to rounding
        fd = np.zeros_like(weights)
        h = 1e-5
        for idx in np.ndindex(weights.shape):
            for sign in (1.0, -1.0):
                bumped = weights.copy()
                bumped[idx] += sign * h
                fd[idx] += sign * np.sum(upstream * conv_same(x, bumped, np.zeros(2))) / (2 * h)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6

    @pytest.mark.parametrize("n_frames, kernel_len", NO_WRAP_SHAPES)
    def test_input_grad_matches_loop_and_finite_differences(self, n_frames, kernel_len):
        rng = np.random.default_rng(20 + kernel_len)
        x = rng.standard_normal((3, n_frames))
        weights = rng.standard_normal((2, 3, kernel_len))
        upstream = rng.standard_normal((2, n_frames))
        grad = _fft_conv_input_grad(weights, upstream[None])[0]
        expected = input_grad_reference(weights, upstream)
        np.testing.assert_allclose(grad, expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())
        fd = np.zeros_like(x)
        h = 1e-5
        for idx in np.ndindex(x.shape):
            for sign in (1.0, -1.0):
                bumped = x.copy()
                bumped[idx] += sign * h
                out = conv_same(bumped, weights, np.zeros(2))
                fd[idx] += sign * np.sum(upstream * out) / (2 * h)
        assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6


class TestForward:
    def test_zero_second_layer_gives_zero_output(self):
        model = ToyEstimator.init(seed=0)
        model.w2[...] = 0.0
        model.b2[...] = 0.0
        trace, _ = tone_trace()
        np.testing.assert_array_equal(predict_whole(model, trace), 0.0)

    def test_constant_clip_gives_constant_output(self):
        model = ToyEstimator.init(seed=1)
        trace = spatial_mean_trace(VideoCube(np.full((100, 4, 4, 3), 0.5), 30.0))
        out = predict_whole(model, trace)
        assert np.ptp(out) < 1e-12

    @pytest.mark.parametrize("n_frames", [64, 270, 1000])
    def test_output_length_matches_input(self, n_frames):
        model = ToyEstimator.init(seed=2)
        rng = np.random.default_rng(n_frames)
        trace = spatial_mean_trace(VideoCube(rng.uniform(0.2, 0.8, (n_frames, 4, 4, 3)), 30.0))
        assert len(predict_whole(model, trace)) == n_frames

    def test_parameter_shapes_checked(self):
        model = ToyEstimator.init(filters=4, kernel_len=5, seed=0)
        for name, bad in (("b1", np.zeros(3)), ("w2", np.zeros((1, 3, 5))),
                          ("w2", np.zeros((2, 4, 5))), ("b2", np.zeros(2)), ("b2", np.zeros(()))):
            params = {**model.split(model.flat), name: bad}
            with pytest.raises(InvalidInputError, match=f"{name} has shape"):
                ToyEstimator(**params)

    def test_channel_mismatch_rejected(self):
        model = ToyEstimator.init(seed=3)
        cube = VideoCube(np.random.default_rng(0).uniform(0, 1, (64, 4, 4, 1)), 30.0)
        trace = spatial_mean_trace(cube)
        with pytest.raises(InvalidInputError):
            clip_predictions(model, trace, len(trace))

    def test_edge_padding_regression_no_inband_energy(self):
        # a temporally constant video must not acquire an artificial temporal
        # response from padding: in-band energy must be a vanishing fraction
        # of the total prediction energy (DC included)
        model = ToyEstimator.init(seed=4)
        trace = spatial_mean_trace(VideoCube(np.full((300, 4, 4, 3), 0.4), 30.0))
        out = predict_whole(model, trace)
        nfft = 512
        power = power_spectrum(out, nfft)
        in_band = band_bin_mask(power.size, trace.fps, nfft, (40.0, 240.0))
        total_energy = nfft * float(np.sum(out ** 2))
        assert total_energy > 0
        assert power[in_band].sum() / total_energy < 1e-6


class TestBackward:
    def test_param_grads_match_finite_differences(self):
        rng = np.random.default_rng(5)
        model = ToyEstimator.init(seed=6)
        x = rng.standard_normal((3, 64))
        upstream = rng.standard_normal(64)
        out, cache = forward_one(model, x)
        grads = backward_one(model, cache, upstream)
        fd = fd_param_grads(model, x, upstream)
        assert np.linalg.norm(grads - fd) / np.linalg.norm(fd) < 1e-4

    def test_zero_upstream_gives_zero_grads(self):
        model = ToyEstimator.init(seed=7)
        trace, _ = tone_trace()
        grads = backward(model, trace, np.zeros(len(trace)))
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    def test_kernel_len_one(self):
        # no padding: the edge-pad adjoint must not slice the gradient away
        model = ToyEstimator.init(filters=2, kernel_len=1, seed=10)
        cube = VideoCube(np.random.default_rng(10).uniform(0.2, 0.8, (50, 4, 4, 3)), 30.0)
        trace = spatial_mean_trace(cube)
        grads = backward(model, trace, np.ones(50))
        assert grads["w1"].shape == (2, 3, 1)
        assert np.all(np.isfinite(np.concatenate([g.ravel() for g in grads.values()])))
        assert np.any(grads["w1"] != 0.0)

    def test_linear_case_analytic_oracle(self):
        # with identity activation the network is linear, so layer gradients
        # have closed forms: d_w2 correlates upstream with layer-1 output and
        # d_b2 is the upstream sum regardless of the other layer's weights
        rng = np.random.default_rng(8)
        model = ToyEstimator.init(seed=9, activation="linear", filters=4,
                                  kernel_len=5)
        x = rng.standard_normal((3, 48))
        upstream = rng.standard_normal(48)
        out, cache = forward_one(model, x)
        grads = model.split(backward_one(model, cache, upstream))
        assert grads["b2"][0] == pytest.approx(upstream.sum(), rel=1e-12)
        pad = 2
        hidden = np.pad(cache[1][0], ((0, 0), (pad, pad)), mode="edge")
        expected_w2 = np.zeros_like(model.w2)
        for f in range(4):
            for k in range(5):
                expected_w2[0, f, k] = upstream @ hidden[f, k:k + 48]
        np.testing.assert_allclose(grads["w2"], expected_w2, rtol=1e-10)
        # and b2's gradient is untouched by the first layer's values
        model.w1[...] = rng.standard_normal(model.w1.shape)
        _, cache2 = forward_one(model, x)
        grads2 = model.split(backward_one(model, cache2, upstream))
        assert grads2["b2"][0] == grads["b2"][0]

    @pytest.mark.parametrize("upstream, match", [
        (np.zeros(39), "shape"), (np.zeros(41), "shape"), (np.zeros((1, 40)), "shape"),
        (np.zeros(()), "shape"), (np.r_[np.zeros(39), np.nan], "finite"),
        (np.r_[-np.inf, np.zeros(39)], "finite"), (["a"] * 40, "cannot parse")])
    def test_bad_upstream_rejected(self, upstream, match):
        model = ToyEstimator.init(filters=2, kernel_len=5, seed=12)
        trace = Trace(np.random.default_rng(12).uniform(0.2, 0.8, (40, 3)), 30.0)
        with pytest.raises(InvalidInputError, match=match):
            backward(model, trace, upstream)

    def test_one_step_makes_eleven_conv_transforms(self, monkeypatch):
        # forward: each layer transforms its padded input and its kernels and
        # inverts the product (6); backward: one rFFT of the upstream serves
        # both of layer 2's gradients, one of d_pre layer 1's, and the three
        # gradients each invert once (5)
        counts = {"rfft": 0, "irfft": 0}
        for name in counts:
            def counted(*args, _real=getattr(np.fft, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        rng = np.random.default_rng(11)
        model = ToyEstimator.init(filters=8, kernel_len=91, seed=11)
        _, cache = _forward(model, rng.standard_normal((8, 3, 200)))
        _backward(model, cache, rng.standard_normal((8, 200)))
        assert counts == {"rfft": 6, "irfft": 5}


class TestTrain:
    def small_corpus(self, n_pos=3, n_neg=3, fps=30.0, duration=12.0):
        corpus = []
        for i in range(n_pos):
            trace, truth = tone_trace(fps=fps, duration_s=duration,
                                      hr_bpm=66.0 + 6 * i, seed=i, noise=2.0)
            corpus.append((trace, truth, True))
        for i in range(n_neg):
            cube, _ = tone_cube(fps=fps, duration_s=duration, seed=100 + i)
            kind = ("normal", "uniform", "shuffle")[i % 3]
            negative = make_negative(cube, NegativeTransform(kind=kind, seed=i))
            corpus.append((spatial_mean_trace(negative), None, False))
        return corpus

    def test_determinism(self):
        corpus = self.small_corpus()
        cfg = TrainConfig(clip_len=150, batch_size=2, steps=20, seed=11,
                          loss=LossSpec(negative_loss="std"), negative_mix=0.5)
        model_a, hist_a, _ = train(cfg, corpus)
        model_b, hist_b, _ = train(cfg, corpus)
        np.testing.assert_array_equal(model_a.flat, model_b.flat)
        assert hist_a == hist_b

    def test_mix_zero_ignores_negatives_bitwise(self):
        corpus = self.small_corpus()
        positives_only = [s for s in corpus if s[2]]
        cfg = TrainConfig(clip_len=150, batch_size=2, steps=20, seed=12,
                          loss=LossSpec(negative_loss="std"), negative_mix=0.0)
        model_a, _, _ = train(cfg, corpus)
        model_b, _, _ = train(cfg, positives_only)
        np.testing.assert_array_equal(model_a.flat, model_b.flat)

    def test_positives_only_learns_tone(self):
        corpus = [s for s in self.small_corpus(n_pos=4, n_neg=0, duration=15.0)]
        cfg = TrainConfig(clip_len=300, batch_size=4, steps=250,
                          learning_rate=0.05, seed=13,
                          loss=LossSpec(negative_loss="none"), negative_mix=0.0)
        model, history, _ = train(cfg, corpus)
        assert np.mean(history[-20:]) < np.mean(history[:20])
        assert np.mean(history[-20:]) < 0.35

    def test_no_negative_loss_never_draws_negatives(self):
        # default negative_mix (0.5) with the default negative_loss "none"
        corpus = self.small_corpus()
        positives_only = [s for s in corpus if s[2]]
        cfg = TrainConfig(clip_len=150, batch_size=2, steps=10, seed=16)
        assert cfg.negative_mix == 0.5 and cfg.loss.negative_loss == "none"
        model_a, hist_a, _ = train(cfg, positives_only, val_corpus=positives_only)
        model_b, hist_b, _ = train(cfg, corpus, val_corpus=corpus)
        np.testing.assert_array_equal(model_a.flat, model_b.flat)
        assert hist_a == hist_b

    def test_missing_negatives_rejected(self):
        corpus = [s for s in self.small_corpus(n_neg=0)]
        cfg = TrainConfig(clip_len=150, steps=5, negative_mix=0.5,
                          loss=LossSpec(negative_loss="std"))
        with pytest.raises(InvalidInputError, match="no negatives"):
            train(cfg, corpus)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self):
        corpus = self.small_corpus(n_pos=2, n_neg=0)
        cfg = TrainConfig(clip_len=150, batch_size=2, steps=200,
                          learning_rate=1e6, seed=14,
                          loss=LossSpec(positive_loss="mse", negative_loss="none"),
                          negative_mix=0.0)
        with pytest.raises(NumericalError, match="non-finite"):
            train(cfg, corpus)

    def test_validation_snapshot_returned(self):
        corpus = self.small_corpus(n_pos=3, n_neg=2)
        val = self.small_corpus(n_pos=2, n_neg=1)
        cfg = TrainConfig(clip_len=150, batch_size=2, steps=30, seed=15,
                          loss=LossSpec(negative_loss="spectral_flatness",
                                        nfft=512),
                          negative_mix=0.5, val_every=10)
        model, history, validation = train(cfg, corpus, val_corpus=val)
        assert len(history) == 30
        assert np.all(np.isfinite(model.flat))
        assert validation["steps"] == [10, 20, 30]
        assert len(validation["metric"]) == 3
        best = int(np.argmin(validation["metric"]))
        assert validation["checkpoint_step"] == validation["steps"][best]

    def test_validation_after_last_step(self):
        # a last step off the val_every grid is still scored
        corpus = self.small_corpus(n_pos=2, n_neg=0)
        cfg = TrainConfig(clip_len=150, batch_size=2, steps=25, seed=17, val_every=10)
        _, _, validation = train(cfg, corpus, val_corpus=corpus)
        assert validation["steps"] == [10, 20, 25]
        assert train(cfg, corpus)[2] is None

    def test_none_variant_history_pinned(self):
        # recorded from the per-sample training loop: a change to the draw
        # order (one random and up to two integers per sample) moves these
        # values far beyond the 1e-12 that float reassociation explains
        recorded = [1.926620121889132, 1.6498529854018138, 0.5296072856831127,
                    0.06714309468163973, 0.00953773035656269, 0.043146762495904295,
                    0.08700033289108791, 0.11074136669969609, 0.11375000272503613,
                    0.09696248060114185, 0.07806618261223333, 0.057008757183991926]
        cfg = TrainConfig(clip_len=150, batch_size=4, steps=12, learning_rate=0.05,
                          seed=21, loss=LossSpec(negative_loss="none"))
        _, history, _ = train(cfg, self.small_corpus())
        np.testing.assert_allclose(history, recorded, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("negative_loss", ["std", "spectral_entropy",
                                               "spectral_flatness", "mse_flatline"])
    def test_batched_gradient_is_sum_of_per_sample_gradients(self, negative_loss):
        # per sample: dL/dy from the Waveform loss API, chained through finite
        # differences of the network output
        rng = np.random.default_rng(30)
        fps, clip_len = 30.0, 64
        model = ToyEstimator.init(filters=2, kernel_len=5, seed=31)
        spec = LossSpec(negative_loss=negative_loss, nfft=256)
        t = np.arange(100) / fps
        samples = [(rng.standard_normal((3, 100)), np.sin(2 * np.pi * 1.3 * t)),
                   (rng.standard_normal((3, 100)), None),
                   (rng.standard_normal((3, 100)), np.sin(2 * np.pi * 1.1 * t + 1.0)),
                   (rng.standard_normal((3, 100)), None),
                   (rng.standard_normal((3, 100)), None)]
        starts = [0, 12, 36, 5, 20]
        values, upstream, cache = _score(model, samples, starts, clip_len, fps, spec)
        batched = _backward(model, cache, upstream)
        expected = np.zeros_like(batched)
        for (trace, target), start, value in zip(samples, starts, values):
            x = standardize_rows(trace[:, start:start + clip_len])
            pred = Waveform(forward_one(model, x)[0], fps)
            target_wave = None if target is None else Waveform(target[start:start + clip_len], fps)
            one_value, d_pred = combined_loss(pred, target_wave, spec)
            assert value == pytest.approx(one_value, rel=1e-12, abs=1e-15)
            expected += fd_param_grads(model, x, d_pred)
        assert np.linalg.norm(batched - expected) / np.linalg.norm(expected) < 1e-6

    def test_negative_without_inband_energy_raises(self):
        # a constant negative clip standardizes to zeros, so its prediction is
        # the constant bias: the spectral loss has no in-band energy to score
        corpus = [s for s in self.small_corpus(n_neg=0)]
        corpus.append((spatial_mean_trace(VideoCube(np.full((360, 6, 6, 3), 0.5), 30.0)),
                       None, False))
        cfg = TrainConfig(clip_len=150, batch_size=4, steps=5, seed=18,
                          loss=LossSpec(negative_loss="spectral_entropy", nfft=512),
                          negative_mix=0.5)
        with pytest.raises(NumericalError, match="no in-band"):
            train(cfg, corpus)

    def test_non_finite_prediction_raises(self):
        corpus = self.small_corpus(n_pos=2, n_neg=0)
        model = ToyEstimator.init(seed=19)
        model.b2[...] = np.nan
        cfg = TrainConfig(clip_len=150, batch_size=2, steps=3, seed=19)
        with pytest.raises(NumericalError, match="non-finite"):
            train(cfg, corpus, model=model)


class TestInference:
    def test_single_clip_equals_standardized_forward(self):
        model = ToyEstimator.init(seed=16)
        trace, _ = tone_trace(duration_s=10.0)
        n = len(trace)
        stitched = infer_video(model, trace, clip_len=n, overlap=0.5)
        direct = standardize_rows(predict_whole(model, trace))
        np.testing.assert_allclose(stitched.samples, direct, atol=1e-12)

    def test_zero_overlap_concatenates(self):
        model = ToyEstimator.init(seed=17)
        trace, _ = tone_trace(duration_s=10.0)
        n = len(trace)
        assert n % 2 == 0
        half = n // 2
        stitched = infer_video(model, trace, clip_len=half, overlap=0.0)
        first = Trace(trace.values[:half], trace.fps)
        second = Trace(trace.values[half:], trace.fps)
        expected = np.concatenate([
            standardize_rows(predict_whole(model, first)),
            standardize_rows(predict_whole(model, second))])
        np.testing.assert_allclose(stitched.samples, expected, atol=1e-12)

    def test_tone_segments_stitch_without_seams(self):
        # analytic tone oracle: overlapping standardized tone segments must
        # reassemble into the same tone without junction jumps
        fps, total, clip = 30.0, 900, 300
        t = np.arange(total) / fps
        tone = np.sin(2 * np.pi * 1.2 * t)
        starts = list(range(0, total - clip + 1, clip // 2))
        segments = [standardize_rows(tone[s:s + clip]) for s in starts]
        stitched = stitch_overlap_add(segments, starts, total)
        scale = stitched.std() / tone.std()
        jumps = np.abs(np.diff(stitched))
        tone_jumps = np.abs(np.diff(tone * scale))
        assert np.max(jumps - tone_jumps.max()) < 0.05 * stitched.max()

    def test_video_shorter_than_clip_rejected(self):
        model = ToyEstimator.init(seed=18)
        trace, _ = tone_trace(duration_s=5.0)
        with pytest.raises(InvalidInputError, match="shorter than one clip"):
            infer_video(model, trace, clip_len=10_000)

    def test_clip_predictions_shape(self):
        model = ToyEstimator.init(seed=19)
        trace, _ = tone_trace(duration_s=10.0)
        outputs, starts = clip_predictions(model, trace, clip_len=150, overlap=0.5)
        assert starts == [0, 75, 150]
        assert [out.shape for out in outputs] == [(150,)] * 3
        stds = np.array([out.std() for out in outputs])
        assert np.all(stds > 0)

    def test_clip_predictions_stitch_to_infer_video_and_forward(self):
        model = ToyEstimator.init(seed=21)
        trace, _ = tone_trace(duration_s=10.0)
        n = len(trace)
        outputs, starts = clip_predictions(model, trace, clip_len=150, overlap=0.5)
        standardized = standardize_rows(outputs)
        np.testing.assert_array_equal(stitch_overlap_add(standardized, starts, n),
                                      infer_video(model, trace, 150, overlap=0.5).samples)
        # one clip spanning the video: the raw stitch is the forward pass itself
        outputs, starts = clip_predictions(model, trace, clip_len=n)
        np.testing.assert_allclose(stitch_overlap_add(outputs, starts, n),
                                   predict_whole(model, trace), rtol=1e-12, atol=1e-14)

    def test_bad_overlap_rejected(self):
        model = ToyEstimator.init(seed=22)
        trace, _ = tone_trace(duration_s=10.0)
        with pytest.raises(InvalidInputError, match="overlap must be"):
            clip_predictions(model, trace, clip_len=150, overlap=1.0)


class TestSerialization:
    def test_round_trip(self):
        model = ToyEstimator.init(seed=20, filters=6, kernel_len=7)
        restored = ToyEstimator.from_dict(model.to_dict())
        np.testing.assert_array_equal(model.flat, restored.flat)
        trace, _ = tone_trace()
        np.testing.assert_array_equal(predict_whole(model, trace),
                                      predict_whole(restored, trace))

    def test_even_kernel_rejected(self):
        with pytest.raises(Exception):
            ToyEstimator.init(kernel_len=10)
