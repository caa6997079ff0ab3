import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import pulsegate
from pulsegate import evaluate, signal_core
from pulsegate.errors import InvalidInputError
from pulsegate.evaluate import (
    RATE_BAND_HZ,
    ErrorReport,
    _rate_tables,
    error_metrics,
    pulse_rate,
)
from pulsegate.signal_core import DEFAULT_NFFT, Waveform, band_bin_mask


def sine(freq_hz, fps, duration_s, amplitude=1.0, offset=0.0):
    t = np.arange(int(round(duration_s * fps))) / fps
    return Waveform(offset + amplitude * np.sin(2 * np.pi * freq_hz * t), fps)


def fft_pulse_rate(w, window_s=10.0, stride_frames=1, nfft=DEFAULT_NFFT,
                   band_hz=RATE_BAND_HZ):
    """Reference: one zero-padded rfft per mean-removed window, in chunks.

    Returns the rates and, per window, the two largest in-band powers.
    """
    window = int(round(window_s * w.fps))
    resolution_bpm = w.fps * 60.0 / nfft
    in_band = np.flatnonzero(band_bin_mask(nfft // 2 + 1, w.fps, nfft,
                                           (band_hz[0] * 60.0, band_hz[1] * 60.0)))
    segments = np.lib.stride_tricks.sliding_window_view(w.samples, window)[::stride_frames]
    bpm = np.empty(len(segments))
    top_two = np.empty((len(segments), 2))
    chunk = 512
    for lo in range(0, len(segments), chunk):
        block = segments[lo:lo + chunk]
        centered = block - block.mean(axis=1, keepdims=True)
        power = np.abs(np.fft.rfft(centered, nfft, axis=1)[:, in_band]) ** 2
        peaks = in_band[np.argmax(power, axis=1)] * resolution_bpm
        bpm[lo:lo + chunk] = np.where(power.sum(axis=1) > 0.0, peaks, np.nan)
        top_two[lo:lo + chunk] = np.sort(power, axis=1)[:, :-3:-1]
    return bpm, top_two


def assert_matches_fft(w, window_s=10.0, stride_frames=1, nfft=DEFAULT_NFFT):
    """pulse_rate equals the reference in every window but near-ties, whose
    two largest reference powers lie within 1e-9 relative; returns how many
    windows differed at such a near-tie."""
    rates = pulse_rate(w, window_s, stride_frames, nfft)
    want, top_two = fft_pulse_rate(w, window_s, stride_frames, nfft)
    np.testing.assert_array_equal(np.isnan(rates.bpm), np.isnan(want))
    differ = (rates.bpm != want) & ~np.isnan(want)
    near_tie = top_two[:, 0] - top_two[:, 1] <= 1e-9 * top_two[:, 0]
    assert not np.any(differ & ~near_tie), np.flatnonzero(differ & ~near_tie)
    return int(differ.sum())


def noisy_pulse(rng, n, fps, offset, amplitude):
    t = np.arange(n) / fps
    bpm = rng.uniform(45.0, 200.0)
    phase = 2 * np.pi * (bpm / 60.0 * t + 0.1 * np.sin(2 * np.pi * 0.05 * t))
    return offset + amplitude * (np.sin(phase) + 0.2 * np.sin(2 * phase + 1.0)
                                 + rng.normal(0.0, 0.5, n))


class TestSlidingDftAgainstFft:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           fps=st.sampled_from([20.0, 30.0, 90.0]),
           window_s=st.sampled_from([3.0, 10.0]),
           extra_s=st.floats(0.0, 20.0),
           stride=st.integers(1, 30),
           offset=st.floats(-1e3, 1e3),
           amplitude=st.sampled_from([1e-2, 1.0, 37.5, 1e2]))
    def test_matches_fft_rates(self, seed, fps, window_s, extra_s, stride, offset, amplitude):
        rng = np.random.default_rng(seed)
        n = int(round((window_s + extra_s) * fps))
        w = Waveform(noisy_pulse(rng, n, fps, offset, amplitude), fps)
        # shown by pytest --hypothesis-show-statistics
        event(f"near-tie windows that differ: {assert_matches_fft(w, window_s, stride)}")

    @pytest.mark.parametrize("value", [2.0, 0.1, 1.0 / 3.0, None])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_constant_stretch_is_nan_exactly_inside(self, value, stride):
        rng = np.random.default_rng(3)
        fps, window = 90.0, 900
        x = noisy_pulse(rng, 3600, fps, 0.0, 1.0)
        x[1000:2300] = rng.uniform(-2.0, 2.0) if value is None else value
        rates = pulse_rate(Waveform(x, fps), stride_frames=stride)
        starts = np.arange(0, len(x) - window + 1, stride)
        inside = (starts >= 1000) & (starts + window <= 2300)
        assert inside.sum() > 0
        np.testing.assert_array_equal(np.isnan(rates.bpm), inside)

    def test_ten_minutes_at_90fps_equal(self):
        # prefix sums restart every chunk, so precision does not drift with length
        rng = np.random.default_rng(11)
        fps = 90.0
        x = noisy_pulse(rng, int(600 * fps), fps, -37.5, 1.0)
        x += np.linspace(0.0, 50.0, len(x))
        assert assert_matches_fft(Waveform(x, fps)) == 0


class TestPulseRate:
    def test_90bpm_sine(self):
        rates = pulse_rate(sine(1.5, 90.0, 15.0), window_s=10.0, stride_frames=90)
        np.testing.assert_allclose(rates.bpm, 90.0)

    def test_one_bpm_quantization_at_90fps(self):
        rates = pulse_rate(sine(1.2, 90.0, 12.0), window_s=10.0,
                           stride_frames=30, nfft=5400)
        # 90 fps with nfft 5400 gives exactly 1 bpm bins
        resolution = 90.0 * 60.0 / 5400
        assert resolution == 1.0
        np.testing.assert_allclose(rates.bpm % 1.0, 0.0, atol=1e-9)

    def test_chirp_tracks_instantaneous_rate(self):
        fps, dur = 90.0, 60.0
        t = np.arange(int(fps * dur)) / fps
        bpm0, bpm1 = 60.0, 120.0
        inst_bpm = bpm0 + (bpm1 - bpm0) * t / dur
        phase = 2 * np.pi * np.cumsum(inst_bpm / 60.0) / fps
        w = Waveform(np.sin(phase), fps)
        rates = pulse_rate(w, window_s=10.0, stride_frames=90)
        expected = bpm0 + (bpm1 - bpm0) * rates.times_s / dur
        assert np.abs(rates.bpm - expected).max() <= 2.0

    def test_degenerate_window_marked_nan(self):
        flat = Waveform(np.full(950, 2.0), 90.0)
        rates = pulse_rate(flat, window_s=10.0, stride_frames=25)
        assert np.all(np.isnan(rates.bpm))

    def test_scale_and_offset_invariance(self):
        w = sine(1.1, 90.0, 14.0)
        shifted = Waveform(5.0 + 3.0 * w.samples, w.fps)
        a = pulse_rate(w, stride_frames=45)
        b = pulse_rate(shifted, stride_frames=45)
        np.testing.assert_array_equal(a.bpm, b.bpm)

    @pytest.mark.parametrize("stride", [0, -5])
    def test_stride_below_one_rejected(self, stride):
        with pytest.raises(InvalidInputError, match="stride_frames"):
            pulse_rate(sine(1.5, 90.0, 15.0), stride_frames=stride)

    @pytest.mark.parametrize("window_s", [0.0, 0.004, 0.011])
    def test_window_under_two_samples_rejected(self, window_s):
        with pytest.raises(InvalidInputError, match="at least 2"):
            pulse_rate(sine(1.5, 90.0, 15.0), window_s=window_s)

    def test_cached_tables_give_the_same_rates(self):
        # a: the reference layout; b: more windows; c: only the fps differs
        waves = {"a": (sine(1.3, 90.0, 14.0), 10.0), "b": (sine(1.7, 90.0, 17.0), 10.0),
                 "c": (sine(1.3, 60.0, 21.0), 15.0)}

        def rates(name):
            wave, window_s = waves[name]
            return pulse_rate(wave, window_s=window_s, stride_frames=7)

        _rate_tables.cache_clear()
        cold = {name: rates(name) for name in waves}
        assert _rate_tables.cache_info().currsize == 3
        for name in ("b", "a", "c", "a", "c", "b"):
            np.testing.assert_array_equal(rates(name).bpm, cold[name].bpm)
        for name in waves:
            _rate_tables.cache_clear()
            np.testing.assert_array_equal(rates(name).bpm, cold[name].bpm)
            np.testing.assert_array_equal(rates(name).times_s, cold[name].times_s)

    def test_cached_tables_are_read_only(self):
        _rate_tables.cache_clear()
        pulse_rate(sine(1.5, 90.0, 15.0), stride_frames=9)
        in_band, per_chunk, twiddles, dirichlet = _rate_tables(90.0, 900, 9, DEFAULT_NFFT, 51)
        assert _rate_tables.cache_info().hits == 1
        assert twiddles.shape == (len(in_band), (per_chunk - 1) * 9 + 900)
        assert dirichlet.shape == (len(in_band), 1)
        for table in (in_band, twiddles, dirichlet):
            assert not table.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_tables_over_the_cell_budget_rejected(self, monkeypatch):
        # the study's layout: 201 in-band bins × one 2,696-sample chunk span
        w = Waveform(np.sin(np.arange(2696) / 9.0), 90.0)
        monkeypatch.setattr(signal_core, "MAX_CELLS", 541_895)
        _rate_tables.cache_clear()
        with pytest.raises(InvalidInputError,
                           match="nfft=5400 with a 900-sample window asks for an array of 5.419e"):
            pulse_rate(w)
        with pytest.raises(InvalidInputError, match="^nfft=541896 asks for an array of 5.419e"):
            pulse_rate(w, nfft=541_896)
        monkeypatch.setattr(signal_core, "MAX_CELLS", 541_896)
        assert np.all(np.isfinite(pulse_rate(w).bpm))

    def test_times_strictly_increasing_and_in_band(self):
        rates = pulse_rate(sine(2.0, 90.0, 13.0), stride_frames=7)
        assert np.all(np.diff(rates.times_s) > 0)
        assert np.all((rates.bpm >= 39.6) & (rates.bpm <= 240.0))


class TestBinBlocks:
    """The in-band bins go in blocks of `_BLOCK_BINS`: the block size changes
    no rate, bit for bit, and bounds the scratch of a call."""

    @staticmethod
    def sweep(fps, stride):
        """40 s whose rate sweeps from 60 to 200 bpm, so the peak moves through
        later blocks, with a flat stretch that reads NaN; and its in-band bins."""
        rng = np.random.default_rng(int(fps) + stride)
        n = int(40 * fps)
        phase = 2 * np.pi * np.cumsum(np.linspace(1.0, 200.0 / 60.0, n)) / fps
        x = np.sin(phase) + rng.normal(0.0, 0.3, n)
        x[int(12 * fps):int(25 * fps)] = 0.5
        bins = int(band_bin_mask(DEFAULT_NFFT // 2 + 1, fps, DEFAULT_NFFT,
                                 (RATE_BAND_HZ[0] * 60.0, RATE_BAND_HZ[1] * 60.0)).sum())
        assert bins == (201 if fps == 90.0 else 602)
        return Waveform(x, fps), bins

    @pytest.mark.parametrize("fps", [90.0, 30.0])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_rates_do_not_depend_on_block_size(self, monkeypatch, fps, stride):
        w, bins = self.sweep(fps, stride)
        want = pulse_rate(w, stride_frames=stride).bpm
        assert np.isnan(want).any()
        assert np.nanmax(want) > 190.0  # in-band bin 150 or later: block 5 or later
        for size in (1, 7, bins, bins + 13):
            monkeypatch.setattr(evaluate, "_BLOCK_BINS", size)
            _rate_tables.cache_clear()
            np.testing.assert_array_equal(pulse_rate(w, stride_frames=stride).bpm, want)

    @pytest.mark.parametrize("fps", [90.0, 30.0])
    @pytest.mark.parametrize("stride", [1, 7])
    def test_rates_do_not_depend_on_chunk_size(self, monkeypatch, fps, stride):
        # the prefix sums restart at each chunk, so the chunk size moves their
        # rounding; the rates, which are all that reaches a file, stay put
        w, bins = self.sweep(fps, stride)
        windows = (len(w) - int(10 * fps)) // stride + 1
        rates = {}
        for cells in (2 ** 15, 2 ** 17, 2 ** 19):
            monkeypatch.setattr(evaluate, "_CHUNK_CELLS", cells)
            _rate_tables.cache_clear()
            rates[cells] = pulse_rate(w, stride_frames=stride).bpm
            assert _rate_tables(fps, int(10 * fps), stride, DEFAULT_NFFT, windows)[1] \
                == min(cells // (bins * stride), windows)
        _rate_tables.cache_clear()
        assert np.isnan(rates[2 ** 19]).any()
        for cells in (2 ** 15, 2 ** 17):
            np.testing.assert_array_equal(rates[cells], rates[2 ** 19])

    def test_warm_call_scratch_is_bounded(self):
        # the study's shape: 2,696 samples at 90 fps, 201 in-band bins.  With
        # every bin at once, a warm call's scratch peaked at about 9 MB
        rng = np.random.default_rng(5)
        w = Waveform(noisy_pulse(rng, 2696, 90.0, 0.0, 1.0), 90.0)
        pulse_rate(w)
        tracemalloc.start()
        try:
            pulse_rate(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6


class TestErrorReport:
    def test_identical_series(self):
        truth = np.linspace(60.0, 90.0, 20)
        report = error_metrics(truth, truth)
        assert report.me_bpm == 0.0
        assert report.mae_bpm == 0.0
        assert report.rmse_bpm == 0.0
        assert report.pearson_r == pytest.approx(1.0)

    def test_constant_offset(self):
        base = np.linspace(60.0, 90.0, 20)
        report = error_metrics(base + 5.0, base)
        assert report.me_bpm == pytest.approx(5.0)
        assert report.mae_bpm == pytest.approx(5.0)
        assert report.rmse_bpm == pytest.approx(5.0)
        assert report.pearson_r == pytest.approx(1.0)

    def test_reversed_ramp_anticorrelated(self):
        base = np.linspace(60.0, 90.0, 20)
        report = error_metrics(base[::-1], base)
        assert report.pearson_r == pytest.approx(-1.0)

    def test_rmse_decomposition(self):
        rng = np.random.default_rng(0)
        pred = 70.0 + rng.normal(0, 5, 100)
        truth = 70.0 + rng.normal(0, 5, 100)
        report = error_metrics(pred, truth)
        diff = pred - truth
        assert report.rmse_bpm ** 2 == pytest.approx(
            report.me_bpm ** 2 + diff.var(), rel=1e-9)
        assert report.rmse_bpm >= abs(report.me_bpm)

    def test_nan_pairs_excluded(self):
        report = error_metrics([60.0, np.nan, 80.0, 90.0], [61.0, 70.0, np.nan, 89.0])
        assert report.mae_bpm == pytest.approx(1.0)

    def test_constant_series_has_no_pearson(self):
        report = error_metrics([70.0, 74.0, 71.0, 73.0], [72.0, 72.0, 72.0, 72.0])
        assert report.pearson_r is None
        assert report.me_bpm == 0.0
        assert report.mae_bpm == pytest.approx(1.5)
        assert report.rmse_bpm == pytest.approx(np.sqrt(2.5))
        assert report.to_dict()["pearson_r"] is None

    def test_pearson_independent_of_blas_threads(self):
        # enough pairs that a threaded BLAS dot product would split the sum
        code = ("import numpy as np; from pulsegate.evaluate import error_metrics\n"
                "for seed in range(4):\n"
                "    rng = np.random.default_rng(seed)\n"
                "    truth = 70.0 + rng.normal(0.0, 5.0, 40_000)\n"
                "    pred = truth + rng.normal(0.0, 2.0, truth.size)\n"
                "    print(repr(error_metrics(pred, truth).pearson_r))")
        src = str(Path(pulsegate.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        values = {subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                                 text=True, timeout=60,
                                 env={**os.environ, "PYTHONPATH": path,
                                      "OPENBLAS_NUM_THREADS": threads}).stdout
                  for threads in ("1", "2")}
        assert len(values) == 1, values

    def test_no_valid_pairs_rejected(self):
        with pytest.raises(InvalidInputError, match="valid rate pairs"):
            error_metrics([np.nan, np.nan, 60.0], [60.0, 60.0, np.nan])

    def test_affine_protocol_zero_error(self):
        # identical processing of prediction and truth: affine-related
        # waveforms give identical rate series, hence zero error
        fps, dur = 90.0, 30.0
        t = np.arange(int(fps * dur)) / fps
        inst_bpm = 60.0 + 2.0 * t
        phase = 2 * np.pi * np.cumsum(inst_bpm / 60.0) / fps
        w = Waveform(np.sin(phase), fps)
        affine = Waveform(2.0 * w.samples + 1.0, w.fps)
        a = pulse_rate(w, stride_frames=30)
        b = pulse_rate(affine, stride_frames=30)
        np.testing.assert_array_equal(a.times_s, b.times_s)
        report = error_metrics(b.bpm, a.bpm)
        assert report.mae_bpm == 0.0
        assert report.pearson_r == pytest.approx(1.0)
