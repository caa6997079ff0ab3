import numpy as np
import pytest

from pulsegate.errors import InvalidInputError
from pulsegate.features import (
    _AMPD_CHUNK_CELLS,
    FEATURE_NAMES,
    SNR_FLOOR_DB,
    ampd_peaks,
    ampd_rows,
    extract_features,
    snr_db,
    snr_rows,
)
from pulsegate.signal_core import (
    Waveform,
    band_bin_mask,
    hilbert_envelope,
    hilbert_envelope_rows,
    power_spectrum,
)


def column(table, name):
    """The named column of a feature table."""
    return table.matrix[:, FEATURE_NAMES.index(name)]


def sine_with_interior_peaks(freq_hz, fps, n_cycles, phase_frac=0.6):
    """Sine whose first maximum sits phase_frac periods in, away from edges."""
    period = fps / freq_hz
    first_peak = phase_frac * period
    phase0 = np.pi / 2 - 2 * np.pi * freq_hz * first_peak / fps
    n = int(round(first_peak + (n_cycles - 1 + phase_frac) * period))
    t = np.arange(n) / fps
    x = np.sin(2 * np.pi * freq_hz * t + phase0)
    peaks = first_peak + period * np.arange(n_cycles)
    return Waveform(x, fps), peaks


def arc_train(arc_lengths, fps=30.0):
    """Concatenated cosine arcs: troughs exactly at the arc boundaries."""
    segments = [-np.cos(2 * np.pi * np.arange(length) / length)
                for length in arc_lengths]
    samples = np.concatenate(segments + [np.array([-1.0])])
    troughs = np.cumsum(arc_lengths)[:-1]
    return Waveform(samples, fps), troughs


def brute_force_maxima(x):
    """Strict local maxima of the linearly detrended signal."""
    x = np.asarray(x, float)
    t = np.arange(x.size)
    slope, intercept = np.polyfit(t, x, 1)
    x = x - (slope * t + intercept)
    return np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])) + 1


class TestAmpd:
    def test_sine_peak_count_and_positions(self):
        for freq, cycles in [(1.2, 10), (0.9, 8), (2.0, 14)]:
            w, expected = sine_with_interior_peaks(freq, 30.0, cycles)
            peaks = np.flatnonzero(ampd_rows(w.samples[None])[0])
            assert peaks.size == cycles
            assert np.abs(peaks - expected).max() <= 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            freq = float(rng.uniform(0.8, 2.5))
            cycles = int(rng.integers(6, 15))
            w, _ = sine_with_interior_peaks(freq, 30.0, cycles)
            peaks = np.flatnonzero(ampd_rows(w.samples[None])[0])
            oracle = brute_force_maxima(w.samples)
            assert peaks.size == oracle.size
            assert np.abs(peaks - oracle).max() <= 1

    def test_monotone_signal_has_no_peaks(self):
        ramp = np.linspace(0.0, 1.0, 120)
        convex = np.exp(np.linspace(0.0, 2.0, 120))
        assert not ampd_rows(np.stack([ramp, convex])).any()

    def test_negated_signal_locates_troughs(self):
        w, troughs = arc_train([26, 34, 26, 34, 26, 34])
        found = np.flatnonzero(ampd_rows(-w.samples[None])[0])
        np.testing.assert_array_equal(found, troughs)

    def test_output_sorted_and_locally_maximal(self):
        w, _ = sine_with_interior_peaks(1.5, 30.0, 9)
        peaks = np.flatnonzero(ampd_rows(w.samples[None])[0])
        assert np.all(np.diff(peaks) > 0)
        x = w.samples
        for p in peaks:
            assert x[p] >= x[p - 1] - 1e-12 and x[p] >= x[p + 1] - 1e-12

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError, match="at least 8 samples"):
            ampd_rows(np.arange(5.0)[None])


class TestSnr:
    def test_pure_tone_high_snr(self):
        fps = 90.0
        t = np.arange(900) / fps
        tone = np.sin(2 * np.pi * 1.5 * t)[None]
        # on the native grid the tone occupies a single bin
        assert snr_rows(tone, fps, 900)[0] >= 30.0
        # zero-padding spreads rect-window sidelobes across the band, which
        # caps a clean 10 s tone near 10 dB (frozen from the oracle run)
        assert snr_rows(tone, fps, 5400)[0] == pytest.approx(10.06, abs=0.5)

    def test_flatline_hits_floor(self):
        assert snr_rows(np.ones((1, 900)), 90.0, 5400)[0] == SNR_FLOOR_DB

    def test_white_noise_near_template_fraction(self):
        # Monte-Carlo oracle: under a flat spectrum the width-only prediction
        # is 10*log10(w_sig/(W - w_sig)); peak selection plus the correlation
        # of zero-padded bins biases the realized value upward by ~5 dB.
        rng = np.random.default_rng(1)
        fps, nfft = 90.0, 5400
        noise = rng.standard_normal((100, 900))
        values = snr_rows(noise, fps, nfft)
        predictions = []
        for x in noise:
            power = np.abs(np.fft.rfft(x - x.mean(), nfft)) ** 2
            freqs = np.arange(power.size) * fps * 60.0 / nfft
            in_band = (freqs >= 40.0) & (freqs <= 240.0)
            peak = freqs[in_band][np.argmax(power[in_band])]
            template = in_band & ((np.abs(freqs - peak) <= 6.0)
                                  | (np.abs(freqs - 2 * peak) <= 12.0))
            width = template.sum()
            total = in_band.sum()
            predictions.append(10 * np.log10(width / (total - width)))
        pred = np.median(predictions)
        realized = np.median(values)
        assert pred <= realized <= pred + 6.5


class TestExtractFeatures:
    def test_metronomic_train_has_zero_variability(self):
        w, _ = arc_train([30] * 12)
        table = extract_features(w, window_s=10.0, stride_s=1.0, nfft=5400)
        assert len(table) >= 1
        assert not table.degenerate.any()
        np.testing.assert_allclose(column(table, "ibi_mean"), 1.0, atol=0.01, rtol=0)
        np.testing.assert_allclose(column(table, "ibi_std"), 0.0, atol=1e-9)
        np.testing.assert_allclose(column(table, "rmssd"), 0.0, atol=1e-9)

    def test_alternating_ibis_give_rmssd_two_delta(self):
        # arcs alternate 26 and 34 samples: ibis p -+ delta with p=1s,
        # delta=4/30 s, so successive differences are +-2*delta exactly
        w, _ = arc_train([26, 34] * 6)
        delta = 4.0 / 30.0
        table = extract_features(w, window_s=10.0, stride_s=10.0, nfft=5400)
        assert not table.degenerate[0]
        assert column(table, "rmssd")[0] == pytest.approx(2 * delta, abs=1e-9)

    def test_flatline_with_noise_degenerate_peaks(self):
        rng = np.random.default_rng(2)
        eps = 1e-4
        w = Waveform(eps * rng.standard_normal(400), 30.0)
        table = extract_features(w, window_s=10.0, stride_s=1.0, nfft=5400)
        np.testing.assert_allclose(column(table, "sigma"), eps, rtol=0.2)

    def test_vector_length_is_eight(self):
        rng = np.random.default_rng(3)
        w = Waveform(rng.standard_normal(700), 30.0)
        table = extract_features(w, window_s=10.0, stride_s=1.0)
        assert table.matrix.shape == (len(table), 8)
        assert table.starts_s.shape == table.degenerate.shape == (len(table),)
        assert len(FEATURE_NAMES) == 8
        assert np.all(np.isfinite(table.matrix))

    def test_window_count_formula(self):
        fps = 30.0
        for n in (300, 329, 330, 360, 615):
            w = Waveform(np.sin(np.arange(n) / 7.0), fps)
            table = extract_features(w, window_s=10.0, stride_s=1.0)
            expected = int(np.floor((n / fps - 10.0) / 1.0)) + 1
            assert len(table) == expected
            np.testing.assert_array_equal(table.starts_s, np.arange(expected))

    def test_amplitude_scaling_behavior(self):
        w, _ = arc_train([26, 34] * 6)
        doubled = Waveform(2.0 * w.samples, w.fps)
        base = extract_features(w, stride_s=10.0)
        scaled = extract_features(doubled, stride_s=10.0)
        for name in ("ibi_mean", "ibi_std", "dibi_mean", "dibi_std", "rmssd"):
            np.testing.assert_allclose(column(scaled, name), column(base, name), atol=1e-12)
        for name in ("sigma", "env_mean"):
            np.testing.assert_allclose(column(scaled, name), 2.0 * column(base, name), rtol=1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError, match="shorter than one"):
            extract_features(Waveform(np.zeros(100), 30.0), window_s=10.0)


def reference_ampd(x):
    """AMPD one window at a time, one boolean row per scale."""
    n = x.size
    t = np.arange(n)
    slope, intercept = np.polyfit(t, x, 1)
    detrended = x - (slope * t + intercept)
    scale = np.max(np.abs(x)) if np.max(np.abs(x)) > 0 else 1.0
    if np.max(np.abs(detrended)) <= 1e-10 * scale:
        return np.empty(0, dtype=int)
    rows = np.zeros((int(np.ceil(n / 2)) - 1, n), dtype=bool)
    for k in range(1, rows.shape[0] + 1):
        mid = detrended[k:n - k]
        rows[k - 1, k:n - k] = (mid > detrended[:n - 2 * k]) & (mid > detrended[2 * k:])
    best = int(np.argmin(n - rows.sum(axis=1)))
    return np.flatnonzero(rows[:best + 1].all(axis=0))


def reference_features(w, window_s=10.0, stride_s=1.0, nfft=5400, band_bpm=(40.0, 240.0)):
    """The per-window extractor: one spectrum, FFT pair and AMPD per window."""
    window = int(round(window_s * w.fps))
    rows, flags = [], []
    for start in range(0, len(w) - window + 1, max(int(round(stride_s * w.fps)), 1)):
        seg = w.samples[start:start + window]
        power = power_spectrum(seg, nfft)
        freqs = np.arange(power.size) * (w.fps * 60.0 / nfft)
        in_band = band_bin_mask(power.size, w.fps, nfft, band_bpm)
        band_power = np.where(in_band, power, 0.0)
        total = band_power.sum()
        snr = SNR_FLOOR_DB
        if total > 0.0:
            peak = freqs[int(np.argmax(band_power))]
            template = in_band & ((np.abs(freqs - peak) <= 6.0)
                                  | (np.abs(freqs - 2.0 * peak) <= 12.0))
            signal = band_power[template].sum()
            noise = max(total - signal, 1e-12 * total)
            snr = max(10.0 * np.log10(signal / noise), SNR_FLOOR_DB)
        gain = np.zeros(window)
        gain[0] = 1.0
        gain[1:(window + 1) // 2] = 2.0
        if window % 2 == 0:
            gain[window // 2] = 1.0
        env_mean = float(np.abs(np.fft.ifft(np.fft.fft(seg) * gain)).mean())
        troughs = reference_ampd(-seg)
        flags.append(troughs.size < 3)
        intervals = [0.0] * 5
        if troughs.size >= 3:
            ibis = np.diff(troughs) / w.fps
            dibis = np.diff(ibis)
            intervals = [float(ibis.mean()), float(ibis.std()),
                         float(dibis.mean()) if dibis.size else 0.0,
                         float(dibis.std()) if dibis.size else 0.0,
                         float(np.sqrt(np.mean(dibis ** 2))) if dibis.size else 0.0]
        rows.append([snr, float(seg.std()), env_mean, *intervals])
    return np.array(rows), flags


def reference_wave(kind, fps, duration_s=16.0):
    rng = np.random.default_rng(int(fps))
    t = np.arange(int(round(duration_s * fps))) / fps
    if kind == "pulse":
        phase = 2 * np.pi * (1.2 * t + 0.1 * np.sin(2 * np.pi * 0.07 * t))
        x = np.sin(phase) + 0.3 * np.sin(2 * phase + 1.0) + 0.05 * rng.standard_normal(t.size)
    elif kind == "noise":
        x = rng.standard_normal(t.size)
    elif kind == "flat":
        x = np.full(t.size, 2.5)
    elif kind == "zero":
        x = np.zeros(t.size)
    elif kind == "ramp":
        x = 0.3 - 0.7 * t
    else:  # "few_troughs": at most two troughs in a 10 s window
        x = np.sin(2 * np.pi * 0.15 * t) + 1e-3 * rng.standard_normal(t.size)
    return Waveform(x, fps)


class TestBatchedMatchesPerWindow:
    @pytest.mark.parametrize("fps", [20.0, 30.0, 90.0])
    @pytest.mark.parametrize("kind", ["pulse", "noise", "flat", "zero", "ramp", "few_troughs"])
    def test_bit_identical(self, kind, fps):
        w = reference_wave(kind, fps)
        table = extract_features(w)
        expected, flags = reference_features(w)
        assert np.array_equal(table.matrix, expected)
        assert table.degenerate.tolist() == flags
        assert all(flags) == (kind in ("flat", "zero", "ramp", "few_troughs"))

    def test_bit_identical_across_chunks(self):
        w = reference_wave("pulse", 90.0, duration_s=30.0)
        table = extract_features(w)
        per_chunk = _AMPD_CHUNK_CELLS // (449 * 900)  # 449 scales of 900-sample windows
        assert len(table) > 2 * per_chunk
        expected, flags = reference_features(w)
        assert np.array_equal(table.matrix, expected)
        assert table.degenerate.tolist() == flags


# each one-row view, and its row function on a one-row stack
ONE_ROW_VIEWS = {
    "ampd_peaks": (ampd_peaks, lambda x, fps: np.flatnonzero(ampd_rows(x)[0])),
    "snr_db": (snr_db, lambda x, fps: snr_rows(x, fps, 5400)[0]),
    "hilbert_envelope": (lambda w: hilbert_envelope(w).samples,
                         lambda x, fps: hilbert_envelope_rows(x)[0]),
}


@pytest.mark.parametrize("name", sorted(ONE_ROW_VIEWS))
@pytest.mark.parametrize("kind", ["pulse", "noise", "flat"])
def test_one_row_view_matches_its_row_function(name, kind):
    view, rows = ONE_ROW_VIEWS[name]
    w = reference_wave(kind, 30.0)
    assert np.array_equal(view(w), rows(w.samples[None], w.fps))
