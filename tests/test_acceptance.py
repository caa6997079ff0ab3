"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 7-10 and 12 are read from a full run of the bundled desk-scale
experiment config (configs/repro-desk.json); the run is executed once per
session and criterion 12 re-executes it to check byte-level determinism.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from pulsegate.classify import (
    ANOMALOUS,
    LIVE,
    fit_one_class,
    fit_two_class,
    predict,
    rbf_kernel,
    smo_solve_one_class,
    smo_solve_two_class,
)
from pulsegate.estimator import ToyEstimator, _backward, _forward, forward
from pulsegate.evaluate import pulse_rate
from pulsegate.experiment import ExperimentConfig, run_experiment
from pulsegate.features import ampd_peaks, extract_features, feature_matrix
from pulsegate.losses import (
    entropy_loss_value,
    flatness_loss_value,
    loss_mse_flatline,
    loss_neg_pearson,
    loss_spectral_entropy,
    loss_spectral_flatness,
    loss_std,
)
from pulsegate.signal_core import (
    VideoCube,
    Waveform,
    band_bin_mask,
    power_spectrum,
    psd_normalized,
    spatial_mean_trace,
    standardize,
)

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "repro-desk.json"


def report_pass(number, text):
    print(f"[criterion {number:02d}] {text}: PASS")


@pytest.fixture(scope="session")
def desk_config():
    return ExperimentConfig.from_dict(json.loads(CONFIG_PATH.read_text()))


@pytest.fixture(scope="session")
def desk_run(desk_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_run")
    started = time.monotonic()
    report = run_experiment(desk_config, out)
    elapsed = time.monotonic() - started
    return {"report": report, "out": out, "elapsed_s": elapsed}


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


def test_criterion_01_gradient_suite():
    started = time.monotonic()
    fps, n, nfft = 90.0, 256, 512
    rng = np.random.default_rng(123)
    target = standardize(Waveform(rng.standard_normal(n), fps))

    losses = {
        "neg_pearson": lambda w: loss_neg_pearson(w, target),
        "std": loss_std,
        "spectral_entropy": lambda w: loss_spectral_entropy(w, nfft=nfft),
        "spectral_flatness": lambda w: loss_spectral_flatness(w, nfft=nfft),
        "mse_flatline": loss_mse_flatline,
    }
    for name, loss in losses.items():
        for seed in range(20):
            w = standardize(Waveform(np.random.default_rng(seed).standard_normal(n), fps))
            _, grad = loss(w)
            fd = finite_difference(lambda z: loss(Waveform(z, fps))[0], w.samples)
            err = rel_error(grad, fd)
            assert err < 1e-4, f"{name} seed {seed}: rel grad error {err}"

    model = ToyEstimator.init(filters=4, kernel_len=11, seed=9)
    for seed in range(20):
        seed_rng = np.random.default_rng(1000 + seed)
        x = seed_rng.standard_normal((3, n))
        upstream = seed_rng.standard_normal(n)
        _, cache = _forward(model, x[None])
        grads = _backward(model, cache, upstream[None])
        flat = model.flat.copy()

        def scalar_loss(theta):
            model.flat[...] = theta
            out, _ = _forward(model, x[None])
            return float(upstream @ out[0])

        fd = finite_difference(scalar_loss, flat, h=1e-5)
        model.flat[...] = flat
        err = rel_error(grads, fd)
        assert err < 1e-4, f"estimator seed {seed}: rel grad error {err}"

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    report_pass(1, f"gradient suite (5 losses + backward, 20 seeds, {elapsed:.1f}s)")


def test_criterion_02_spectral_invariants():
    rng = np.random.default_rng(7)
    for _ in range(10):
        w = Waveform(rng.standard_normal(600), 60.0)
        psd = psd_normalized(w, nfft=1024)
        assert abs(psd.power.sum() - 1.0) <= 1e-9
        assert np.all(psd.power[~psd.in_band] == 0.0)
        power = power_spectrum(w.samples, 1024)
        centered = w.samples - w.samples.mean()
        assert abs(power.sum() / 1024 - np.sum(centered ** 2)) \
            <= 1e-9 * np.sum(centered ** 2)
        for loss in (loss_spectral_entropy, loss_spectral_flatness):
            value, _ = loss(w, nfft=1024)
            assert 0.0 <= value <= 1.0

    for k in (10, 201, 500):
        flat = np.full(k, 1.0 / k)
        # zero up to float associativity in the entropy sum
        assert abs(entropy_loss_value(flat)) <= 1e-12
        assert abs(flatness_loss_value(flat)) <= 1e-12
        one_bin = np.zeros(k)
        one_bin[k // 3] = 1.0
        assert abs(entropy_loss_value(one_bin) - 1.0) <= 1e-6
        assert abs(flatness_loss_value(one_bin) - 1.0) <= 1e-6
    report_pass(2, "spectral invariants (unit sum, band mask, Parseval, loss range)")


def test_criterion_03_rate_oracle():
    started = time.monotonic()
    fps, nfft = 90.0, 5400
    t = np.arange(900) / fps
    for bpm in range(45, 236):
        w = Waveform(np.sin(2 * np.pi * (bpm / 60.0) * t + 0.7), fps)
        rates = pulse_rate(w, window_s=10.0, stride_frames=900, nfft=nfft)
        assert rates.bpm[0] == float(bpm), f"{bpm} bpm -> {rates.bpm[0]}"
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"rate oracle took {elapsed:.1f}s"
    report_pass(3, f"rate oracle exact at 1 bpm for 45..235 bpm ({elapsed:.1f}s)")


def _interior_sine(freq_hz, fps, n_cycles, phase_frac=0.6):
    period = fps / freq_hz
    first_peak = phase_frac * period
    phase0 = np.pi / 2 - 2 * np.pi * freq_hz * first_peak / fps
    n = int(round(first_peak + (n_cycles - 1 + phase_frac) * period))
    t = np.arange(n) / fps
    return Waveform(np.sin(2 * np.pi * freq_hz * t + phase0), fps)


def _arc_train(arc_lengths, fps=30.0):
    segments = [-np.cos(2 * np.pi * np.arange(length) / length)
                for length in arc_lengths]
    return Waveform(np.concatenate(segments + [np.array([-1.0])]), fps)


def _brute_force_maxima(x):
    x = np.asarray(x, float)
    t = np.arange(x.size)
    slope, intercept = np.polyfit(t, x, 1)
    x = x - (slope * t + intercept)
    return np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])) + 1


def test_criterion_04_ampd_oracle_equivalence():
    rng = np.random.default_rng(17)
    cases = []
    for _ in range(30):
        freq = float(rng.uniform(0.8, 2.6))
        cycles = int(rng.integers(6, 16))
        cases.append(_interior_sine(freq, 30.0, cycles,
                                    phase_frac=float(rng.uniform(0.55, 0.7))))
    for _ in range(20):
        # even arc lengths give unique per-arc maxima; long edge arcs keep the
        # first/last peaks outside AMPD's half-period boundary margin
        interior = [2 * int(rng.integers(11, 20))
                    for _ in range(int(rng.integers(4, 10)))]
        arcs = [44] + interior + [44]
        cases.append(_arc_train(arcs))
    assert len(cases) == 50
    for i, w in enumerate(cases):
        found = ampd_peaks(w)
        oracle = _brute_force_maxima(w.samples)
        assert found.size == oracle.size, f"case {i}: {found.size} vs {oracle.size}"
        assert np.abs(found - oracle).max() <= 1, f"case {i}: index drift"
    report_pass(4, "AMPD matches brute-force local extrema on 50 cases")


def test_criterion_05_feature_correctness():
    metronomic = _arc_train([30] * 12)
    for _, vec in extract_features(metronomic, window_s=10.0, stride_s=1.0, nfft=5400):
        assert vec.ibi_std == pytest.approx(0.0, abs=1e-9)
        assert vec.dibi_std == pytest.approx(0.0, abs=1e-9)
        assert vec.rmssd == pytest.approx(0.0, abs=1e-9)

    alternating = _arc_train([26, 34] * 6)
    delta = 4.0 / 30.0
    windows = extract_features(alternating, window_s=10.0, stride_s=10.0, nfft=5400)
    assert windows[0][1].rmssd == pytest.approx(2 * delta, abs=1e-9)

    rng = np.random.default_rng(3)
    for samples in (rng.standard_normal(400), np.sin(np.arange(500) / 5.0),
                    np.full(350, 1.0) + 1e-6 * rng.standard_normal(350)):
        w = Waveform(samples, 30.0)
        matrix = feature_matrix(extract_features(w, window_s=10.0, stride_s=1.0))
        assert matrix.shape[1] == 8
        assert np.all(np.isfinite(matrix))
    report_pass(5, "feature correctness (metronomic zeros, rmssd=2*delta, length 8)")


def test_criterion_06_svm_properties():
    rng = np.random.default_rng(21)
    dim = 8
    center = np.zeros(dim)
    far = np.zeros(dim)
    far[0] = 4.0
    x = np.vstack([rng.normal(center, 1.0, (200, dim)),
                   rng.normal(far, 1.0, (200, dim))])
    y = np.hstack([np.full(200, LIVE), np.full(200, ANOMALOUS)])

    xs = (x - x.mean(0)) / x.std(0)
    gamma = 1.0 / (dim * xs.var())
    kernel = rbf_kernel(xs, xs, gamma)
    _, _, _, gap2, _ = smo_solve_two_class(kernel, y.astype(float), 1.0, tol=1e-3)
    assert gap2 <= 1e-3

    model = fit_two_class(x, y)
    xt = np.vstack([rng.normal(center, 1.0, (200, dim)),
                    rng.normal(far, 1.0, (200, dim))])
    yt = np.hstack([np.full(200, LIVE), np.full(200, ANOMALOUS)])
    labels, _ = predict(model, xt)
    accuracy = (labels == yt).mean()
    assert accuracy >= 0.95, f"blob accuracy {accuracy}"

    x_one = rng.normal(0.0, 1.0, (500, dim))
    kernel_one = rbf_kernel(x_one, x_one, 1.0 / (dim * x_one.var()))
    _, _, _, gap1, _ = smo_solve_one_class(kernel_one, 0.5, tol=1e-3)
    assert gap1 <= 1e-3
    one = fit_one_class(x_one, nu=0.5)
    labels, _ = predict(one, x_one)
    outlier_fraction = (labels == ANOMALOUS).mean()
    assert 0.4 <= outlier_fraction <= 0.6, f"nu property violated: {outlier_fraction}"
    report_pass(6, f"SVM properties (KKT<=1e-3, blobs {100 * accuracy:.1f}%, "
                   f"outlier fraction {outlier_fraction:.2f})")


def test_criterion_07_hallucination_reproduction(desk_run):
    metrics = desk_run["report"]["variants"]["none"]["snr_db"]
    gap = metrics["positive_median"] - metrics["negative_median"]
    assert gap <= 6.0, (f"positives-only SNR gap {gap:.2f} dB exceeds 6 dB "
                        f"(pos {metrics['positive_median']:.2f}, "
                        f"neg {metrics['negative_median']:.2f})")
    report_pass(7, f"hallucination: positives-only SNR gap {gap:.2f} dB <= 6 dB")


def test_criterion_08_anomaly_awareness(desk_run):
    variants = desk_run["report"]["variants"]
    for name in ("spectral_entropy", "spectral_flatness"):
        snr = variants[name]["snr_db"]
        gap = snr["positive_median"] - snr["negative_median"]
        assert gap >= 6.0, f"{name}: negative SNR only {gap:.2f} dB below positives"
    ratio = variants["std"]["clip_std"]["negative_over_positive"]
    assert ratio < 0.2, f"std variant clip-std ratio {ratio:.3f} >= 0.2"
    report_pass(8, f"anomaly-awareness (spectral gaps >= 6 dB, std ratio {ratio:.3f})")


def test_criterion_09_detection_gain(desk_run):
    variants = desk_run["report"]["variants"]
    none_two = variants["none"]["two_class"]["combined_frame_accuracy"]
    none_one = variants["none"]["one_class"]["combined_frame_accuracy"]
    aware = [v for v in variants if v != "none"]
    best_two = max(variants[v]["two_class"]["combined_frame_accuracy"] for v in aware)
    best_one = max(variants[v]["one_class"]["combined_frame_accuracy"] for v in aware)
    assert best_two >= 0.90, f"best anomaly-aware two-class accuracy {best_two:.3f}"
    assert best_two - none_two >= 0.05, \
        f"two-class gain {100 * (best_two - none_two):.1f}pp < 5pp"
    assert best_one > none_one, \
        f"one-class direction: aware {best_one:.3f} <= positives-only {none_one:.3f}"
    report_pass(9, f"detection gain (two-class {100 * best_two:.1f}% vs "
                   f"{100 * none_two:.1f}%, one-class {100 * best_one:.1f}% vs "
                   f"{100 * none_one:.1f}%)")


def test_criterion_10_no_harm_to_positives(desk_run):
    variants = desk_run["report"]["variants"]
    none_mae = variants["none"]["rates"]["mae_bpm"]
    for name in variants:
        if name == "none":
            continue
        mae = variants[name]["rates"]["mae_bpm"]
        assert abs(mae - none_mae) <= 1.0, \
            f"{name}: MAE {mae:.2f} vs positives-only {none_mae:.2f}"
    report_pass(10, f"no harm to positives (MAE spread within 1 bpm of "
                    f"{none_mae:.2f} bpm)")


def test_criterion_11_edge_padding_regression():
    model = ToyEstimator.init(seed=5)
    cube = VideoCube(np.full((300, 4, 4, 3), 0.4), 30.0)
    out = forward(model, spatial_mean_trace(cube))
    nfft = 512
    power = power_spectrum(out.samples, nfft)
    in_band = band_bin_mask(power.size, out.fps, nfft, (40.0, 240.0))
    total_energy = nfft * float(np.sum(out.samples ** 2))
    assert total_energy > 0.0
    fraction = power[in_band].sum() / total_energy
    assert fraction < 1e-6, f"in-band fraction {fraction:.2e}"
    report_pass(11, f"edge padding: constant video in-band fraction {fraction:.1e}")


def test_training_loss_nonincreasing_in_converged_regime(desk_run):
    # spec invariant: the 50-step moving average of the training loss does
    # not increase once the run has converged (second half of training)
    for history_path in sorted((desk_run["out"] / "models").glob("history_*.csv")):
        rows = history_path.read_text().strip().splitlines()[1:]
        losses = np.array([float(r.split(",")[1]) for r in rows])
        mid = len(losses) // 2
        ma_mid = losses[mid:mid + 50].mean()
        ma_end = losses[-50:].mean()
        assert ma_end <= ma_mid * 1.10 + 1e-9, \
            f"{history_path.name}: MA50 rose {ma_mid:.4f} -> {ma_end:.4f}"


def test_criterion_12_determinism_and_runtime(desk_config, desk_run, tmp_path):
    assert desk_run["elapsed_s"] < 1800.0, \
        f"experiment took {desk_run['elapsed_s']:.0f}s"
    second = tmp_path / "second"
    started = time.monotonic()
    run_experiment(desk_config, second)
    second_elapsed = time.monotonic() - started
    assert second_elapsed < 1800.0
    first_report = (desk_run["out"] / "report.json").read_bytes()
    second_report = (second / "report.json").read_bytes()
    assert first_report == second_report, "report.json differs between runs"
    first_manifest = json.loads(first_report)["manifest"]
    second_manifest = json.loads(second_report)["manifest"]
    assert first_manifest == second_manifest
    report_pass(12, f"determinism (byte-identical reports; runs "
                    f"{desk_run['elapsed_s']:.0f}s/{second_elapsed:.0f}s < 30 min)")
