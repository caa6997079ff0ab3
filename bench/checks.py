"""Output checks computed apart from the program.

Every check returns a list of failure messages; an empty list means the
outputs are correct.  Counts are derived from the generated inputs, digests
from `hashlib`, rates from the benchmark's own FFT peak picker.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# slack around the synthetic heart-rate range for windowed spectral peaks
TRUTH_RATE_SLACK_BPM = 1.0
# median GREEN/CHROM rate of the constant 72 bpm chain scene
CHAIN_RATE_TOL_BPM = 1.0
DUAL_TOL = 1e-6


def read_csv(path: Path, failures: list) -> list[list[float]]:
    """Numeric rows of a CSV; a first row that is not numeric is a header."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    try:
        [float(x) for x in rows[0]]
    except (ValueError, IndexError):
        rows = rows[1:]
    values = []
    for r in rows:
        try:
            values.append([float(x) for x in r])
        except ValueError as exc:
            failures.append(f"{path.name}: {exc}")
            return []
        if not all(math.isfinite(x) for x in values[-1]):
            failures.append(f"{path.name}: non-finite cell in {r}")
            return []
    return values


def peak_rates(samples, fps: float, window_s=10.0, stride_s=1.0, band_bpm=(40.0, 240.0),
               nfft=16384) -> np.ndarray:
    """Strongest in-band FFT peak (bpm) of each sliding window."""
    win = int(round(window_s * fps))
    stride = max(int(round(stride_s * fps)), 1)
    segs = np.lib.stride_tricks.sliding_window_view(np.asarray(samples, float), win)[::stride]
    power = np.abs(np.fft.rfft(segs - segs.mean(axis=1, keepdims=True), nfft, axis=1)) ** 2
    freqs = np.fft.rfftfreq(nfft, 1.0 / fps) * 60.0
    band = (freqs >= band_bpm[0]) & (freqs <= band_bpm[1])
    return freqs[band][np.argmax(power[:, band], axis=1)]


def n_windows(duration_s, window_s, stride_s) -> int:
    return int(math.floor((duration_s - window_s) / stride_s + 1e-9)) + 1


def check_duals(path: Path, kind: str, bound: float, live_rows: int, failures: list):
    coef = np.asarray(json.loads(path.read_text())["dual_coef"], dtype=float)
    if kind == "two":
        if abs(coef.sum()) > DUAL_TOL:
            failures.append(f"{path.name}: two-class duals sum to {coef.sum()!r}, not 0")
        if np.abs(coef).max() > bound * (1 + 1e-9):
            failures.append(f"{path.name}: |coef| {np.abs(coef).max()!r} > C={bound}")
    else:
        target = bound * live_rows
        if abs(coef.sum() - target) > DUAL_TOL * max(1.0, target):
            failures.append(f"{path.name}: one-class duals sum to {coef.sum()!r}, "
                            f"not nu x {live_rows} = {target!r}")
        if not (np.all(coef > 0) and np.all(coef <= 1 + 1e-12)):
            failures.append(f"{path.name}: one-class coef outside (0, 1]")


# where each key of the generated experiment config is echoed in report.json
_FLAT_SECTIONS = ("scene", "corpus", "estimator")
_ECHO_RENAMES = {
    ("negatives", "kinds"): ("negative_kinds",),
    ("negatives", "normal_sigma"): ("normal_sigma",),
    ("negatives", "uniform_bounds"): ("uniform_bounds",),
    ("train", "nfft"): ("train_cfg", "loss", "nfft"),
    ("train", "band_bpm"): ("train_cfg", "loss", "band_bpm"),
    ("features", "window_s"): ("feature_window_s",),
    ("features", "stride_s"): ("feature_stride_s",),
    ("svm", "C"): ("svm_C",),
    ("svm", "nu"): ("svm_nu",),
    ("svm", "standardize"): ("svm_standardize",),
    ("rate_eval", "window_s"): ("rate_window_s",),
    ("rate_eval", "stride_frames"): ("rate_stride_frames",),
    ("rate_eval", "resample_fps"): ("rate_resample_fps",),
}


def _echo_path(path: tuple) -> tuple | None:
    if path in _ECHO_RENAMES:
        return _ECHO_RENAMES[path]
    if len(path) == 1:
        return path
    if path[0] in _FLAT_SECTIONS:
        return path[1:]
    if path[0] == "train":
        return ("train_cfg", path[1])
    return None


def check_config_echo(config: dict, echo: dict, failures: list):
    """Every key of the generated config must be echoed with its value."""
    for section, value in config.items():
        leaves = value.items() if isinstance(value, dict) else [(None, value)]
        for key, leaf in leaves:
            path = (section,) if key is None else (section, key)
            target = _echo_path(path)
            if target is None:
                failures.append(f"config key {'.'.join(path)} has no echo in report.json")
                continue
            echoed = echo
            for part in target:
                echoed = echoed.get(part) if isinstance(echoed, dict) else None
            if echoed != leaf:
                failures.append(f"config {'.'.join(path)}={leaf!r} echoed as "
                                f"{'.'.join(target)}={echoed!r}")


def check_study(config: dict, out: Path, mae_bound_bpm: float) -> list[str]:
    failures = []
    report = json.loads((out / "report.json").read_text())
    check_config_echo(config, report["config"], failures)

    written = {str(p.relative_to(out)) for p in out.rglob("*")
               if p.is_file() and p.name not in ("report.json", "report.txt")}
    manifest = report["manifest"]
    if set(manifest) != written:
        failures.append(f"manifest and written files differ: "
                        f"{sorted(set(manifest) ^ written)[:5]}")
    for rel in sorted(written & set(manifest)):
        if hashlib.sha256((out / rel).read_bytes()).hexdigest() != manifest[rel]:
            failures.append(f"manifest digest of {rel} does not match")

    fps = config["fps"]
    corpus, feats = config["corpus"], config["features"]
    eval_frames = round(corpus["eval_duration_s"] * fps)
    n_test = corpus["n_test_pos"] + corpus["n_test_neg"]
    windows = n_windows(corpus["eval_duration_s"], feats["window_s"], feats["stride_s"])
    rows = {p: read_csv(p, failures) for p in sorted(out.rglob("*.csv"))}

    def expect_rows(path, n):
        if path not in rows:
            failures.append(f"missing {path.relative_to(out)}")
        elif len(rows[path]) != n:
            failures.append(f"{path.relative_to(out)}: {len(rows[path])} rows, expected {n}")

    for variant in config["variants"]:
        metrics = report["variants"][variant]
        for kind in ("two_class", "one_class"):
            if metrics[kind]["frames"] != n_test * eval_frames:
                failures.append(f"{variant} {kind}: {metrics[kind]['frames']} frames, "
                                f"expected {n_test * eval_frames}")
        n_val = corpus["n_val_svm_pos"] + corpus["n_val_svm_neg"]
        expect_rows(out / "features" / variant / "val.csv", n_val * windows)
        expect_rows(out / "features" / variant / "test.csv", n_test * windows)
        expect_rows(out / "models" / f"history_{variant}.csv", config["train"]["steps"])
        waves = sorted((out / "waves" / variant).glob("*.csv"))
        if len(waves) != n_test:
            failures.append(f"waves/{variant}: {len(waves)} files, expected {n_test}")
        for path in waves:
            expect_rows(path, eval_frames)
        check_duals(out / "svm" / f"{variant}_two_class.json", "two", config["svm"]["C"],
                    0, failures)
        check_duals(out / "svm" / f"{variant}_one_class.json", "one", config["svm"]["nu"],
                    corpus["n_val_svm_pos"] * windows, failures)

    for name in config["baselines"]:
        waves = sorted((out / "waves" / f"baseline_{name}").glob("*.csv"))
        if len(waves) != corpus["n_test_pos"]:
            failures.append(f"baseline {name}: {len(waves)} waves, "
                            f"expected {corpus['n_test_pos']}")
        for path in waves:
            expect_rows(path, eval_frames)
        mae = report["baselines"][name]["rates"]["mae_bpm"]
        if not mae < mae_bound_bpm:
            failures.append(f"baseline {name}: MAE {mae!r} bpm >= {mae_bound_bpm}")

    scene = config["scene"]
    lo = max(scene["hr_range_bpm"][0] - scene["hrv_clamp_bpm"], 40.0)
    hi = min(scene["hr_range_bpm"][1] + scene["hrv_clamp_bpm"], 240.0)
    truths = sorted((out / "corpus").glob("train_pos_*_gt.csv"))
    if len(truths) != corpus["n_train_pos"]:
        failures.append(f"{len(truths)} ground-truth waves, expected {corpus['n_train_pos']}")
    for path in truths:
        values = rows.get(path, [])
        if len(values) != round(corpus["train_duration_s"] * fps):
            failures.append(f"{path.name}: {len(values)} rows")
            continue
        rates = peak_rates([v[1] for v in values], fps)
        if rates.min() < lo - TRUTH_RATE_SLACK_BPM or rates.max() > hi + TRUTH_RATE_SLACK_BPM:
            failures.append(f"{path.name}: rates {rates.min():.2f}-{rates.max():.2f} bpm "
                            f"outside the trajectory bounds {lo}-{hi}")
    return failures


def check_chain(scene: dict, train: dict, d: Path) -> list[str]:
    failures = []
    fps = scene["fps"]
    frames = round(scene["duration_s"] * fps)
    windows = n_windows(scene["duration_s"], 10.0, 1.0)

    for name in ("pos", "neg"):
        meta = json.loads((d / "corpus" / f"{name}.json").read_text())
        shape = [meta["t"], meta["h"], meta["w"], meta["c"]]
        if shape != [frames, *scene["dims"], 3] or meta["fps"] != fps:
            failures.append(f"{name}.json: shape {shape} at {meta['fps']} fps")
        size = (d / "corpus" / f"{name}.bin").stat().st_size
        if size != 4 * math.prod(shape):
            failures.append(f"{name}.bin: {size} bytes for shape {shape}")

    waves = {}
    for path in [d / "corpus" / "gt.csv",
                 *(d / f"{n}.csv" for n in ("green", "chrom", "pos", "model_pos", "model_neg"))]:
        waves[path.stem] = read_csv(path, failures)
        if len(waves[path.stem]) != frames:
            failures.append(f"{path.name}: {len(waves[path.stem])} rows, expected {frames}")

    model = json.loads((d / "model.json").read_text())
    f, k = train["estimator"]["filters"], train["estimator"]["kernel_len"]
    n_params = sum(len(model[key]) for key in ("w1", "b1", "w2", "b2"))
    if n_params != f * 3 * k + f + f * k + 1:
        failures.append(f"model.json: {n_params} parameters, "
                        f"expected {f * 3 * k + f + f * k + 1}")

    for side, label in (("pos", 1), ("neg", -1)):
        table = read_csv(d / f"feat_{side}.csv", failures)
        if len(table) != windows or any(r[-1] != label for r in table):
            failures.append(f"feat_{side}.csv: {len(table)} rows, expected {windows} "
                            f"labelled {label}")
    check_duals(d / "svm_two.json", "two", 1.0, 0, failures)
    check_duals(d / "svm_one.json", "one", 0.5, windows, failures)

    predictions = read_csv(d / "predict.csv", failures)
    if len(predictions) != windows:
        failures.append(f"predict.csv: {len(predictions)} rows, expected {windows}")
    for _, decision, label in predictions:
        if (label == 1) != (decision > 0) or label not in (1, -1):
            failures.append(f"predict.csv: label {label} for decision {decision!r}")
            break

    rate = json.loads((d / "rate.json").read_text())
    green = float(np.median([v for v in rate["pred"]["bpm"] if v is not None]))
    chrom = float(np.median(peak_rates([v[1] for v in waves["chrom"]], fps)))
    truth = float(scene["hr_trajectory"])
    for name, value in (("GREEN", green), ("CHROM", chrom)):
        if abs(value - truth) > CHAIN_RATE_TOL_BPM:
            failures.append(f"median {name} rate {value:.2f} bpm, scene at {truth} bpm")
    return failures
