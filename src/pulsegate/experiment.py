"""End-to-end experiment driver: corpora, estimator variants, SVMs, reports.

The pipeline mirrors the full study shape at desk scale on synthetic data:
generate pulsatile scenes and pulseless negatives, train one positives-only
estimator plus one variant per negative loss, run whole-video inference on
held-out test sets, extract waveform features, fit one- and two-class SVMs on
validation features, and report frame accuracies, hallucination metrics and
pulse-rate errors.  Every artifact is seeded and every written file is hashed
into the report manifest, so a rerun with the same config is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import baselines as bl
from .classify import (
    ANOMALOUS,
    LIVE,
    fit_one_class,
    fit_two_class,
    frame_accuracy,
    predict,
)
from .errors import InvalidArgumentError, PulsegateError, check_keys, parsing
from .estimator import ToyEstimator, TrainConfig, clip_predictions, train
from .evaluate import error_metrics, pulse_rate
from .features import extract_features, feature_matrix, feature_windows
from .fileio import (
    dump_json,
    read_waveform,
    sha256_file,
    write_cube,
    write_features,
    write_waveform,
)
from .losses import LossSpec
from .signal_core import (
    Waveform,
    psd_rows,
    resample_cubic,
    standardize_rows,
    stitch_overlap_add,
)
from .synth import NEGATIVE_KINDS, NegativeTransform, SceneConfig, generate_positive, make_negative

VARIANT_ORDER = ("none", "std", "spectral_entropy", "spectral_flatness")


# where each ExperimentConfig field sits in the experiment JSON: (section,
# key), section None at the top level; a missing key keeps the field default
_JSON_KEYS = {
    **{name: (None, name) for name in ("seed", "fps", "dims", "variants", "baselines")},
    **{name: ("scene", name) for name in (
        "pulse_amplitude", "dicrotic_ratio", "hr_range_bpm", "hrv_step_bpm", "hrv_clamp_bpm",
        "hrv_knot_spacing_s", "train_sensor_noise", "eval_sensor_noise")},
    **{name: ("corpus", name) for name in (
        "n_train_pos", "train_duration_s", "n_val_model", "n_val_svm_pos", "n_val_svm_neg",
        "n_test_pos", "n_test_neg", "eval_duration_s")},
    **{name: ("negatives", name) for name in ("normal_sigma", "uniform_bounds")},
    **{name: ("estimator", name) for name in ("filters", "kernel_len", "init_scale")},
    "negative_kinds": ("negatives", "kinds"),
    "feature_window_s": ("features", "window_s"), "feature_stride_s": ("features", "stride_s"),
    "svm_C": ("svm", "C"), "svm_nu": ("svm", "nu"), "svm_standardize": ("svm", "standardize"),
    "rate_window_s": ("rate_eval", "window_s"),
    "rate_stride_frames": ("rate_eval", "stride_frames"),
    "rate_resample_fps": ("rate_eval", "resample_fps"),
}
# the keys of the "train" section: TrainConfig fields, less the loss each
# variant sets itself, plus the loss parameters shared by every variant
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)} - {"loss"} | {"nfft", "band_bpm"}


@dataclass
class ExperimentConfig:
    """Validated view of the experiment JSON."""

    seed: int = 7
    fps: float = 20.0
    dims: tuple[int, int] = (12, 12)
    pulse_amplitude: float = 0.015
    dicrotic_ratio: float = 0.25
    hr_range_bpm: tuple[float, float] = (73.0, 77.0)
    hrv_step_bpm: float = 4.0
    hrv_clamp_bpm: float = 8.0
    hrv_knot_spacing_s: float = 2.0
    train_sensor_noise: float = 32.0
    eval_sensor_noise: float = 6.0
    n_train_pos: int = 12
    train_duration_s: float = 20.0
    n_val_model: int = 4
    n_val_svm_pos: int = 16
    n_val_svm_neg: int = 8
    n_test_pos: int = 12
    n_test_neg: int = 12
    eval_duration_s: float = 30.0
    negative_kinds: tuple = NEGATIVE_KINDS
    normal_sigma: float = 3.0
    uniform_bounds: tuple[float, float] = (-3.0, 3.0)
    filters: int = 8
    kernel_len: int = 91
    init_scale: float = 0.1
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    variants: tuple = VARIANT_ORDER
    feature_window_s: float = 10.0
    feature_stride_s: float = 1.0
    svm_C: float = 1.0
    svm_nu: float = 0.5
    svm_standardize: bool = True
    rate_window_s: float = 10.0
    rate_stride_frames: int = 1
    rate_resample_fps: float = 90.0
    nfft: int = 5400
    baselines: tuple = ("green", "chrom", "pos")

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        sections = {section for section, _ in _JSON_KEYS.values()} - {None}
        check_keys(payload, {key for section, key in _JSON_KEYS.values() if section is None}
                   | sections | {"train"}, "experiment config")
        for name in sections:
            check_keys(payload.get(name, {}),
                       {key for section, key in _JSON_KEYS.values() if section == name},
                       f"section {name!r}")
        check_keys(payload.get("train", {}), _TRAIN_KEYS, "section 'train'")
        with parsing("experiment config"):
            train_payload = dict(payload.get("train", {}))
            train_payload.setdefault("seed", payload.get("seed", cls.seed))
            loss_defaults = {"nfft": train_payload.pop("nfft", cls.nfft),
                             "band_bpm": tuple(train_payload.pop("band_bpm", (40.0, 240.0)))}
            train_payload["loss"] = {"positive_loss": "neg_pearson",
                                     "negative_loss": "none", **loss_defaults}
            values = {"train_cfg": TrainConfig.from_dict(train_payload),
                      "nfft": int(loss_defaults["nfft"])}
            for name, (section, key) in _JSON_KEYS.items():
                source = payload.get(section, {}) if section else payload
                if key in source:
                    # cast to the type of the field's default
                    values[name] = type(getattr(cls, name))(source[key])
            cfg = cls(**values)
        cfg.validate()
        return cfg

    def validate(self):
        for kind in self.negative_kinds:
            if kind not in NEGATIVE_KINDS:
                raise InvalidArgumentError(f"unknown negative kind {kind!r}")
        for variant in self.variants:
            if variant not in VARIANT_ORDER:
                raise InvalidArgumentError(f"unknown estimator variant {variant!r}")
        for name in self.baselines:
            if name not in bl.ESTIMATORS:
                raise InvalidArgumentError(f"unknown baseline {name!r}")
        if "none" not in self.variants:
            raise InvalidArgumentError("the positives-only variant 'none' is required")
        if self.train_cfg.clip_len > self.train_duration_s * self.fps:
            raise InvalidArgumentError("clip_len exceeds training scene length")
        if self.eval_duration_s < self.feature_window_s:
            raise InvalidArgumentError("evaluation scenes shorter than one feature window")
        # feature windows start every stride: the last must end on the last frame
        window = int(round(self.feature_window_s * self.fps))
        stride = max(int(round(self.feature_stride_s * self.fps)), 1)
        frames = int(round(self.eval_duration_s * self.fps))
        if (frames - window) % stride:
            raise InvalidArgumentError(
                f"eval_duration_s - feature_window_s ({self.eval_duration_s:g} - "
                f"{self.feature_window_s:g} s) is not a whole number of "
                f"feature_stride_s ({self.feature_stride_s:g} s) strides")
        if self.rate_stride_frames < 1:
            raise InvalidArgumentError(
                f"rate_eval.stride_frames ({self.rate_stride_frames}) must be at least 1")
        # rates come from scenes resampled over their span of (frames - 1) / fps
        rate_window = int(round(self.rate_window_s * self.rate_resample_fps))
        if not 2 <= rate_window <= self.nfft or \
                self.rate_window_s > (frames - 1) / self.fps:
            raise InvalidArgumentError(
                f"rate_eval.window_s ({self.rate_window_s:g} s) must hold 2 to nfft "
                f"({self.nfft}) samples at rate_eval.resample_fps "
                f"({self.rate_resample_fps:g}) and fit in the "
                f"{self.eval_duration_s:g} s evaluation scenes less one frame")


class StageError(PulsegateError):
    """Wraps a failure with the pipeline stage where it occurred."""

    def __init__(self, stage, cause):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def hrv_trajectory(rng, duration_s, hr_lo, hr_hi, step_bpm, clamp_bpm, spacing_s):
    """Bounded random-walk heart-rate trajectory; adds realistic beat wander."""
    center = float(rng.uniform(hr_lo, hr_hi))
    knot_t = np.arange(0.0, duration_s + spacing_s, spacing_s)
    walk = np.cumsum(rng.normal(0.0, step_bpm, knot_t.size))
    walk = np.clip(center + walk - walk.mean(),
                   max(center - clamp_bpm, 40.0), min(center + clamp_bpm, 240.0))
    return list(zip(knot_t.tolist(), walk.tolist()))


class _SeedStream:
    """Deterministic child-seed source; draws occur in a fixed order."""

    def __init__(self, master_seed: int):
        self._rng = np.random.default_rng(master_seed)

    def child(self) -> int:
        return int(self._rng.integers(0, 2 ** 62))


def _scene(cfg: ExperimentConfig, seeds: _SeedStream, duration, noise):
    seed = seeds.child()
    rng = np.random.default_rng(seeds.child())
    trajectory = hrv_trajectory(rng, duration, cfg.hr_range_bpm[0], cfg.hr_range_bpm[1],
                                cfg.hrv_step_bpm, cfg.hrv_clamp_bpm, cfg.hrv_knot_spacing_s)
    scene_cfg = SceneConfig(duration_s=duration, fps=cfg.fps, dims=cfg.dims,
                            hr_trajectory=trajectory, pulse_amplitude=cfg.pulse_amplitude,
                            dicrotic_ratio=cfg.dicrotic_ratio, sensor_noise_sigma=noise,
                            seed=seed)
    return generate_positive(scene_cfg)


def _negative(cfg: ExperimentConfig, seeds: _SeedStream, source_cube, index):
    kind = cfg.negative_kinds[index % len(cfg.negative_kinds)]
    transform = NegativeTransform(kind=kind, normal_sigma=cfg.normal_sigma,
                                  uniform_bounds=cfg.uniform_bounds, seed=seeds.child())
    return kind, make_negative(source_cube, transform)


def build_corpora(cfg: ExperimentConfig):
    """All scene sets, generated in one fixed seed order."""
    seeds = _SeedStream(cfg.seed)
    sets = {}
    sets["train_pos"] = [_scene(cfg, seeds, cfg.train_duration_s, cfg.train_sensor_noise)
                         for _ in range(cfg.n_train_pos)]
    sets["train_neg"] = [_negative(cfg, seeds, cube, i)
                         for i, (cube, _) in enumerate(sets["train_pos"])]
    sets["val_model_pos"] = [_scene(cfg, seeds, cfg.train_duration_s, cfg.train_sensor_noise)
                             for _ in range(cfg.n_val_model)]
    sets["val_model_neg"] = [_negative(cfg, seeds, cube, i)
                             for i, (cube, _) in enumerate(sets["val_model_pos"])]
    sets["val_svm_pos"] = [_scene(cfg, seeds, cfg.eval_duration_s, cfg.eval_sensor_noise)
                           for _ in range(cfg.n_val_svm_pos)]
    neg_sources = [_scene(cfg, seeds, cfg.eval_duration_s, cfg.eval_sensor_noise)
                   for _ in range(cfg.n_val_svm_neg)]
    sets["val_svm_neg"] = [_negative(cfg, seeds, cube, i)
                           for i, (cube, _) in enumerate(neg_sources)]
    sets["test_pos"] = [_scene(cfg, seeds, cfg.eval_duration_s, cfg.eval_sensor_noise)
                        for _ in range(cfg.n_test_pos)]
    neg_sources = [_scene(cfg, seeds, cfg.eval_duration_s, cfg.eval_sensor_noise)
                   for _ in range(cfg.n_test_neg)]
    sets["test_neg"] = [_negative(cfg, seeds, cube, i)
                        for i, (cube, _) in enumerate(neg_sources)]
    return sets


def _write_corpus(out_dir: Path, sets) -> dict:
    corpus_dir = out_dir / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for i, (cube, truth) in enumerate(sets["train_pos"]):
        stem = f"train_pos_{i:02d}"
        write_cube(cube, corpus_dir / f"{stem}.bin")
        write_waveform(truth, corpus_dir / f"{stem}_gt.csv")
        manifest.append({"cube": f"{stem}.bin", "gt": f"{stem}_gt.csv", "positive": True})
    for i, (kind, cube) in enumerate(sets["train_neg"]):
        stem = f"train_neg_{i:02d}_{kind}"
        write_cube(cube, corpus_dir / f"{stem}.bin")
        manifest.append({"cube": f"{stem}.bin", "gt": None, "positive": False})
    dump_json({"samples": manifest}, corpus_dir / "manifest.json")
    return {"dir": corpus_dir}


def _variant_train_config(cfg: ExperimentConfig, variant: str) -> TrainConfig:
    base = cfg.train_cfg
    loss = LossSpec(positive_loss="neg_pearson", negative_loss=variant,
                    nfft=base.loss.nfft, band_bpm=base.loss.band_bpm)
    return replace(base, loss=loss)


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def run_experiment(cfg: ExperimentConfig, out_dir, dry_run: bool = False) -> dict:
    """Execute the full pipeline; returns the report dict (also written as JSON)."""
    out_dir = Path(out_dir)
    if dry_run:
        return {"config_ok": True, "variants": list(cfg.variants)}
    out_dir.mkdir(parents=True, exist_ok=True)
    for sub in ("models", "waves", "features", "svm", "plots"):
        (out_dir / sub).mkdir(exist_ok=True)

    report = {"config": _config_echo(cfg), "variants": {}, "baselines": {}}

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PulsegateError as exc:
            raise StageError(name, exc) from exc

    sets = stage("synth", build_corpora, cfg)
    stage("write-corpus", _write_corpus, out_dir, sets)

    train_corpus = [(cube, truth, True) for cube, truth in sets["train_pos"]] + \
                   [(cube, None, False) for _, cube in sets["train_neg"]]
    val_corpus = [(cube, truth, True) for cube, truth in sets["val_model_pos"]] + \
                 [(cube, None, False) for _, cube in sets["val_model_neg"]]

    clip_len = cfg.train_cfg.clip_len
    test_sets = {"pos": [("pos", f"test_pos_{i:02d}", cube, truth)
                         for i, (cube, truth) in enumerate(sets["test_pos"])],
                 "neg": [("neg", f"test_neg_{i:02d}_{kind}", cube, None)
                         for i, (kind, cube) in enumerate(sets["test_neg"])]}
    val_videos = [("pos", f"val_pos_{i:02d}", cube)
                  for i, (cube, _) in enumerate(sets["val_svm_pos"])] + \
                 [("neg", f"val_neg_{i:02d}_{kind}", cube)
                  for i, (kind, cube) in enumerate(sets["val_svm_neg"])]

    rate_truth = {}
    for _, name, cube, truth in test_sets["pos"]:
        truth_hi = resample_cubic(truth, cfg.rate_resample_fps)
        rate_truth[name] = pulse_rate(truth_hi, cfg.rate_window_s,
                                      cfg.rate_stride_frames, cfg.nfft).bpm

    for variant in cfg.variants:
        model, validation = stage(f"train-{variant}", _train_variant, cfg, variant,
                                  train_corpus, val_corpus, out_dir)
        metrics = stage(f"evaluate-{variant}", _evaluate_variant, cfg, variant,
                        model, test_sets, val_videos, rate_truth, out_dir, clip_len)
        report["variants"][variant] = {**metrics, "validation": validation}

    for name in cfg.baselines:
        report["baselines"][name] = stage(f"baseline-{name}", _evaluate_baseline,
                                          cfg, name, test_sets["pos"], rate_truth,
                                          out_dir)

    stage("plots", _dump_plot_data, cfg, report, out_dir, test_sets, clip_len)

    manifest = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name not in ("report.json", "report.txt"):
            manifest[str(path.relative_to(out_dir))] = sha256_file(path)
    report["manifest"] = manifest
    dump_json(report, out_dir / "report.json")
    (out_dir / "report.txt").write_text(_format_tables(cfg, report))
    return report


def _config_echo(cfg: ExperimentConfig) -> dict:
    echo = {}
    for key, value in vars(cfg).items():
        if key == "train_cfg":
            echo[key] = value.to_dict()
        elif isinstance(value, tuple):
            echo[key] = list(value)
        else:
            echo[key] = value
    return echo


def _train_variant(cfg, variant, train_corpus, val_corpus, out_dir):
    train_cfg = _variant_train_config(cfg, variant)
    init = ToyEstimator.init(filters=cfg.filters, kernel_len=cfg.kernel_len,
                             scale=cfg.init_scale, seed=train_cfg.seed)
    model, history, validation = train(train_cfg, train_corpus, val_corpus=val_corpus,
                                       model=init)
    dump_json(model.to_dict(), out_dir / "models" / f"model_{variant}.json")
    with open(out_dir / "models" / f"history_{variant}.csv", "w") as fh:
        fh.write("step,loss\n")
        for i, value in enumerate(history):
            fh.write(f"{i},{float(value)!r}\n")
    return model, validation


def _infer(model, cube, clip_len):
    """One model pass over a video: raw clip outputs, their starts and their
    raw stitch.  Amplitude must survive into the feature stage: sigma and the
    Hilbert envelope measure distance from a flatline, which per-clip
    standardization would erase."""
    outputs, starts = clip_predictions(model, cube, clip_len, overlap=0.5)
    wave = Waveform(stitch_overlap_add(outputs, starts, cube.data.shape[0]), cube.fps)
    return outputs, starts, wave


def _features_for(cfg, wave):
    windows = extract_features(wave, cfg.feature_window_s, cfg.feature_stride_s, cfg.nfft)
    starts = np.array([t for t, _ in windows])
    return starts, feature_matrix(windows), sum(v.degenerate_peaks for _, v in windows)


def _evaluate_variant(cfg, variant, model, test_sets, val_videos, rate_truth,
                      out_dir, clip_len):
    wave_dir = out_dir / "waves" / variant
    feat_dir = out_dir / "features" / variant
    wave_dir.mkdir(parents=True, exist_ok=True)
    feat_dir.mkdir(parents=True, exist_ok=True)

    val_rows, val_labels = [], []
    degenerate = {"pos": 0, "neg": 0}
    for side, name, cube in val_videos:
        _, _, wave = _infer(model, cube, clip_len)
        _, matrix, n_degenerate = _features_for(cfg, wave)
        degenerate[side] += n_degenerate
        val_rows.append(matrix)
        val_labels.append(np.full(len(matrix), LIVE if side == "pos" else ANOMALOUS))
    val_x = np.vstack(val_rows)
    val_y = np.concatenate(val_labels)
    write_features(feat_dir / "val.csv",
                   np.arange(len(val_x), dtype=float), val_x, val_y.astype(int))

    two = fit_two_class(val_x, val_y, C=cfg.svm_C, standardize=cfg.svm_standardize)
    one = fit_one_class(val_x[val_y == LIVE], nu=cfg.svm_nu,
                        standardize=cfg.svm_standardize)
    dump_json(two.to_dict(), out_dir / "svm" / f"{variant}_two_class.json")
    dump_json(one.to_dict(), out_dir / "svm" / f"{variant}_one_class.json")

    snr_median = {"pos": [], "neg": []}
    clip_stds = {"pos": [], "neg": []}
    counts = {"two_class": {"pos": [0, 0], "neg": [0, 0]},
              "one_class": {"pos": [0, 0], "neg": [0, 0]}}
    test_rows, test_labels = [], []
    rate_pairs = ([], [])

    for side in ("pos", "neg"):
        for _, name, cube, truth in test_sets[side]:
            outputs, clip_starts, wave = _infer(model, cube, clip_len)
            write_waveform(wave, wave_dir / f"{name}.csv")
            starts, matrix, n_degenerate = _features_for(cfg, wave)
            degenerate[side] += n_degenerate
            test_rows.append(matrix)
            frame_label = LIVE if side == "pos" else ANOMALOUS
            test_labels.append(np.full(len(matrix), frame_label))
            snr_median[side].extend(matrix[:, 0])
            clip_stds[side].extend(float(out.std()) for out in outputs)

            centers = starts + cfg.feature_window_s / 2.0
            frames = np.full(cube.data.shape[0], frame_label)
            for kind_key, svm in (("two_class", two), ("one_class", one)):
                labels, _ = predict(svm, matrix)
                correct, total = frame_accuracy(labels, centers, frames, cfg.fps,
                                                window_s=cfg.feature_window_s,
                                                return_counts=True)
                counts[kind_key][side][0] += correct
                counts[kind_key][side][1] += total

            if side == "pos":
                # the rate input is the standardized stitch, as `infer_video` gives
                wave_hi = resample_cubic(
                    Waveform(stitch_overlap_add(standardize_rows(outputs), clip_starts,
                                                len(wave)), cube.fps),
                    cfg.rate_resample_fps)
                rates = pulse_rate(wave_hi, cfg.rate_window_s,
                                   cfg.rate_stride_frames, cfg.nfft)
                rate_pairs[0].append(rates.bpm)
                rate_pairs[1].append(rate_truth[name])

    test_x = np.vstack(test_rows)
    test_y = np.concatenate(test_labels)
    write_features(feat_dir / "test.csv",
                   np.arange(len(test_x), dtype=float), test_x, test_y.astype(int))

    rates_report = error_metrics(np.concatenate(rate_pairs[0]),
                                 np.concatenate(rate_pairs[1]))

    def acc(kind_key):
        pos_c, pos_t = counts[kind_key]["pos"]
        neg_c, neg_t = counts[kind_key]["neg"]
        return {"positive_frame_accuracy": pos_c / pos_t,
                "negative_frame_accuracy": neg_c / neg_t,
                "combined_frame_accuracy": (pos_c + neg_c) / (pos_t + neg_t),
                "frames": pos_t + neg_t}

    pos_std = _median(clip_stds["pos"])
    neg_std = _median(clip_stds["neg"])
    return {
        "snr_db": {"positive_median": _median(snr_median["pos"]),
                   "negative_median": _median(snr_median["neg"]),
                   "gap": _median(snr_median["pos"]) - _median(snr_median["neg"])},
        "clip_std": {"positive_median": pos_std, "negative_median": neg_std,
                     "negative_over_positive": neg_std / pos_std if pos_std > 0 else float("inf")},
        "two_class": acc("two_class"),
        "one_class": acc("one_class"),
        "rates": rates_report.to_dict(),
        "features": {"degenerate_windows": degenerate},
    }


def _evaluate_baseline(cfg, name, test_pos, rate_truth, out_dir):
    estimator = bl.ESTIMATORS[name]
    wave_dir = out_dir / "waves" / f"baseline_{name}"
    wave_dir.mkdir(parents=True, exist_ok=True)
    preds, truths = [], []
    for _, video_name, cube, _truth in test_pos:
        wave = estimator(bl.trace_from_cube(cube))
        write_waveform(wave, wave_dir / f"{video_name}.csv")
        wave_hi = resample_cubic(wave, cfg.rate_resample_fps)
        rates = pulse_rate(wave_hi, cfg.rate_window_s, cfg.rate_stride_frames, cfg.nfft)
        preds.append(rates.bpm)
        truths.append(rate_truth[video_name])
    return {"rates": error_metrics(np.concatenate(preds),
                                   np.concatenate(truths)).to_dict()}


def _dump_plot_data(cfg, report, out_dir, test_sets, clip_len):
    """Periodogram matrices and waveform segments for one positive and one
    negative test video per variant, as plain CSV."""
    plot_dir = out_dir / "plots"
    picks = [("pos", test_sets["pos"][0][1]), ("neg", test_sets["neg"][0][1])]
    for variant in cfg.variants:
        for side, name in picks:
            wave = read_waveform(out_dir / "waves" / variant / f"{name}.csv")
            starts, stack = feature_windows(wave.samples, wave.fps, cfg.feature_window_s,
                                            cfg.feature_stride_s)
            power, in_band = psd_rows(stack, wave.fps, cfg.nfft)
            matrix = power[:, in_band]
            with open(plot_dir / f"periodogram_{variant}_{side}.csv", "w") as fh:
                fh.write(",".join(repr(start / wave.fps) for start in starts) + "\n")
                for row in matrix.T.tolist():
                    fh.write(",".join(map(repr, row)) + "\n")
            seg_len = int(round(6.0 * wave.fps))
            with open(plot_dir / f"waveform_{variant}_{side}.csv", "w") as fh:
                fh.write("t,value\n")
                for i in range(min(seg_len, len(wave))):
                    fh.write(f"{i / wave.fps!r},{float(wave.samples[i])!r}\n")


def _format_tables(cfg: ExperimentConfig, report: dict) -> str:
    lines = []
    lines.append("pulsegate experiment report (fully synthetic desk-scale data;")
    lines.append("numbers are not comparable to any real-video benchmark)")
    lines.append("")
    lines.append("Anomaly detection: combined frame accuracy (%)")
    header = f"{'classifier':12s}" + "".join(f"{v:>18s}" for v in cfg.variants)
    lines.append(header)
    for kind in ("one_class", "two_class"):
        row = f"{kind:12s}"
        for variant in cfg.variants:
            acc = report["variants"][variant][kind]["combined_frame_accuracy"]
            row += f"{100 * acc:17.2f}%"
        lines.append(row)
    lines.append("")
    lines.append("Hallucination metrics (median in-band SNR of predictions, dB)")
    lines.append(f"{'variant':20s}{'positives':>12s}{'negatives':>12s}{'std ratio':>12s}")
    for variant in cfg.variants:
        m = report["variants"][variant]
        lines.append(f"{variant:20s}{m['snr_db']['positive_median']:12.2f}"
                     f"{m['snr_db']['negative_median']:12.2f}"
                     f"{m['clip_std']['negative_over_positive']:12.3f}")
    lines.append("")
    lines.append("Pulse-rate estimation on held-out positives (bpm)")
    lines.append(f"{'method':20s}{'ME':>9s}{'MAE':>9s}{'RMSE':>9s}{'r':>9s}")
    rows = [(f"model[{v}]", report["variants"][v]["rates"]) for v in cfg.variants]
    rows += [(b, report["baselines"][b]["rates"]) for b in cfg.baselines]
    for name, rates in rows:
        r_text = "n/a" if rates["pearson_r"] is None else f"{rates['pearson_r']:.3f}"
        lines.append(f"{name:20s}{rates['me_bpm']:9.3f}{rates['mae_bpm']:9.3f}"
                     f"{rates['rmse_bpm']:9.3f}{r_text:>9s}")
    lines.append("")
    return "\n".join(lines)
