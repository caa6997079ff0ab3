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

import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import NamedTuple

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
from .errors import (
    InvalidInputError,
    PulsegateError,
    check_keys,
    check_nonnegative,
    check_positive,
    from_json,
)
from .estimator import ToyEstimator, TrainConfig, clip_predictions, standardized_stitch, train
from .evaluate import error_metrics, pulse_rate, rate_window
from .features import FEATURE_NAMES, FeatureTable, extract_features, feature_layout, feature_windows
from .fileio import (
    dump_json,
    sha256_file,
    write_cube,
    write_features,
    write_table,
    write_waveform,
)
from .losses import LossSpec
from .signal_core import (
    Trace,
    Waveform,
    check_cells,
    psd_rows,
    resample_cubic,
    spatial_mean_trace,
    stitch_overlap_add,
)
from .synth import NEGATIVE_KINDS, NegativeTransform, SceneConfig, generate_positive, make_negative

VARIANT_ORDER = ("none", "std", "spectral_entropy", "spectral_flatness")


def _in(section: str, default, key: str = ""):
    """A field read from `key` (the field's own name if empty) of the JSON
    section `section`; a field without one sits at the top level."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass
class ExperimentConfig:
    """Validated view of the experiment JSON; a missing key keeps the field default."""

    seed: int = 7
    fps: float = 20.0
    dims: tuple[int, int] = (12, 12)
    pulse_amplitude: float = _in("scene", 0.015)
    dicrotic_ratio: float = _in("scene", 0.25)
    hr_range_bpm: tuple[float, float] = _in("scene", (73.0, 77.0))
    hrv_step_bpm: float = _in("scene", 4.0)
    hrv_clamp_bpm: float = _in("scene", 8.0)
    hrv_knot_spacing_s: float = _in("scene", 2.0)
    train_sensor_noise: float = _in("scene", 32.0)
    eval_sensor_noise: float = _in("scene", 6.0)
    n_train_pos: int = _in("corpus", 12)
    train_duration_s: float = _in("corpus", 20.0)
    n_val_model: int = _in("corpus", 4)
    n_val_svm_pos: int = _in("corpus", 16)
    n_val_svm_neg: int = _in("corpus", 8)
    n_test_pos: int = _in("corpus", 12)
    n_test_neg: int = _in("corpus", 12)
    eval_duration_s: float = _in("corpus", 30.0)
    negative_kinds: tuple = _in("negatives", NEGATIVE_KINDS, "kinds")
    normal_sigma: float = _in("negatives", 3.0)
    uniform_bounds: tuple[float, float] = _in("negatives", (-3.0, 3.0))
    filters: int = _in("estimator", 8)
    kernel_len: int = _in("estimator", 91)
    init_scale: float = _in("estimator", 0.1)
    train_cfg: TrainConfig = field(default_factory=TrainConfig)  # the "train" section
    variants: tuple = VARIANT_ORDER
    feature_window_s: float = _in("features", 10.0, "window_s")
    feature_stride_s: float = _in("features", 1.0, "stride_s")
    svm_C: float = _in("svm", 1.0, "C")
    svm_nu: float = _in("svm", 0.5, "nu")
    svm_standardize: bool = _in("svm", True, "standardize")
    rate_window_s: float = _in("rate_eval", 10.0, "window_s")
    rate_stride_frames: int = _in("rate_eval", 1, "stride_frames")
    rate_resample_fps: float = _in("rate_eval", 90.0, "resample_fps")
    baselines: tuple = ("green", "chrom", "pos")

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        # each field's (section, key) in the JSON, section None at the top level
        places = {f.name: (f.metadata.get("section"), f.metadata.get("key") or f.name)
                  for f in fields(cls) if f.name != "train_cfg"}
        sections = {section for section, _ in places.values()} - {None}
        check_keys(payload, {key for section, key in places.values() if section is None}
                   | sections | {"train"}, "experiment config")
        for name in sections:
            check_keys(payload.get(name, {}),
                       {key for section, key in places.values() if section == name},
                       f"section {name!r}")
        # the "train" section holds TrainConfig fields less the loss, which each
        # variant sets itself, and the loss parameters every variant shares
        check_keys(payload.get("train", {}),
                   {f.name for f in fields(TrainConfig)} - {"loss"} | {"nfft", "band_bpm"},
                   "section 'train'")
        train = dict(payload.get("train", {}))
        loss = from_json(LossSpec, {key: train.pop(key) for key in ("nfft", "band_bpm")
                                    if key in train}, "section 'train'")
        values = {}
        for name, (section, key) in places.items():
            source = payload.get(section, {}) if section else payload
            if key in source:
                values[name] = source[key]
        cfg = from_json(cls, values, "experiment config")
        # training takes the experiment's seed unless the section sets its own
        cfg.train_cfg = from_json(TrainConfig, {"seed": cfg.seed, **train}, "section 'train'",
                                  loss=loss)
        cfg.validate()
        return cfg

    def validate(self):
        """The checks of the stages that read each setting, on what they build or
        through the checks they call, and the rules that join two sections."""
        if not self.negative_kinds:
            raise InvalidInputError("negatives.kinds names no kind")
        for kind in self.negative_kinds:
            NegativeTransform(kind=kind, normal_sigma=self.normal_sigma,
                              uniform_bounds=self.uniform_bounds)
        ToyEstimator.init(filters=self.filters, kernel_len=self.kernel_len,
                          init_scale=self.init_scale)
        for split in ("train", "eval"):
            self.scene(split)
        check_positive(self.svm_C, "svm.C")
        if not 0.0 < self.svm_nu <= 1.0:
            raise InvalidInputError(f"svm.nu ({self.svm_nu:g}) must be in (0, 1]")
        for variant in self.variants:
            if variant not in VARIANT_ORDER:
                raise InvalidInputError(f"unknown estimator variant {variant!r}")
        for name in self.baselines:
            if name not in bl.ESTIMATORS:
                raise InvalidInputError(f"unknown baseline {name!r}")
        if "none" not in self.variants:
            raise InvalidInputError("the positives-only variant 'none' is required")
        # training needs a positive, the two-class SVM both validation sides and
        # the test metrics both test sides; no val_model scene means no checkpoint
        for name, least in (("n_train_pos", 1), ("n_val_model", 0), ("n_val_svm_pos", 1),
                            ("n_val_svm_neg", 1), ("n_test_pos", 1), ("n_test_neg", 1)):
            if getattr(self, name) < least:
                raise InvalidInputError(
                    f"corpus.{name} ({getattr(self, name)}) must be at least {least}")
        if self.train_cfg.clip_len > self.train_duration_s * self.fps:
            raise InvalidInputError("clip_len exceeds training scene length")
        window, stride = feature_layout(self.feature_window_s, self.feature_stride_s,
                                        self.fps, "features.")
        if self.eval_duration_s < self.feature_window_s:
            raise InvalidInputError("evaluation scenes shorter than one feature window")
        # feature windows start every stride: the last must end on the last frame
        frames = int(round(self.eval_duration_s * self.fps))
        if (frames - window) % stride:
            raise InvalidInputError(
                f"eval_duration_s - feature_window_s ({self.eval_duration_s:g} - "
                f"{self.feature_window_s:g} s) is not a whole number of "
                f"feature_stride_s ({self.feature_stride_s:g} s) strides")
        resample = check_positive(self.rate_resample_fps, "rate_eval.resample_fps")
        rate_window(self.rate_window_s, self.rate_stride_frames, resample,
                    self.train_cfg.loss.nfft, "rate_eval.")
        # rates come from scenes resampled over their span of (frames - 1) / fps
        if self.rate_window_s > (frames - 1) / self.fps:
            raise InvalidInputError(
                f"rate_eval.window_s ({self.rate_window_s:g} s) does not fit in the "
                f"{self.eval_duration_s:g} s evaluation scenes less one frame")

    def scene(self, split: str, seed: int = 0, trajectory_seed: int = 0) -> SceneConfig:
        """The settings of one `split` ("train" or "eval") scene, drawn from `seed`,
        with its heart-rate walk drawn from `trajectory_seed`."""
        noise = check_nonnegative(getattr(self, f"{split}_sensor_noise"),
                                  f"scene.{split}_sensor_noise")
        duration = getattr(self, f"{split}_duration_s")
        # built before the walk is drawn: it checks the duration the walk spans
        scene = SceneConfig(duration_s=duration, fps=self.fps, dims=self.dims,
                            pulse_amplitude=self.pulse_amplitude,
                            dicrotic_ratio=self.dicrotic_ratio, sensor_noise_sigma=noise,
                            seed=seed)
        return replace(scene, hr_trajectory=hrv_trajectory(
            np.random.default_rng(trajectory_seed), duration, *self.hr_range_bpm,
            self.hrv_step_bpm, self.hrv_clamp_bpm, self.hrv_knot_spacing_s))


def hrv_trajectory(rng, duration_s, hr_lo, hr_hi, step_bpm, clamp_bpm, spacing_s):
    """Bounded random-walk heart-rate trajectory; adds realistic beat wander.
    The settings are checked before the first draw, and errors name their
    `scene` keys."""
    if not 40.0 <= hr_lo <= hr_hi <= 240.0:
        raise InvalidInputError(f"scene.hr_range_bpm {[hr_lo, hr_hi]} must "
                                "satisfy 40 <= low <= high <= 240")
    check_nonnegative(step_bpm, "scene.hrv_step_bpm")
    check_nonnegative(clamp_bpm, "scene.hrv_clamp_bpm")
    check_positive(spacing_s, "scene.hrv_knot_spacing_s")
    check_cells(duration_s / spacing_s + 2,
                f"scene.hrv_knot_spacing_s ({spacing_s:g}) over {duration_s:g} s")
    center = float(rng.uniform(hr_lo, hr_hi))
    knot_t = np.arange(0.0, duration_s + spacing_s, spacing_s)
    walk = np.cumsum(rng.normal(0.0, step_bpm, knot_t.size))
    walk = np.clip(center + walk - walk.mean(),
                   max(center - clamp_bpm, 40.0), min(center + clamp_bpm, 240.0))
    return list(zip(knot_t.tolist(), walk.tolist()))


def _child_seed(seeds: np.random.Generator) -> int:
    """The next seed drawn from the study's seed stream; draws occur in a fixed order."""
    return int(seeds.integers(0, 2 ** 62))


class Video(NamedTuple):
    """One labeled scene of a corpus; `truth` is None for a pulseless negative,
    and `rates` holds the truth's windowed pulse rates for a test positive."""

    name: str
    trace: Trace
    truth: Waveform | None
    rates: np.ndarray | None = None


def _scene_videos(cfg, scene_seeds, split, positive, negative, corpus_dir,
                  rated) -> list[Video]:
    """The positive named `positive` (unless None), with its truth rates if
    `rated`, and the negative that the (name, NegativeTransform) pair `negative`
    (unless None) makes of one `split` scene, as traces; with a `corpus_dir`,
    their full cubes and truth are written there."""
    cube, truth = generate_positive(cfg.scene(split, *scene_seeds))
    made = [] if positive is None else [
        (positive, cube, truth, _rates(cfg, truth) if rated else None)]
    if negative is not None:
        made.append((negative[0], make_negative(cube, negative[1]), None, None))
    if corpus_dir is not None:
        for name, video_cube, video_truth, _ in made:
            write_cube(video_cube, corpus_dir / f"{name}.bin")
            if video_truth is not None:
                write_waveform(video_truth, corpus_dir / f"{name}_gt.csv")
    return [Video(name, spatial_mean_trace(video_cube), video_truth, rates)
            for name, video_cube, video_truth, rates in made]


def build_corpora(cfg: ExperimentConfig, corpus_dir: Path, run) -> dict[str, list[Video]]:
    """The train, val_model (checkpoint), val (SVM) and test sets, seeded in
    one fixed order: per set, its positive scenes, its negatives' source
    scenes (its own positives for train and val_model), then the negatives.

    Every seed is drawn here; each scene is then one job for the runner `run`
    (see `_workers`), which makes the scene and its negative, writes them to
    `corpus_dir` for the train set and returns their traces, with the truth
    rates of a test positive: at most two full cubes are alive at once in
    each worker.
    """
    seeds = np.random.default_rng(cfg.seed)
    layout = {"train": (cfg.n_train_pos, None, "train"),
              "val_model": (cfg.n_val_model, None, "train"),
              "val": (cfg.n_val_svm_pos, cfg.n_val_svm_neg, "eval"),
              "test": (cfg.n_test_pos, cfg.n_test_neg, "eval")}
    corpus_dir.mkdir(parents=True, exist_ok=True)
    jobs, owners = [], []
    for name, (n_pos, n_neg, split) in layout.items():
        own = n_neg is None  # the negatives are made from the set's own positives
        n_neg = n_pos if own else n_neg
        scene_seeds = [(_child_seed(seeds), _child_seed(seeds))
                       for _ in range(n_pos if own else n_pos + n_neg)]
        transforms = [NegativeTransform(kind=cfg.negative_kinds[j % len(cfg.negative_kinds)],
                                        normal_sigma=cfg.normal_sigma,
                                        uniform_bounds=cfg.uniform_bounds,
                                        seed=_child_seed(seeds)) for j in range(n_neg)]
        for i, pair in enumerate(scene_seeds):
            j = i if own else i - n_pos  # the negative made from scene i, if j >= 0
            jobs.append(partial(
                _scene_videos, cfg, pair, split, f"{name}_pos_{i:02d}" if i < n_pos else None,
                (f"{name}_neg_{j:02d}_{transforms[j].kind}", transforms[j]) if j >= 0 else None,
                corpus_dir if name == "train" else None, name == "test"))
            owners.append(name)
    sets = {name: [] for name in layout}
    for name, videos in zip(owners, run(jobs)):
        sets[name].extend(videos)
    # each set holds its positives, then its negatives, in scene order
    sets = {name: sorted(videos, key=lambda video: video.truth is None)
            for name, videos in sets.items()}
    dump_json({"samples": [{"cube": f"{video.name}.bin",
                            "gt": None if video.truth is None else f"{video.name}_gt.csv",
                            "positive": video.truth is not None} for video in sets["train"]]},
              corpus_dir / "manifest.json")
    return sets


def _rates(cfg: ExperimentConfig, wave: Waveform) -> np.ndarray:
    """Windowed pulse rates (bpm) of a waveform resampled to the rate-evaluation fps."""
    return pulse_rate(resample_cubic(wave, cfg.rate_resample_fps), cfg.rate_window_s,
                      cfg.rate_stride_frames, cfg.train_cfg.loss.nfft).bpm


def run_experiment(cfg: ExperimentConfig, out_dir) -> dict:
    """Execute the full pipeline; returns the report dict (also written as JSON)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for sub in ("models", "waves", "features", "svm", "plots"):
        (out_dir / sub).mkdir(exist_ok=True)

    # one worker per usable CPU, up to the larger round of jobs: one job per
    # scene, then one per variant and per baseline
    largest = max(cfg.n_train_pos + cfg.n_val_model + cfg.n_val_svm_pos + cfg.n_val_svm_neg
                  + cfg.n_test_pos + cfg.n_test_neg, len(cfg.variants) + len(cfg.baselines))
    with _workers(min(largest, len(os.sched_getaffinity(0)))) as run:
        sets = _stage("synth", build_corpora, cfg, out_dir / "corpus", run)
        test_pos = [video for video in sets["test"] if video.truth is not None]

        # one job per variant and per baseline: each reads only the corpora and
        # writes only its own files, so the outputs do not depend on how many
        # run at once
        jobs = [partial(_variant_job, cfg, variant, sets, out_dir) for variant in cfg.variants]
        jobs += [partial(_stage, f"baseline-{name}", _evaluate_baseline,
                         cfg, name, test_pos, out_dir) for name in cfg.baselines]
        results = run(jobs)
    report = {"config": asdict(cfg),
              "variants": dict(zip(cfg.variants, results)),
              "baselines": dict(zip(cfg.baselines, results[len(cfg.variants):]))}

    manifest = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file() and path.name not in ("report.json", "report.txt"):
            manifest[str(path.relative_to(out_dir))] = sha256_file(path)
    report["manifest"] = manifest
    dump_json(report, out_dir / "report.json")
    (out_dir / "report.txt").write_text(_format_tables(cfg, report))
    return report


def _stage(name, fn, *args):
    try:
        return fn(*args)
    except PulsegateError as exc:
        # the same class with one message, so that it unpickles from a worker
        raise type(exc)(f"stage {name!r} failed: {exc}") from exc


def _variant_job(cfg, variant, sets, out_dir) -> dict:
    model, validation = _stage(f"train-{variant}", _train_variant, cfg, variant,
                               sets["train"], sets["val_model"], out_dir)
    metrics = _stage(f"evaluate-{variant}", _evaluate_and_write, cfg, variant,
                     model, sets["val"], sets["test"], out_dir)
    return {**metrics, "validation": validation}


@contextmanager
def _workers(count: int):
    """A runner, `run(jobs) -> results`, for lists of `partial` jobs, on
    `count` workers that fork once and serve every list: each job carries its
    inputs, pickled with it.  Results, and the error of the first failing
    job, come in job order.  A `count` of 1 (e.g. under `taskset -c 0`) runs
    the jobs in this process, one after another, where a profiler sees them.
    """
    if count == 1:
        yield lambda jobs: list(map(partial.__call__, jobs))
        return
    # imported here: `import pulsegate.cli` should not pay for it
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(count) as pool:
        # imap, not map: results, and the first failure, come in job order
        yield lambda jobs: list(pool.imap(partial.__call__, jobs, chunksize=1))


def _train_variant(cfg, variant, train_videos, val_videos, out_dir):
    train_cfg = replace(cfg.train_cfg, loss=replace(cfg.train_cfg.loss, negative_loss=variant))
    init = ToyEstimator.init(filters=cfg.filters, kernel_len=cfg.kernel_len,
                             init_scale=cfg.init_scale, seed=train_cfg.seed)
    corpus, val_corpus = ([(v.trace, v.truth) for v in videos]
                          for videos in (train_videos, val_videos))
    model, history, validation = train(train_cfg, corpus, val_corpus=val_corpus, model=init)
    dump_json(model.to_dict(), out_dir / "models" / f"model_{variant}.json")
    write_table(out_dir / "models" / f"history_{variant}.csv", ["step", "loss"], enumerate(history))
    return model, validation


class VideoPass(NamedTuple):
    """One video through a model: its clip outputs, their raw stitch and its features."""

    video: Video
    outputs: np.ndarray
    clip_starts: np.ndarray
    wave: Waveform
    table: FeatureTable

    @property
    def side(self) -> str:  # "pos" for a video with a truth waveform, "neg" without
        return "pos" if self.video.truth is not None else "neg"


_LABELS = {"pos": LIVE, "neg": ANOMALOUS}


def _video_pass(cfg, model, video) -> VideoPass:
    # Amplitude must survive into the feature stage: sigma and the Hilbert
    # envelope measure distance from a flatline, which per-clip
    # standardization would erase.
    outputs, clip_starts = clip_predictions(model, video.trace, cfg.train_cfg.clip_len,
                                            overlap=0.5)
    wave = Waveform(stitch_overlap_add(outputs, clip_starts, len(video.trace)), video.trace.fps)
    return VideoPass(video, outputs, clip_starts, wave,
                     extract_features(wave, cfg.feature_window_s, cfg.feature_stride_s,
                                      cfg.train_cfg.loss.nfft))


def _stack(passes):
    """The window starts, feature rows and labels of passes, stacked in pass order."""
    return (np.concatenate([p.table.starts_s for p in passes]),
            np.vstack([p.table.matrix for p in passes]),
            np.concatenate([np.full(len(p.table), _LABELS[p.side]) for p in passes]))


def _evaluate_and_write(cfg, variant, model, val, test, out_dir) -> dict:
    """One variant's video passes, their metrics block, then their files: the
    feature tables, the SVMs, the test waves and the plot dumps."""
    passes = {split: [_video_pass(cfg, model, video) for video in videos]
              for split, videos in (("val", val), ("test", test))}
    metrics, svms = score_passes(cfg, passes["val"], passes["test"])
    wave_dir, feat_dir = out_dir / "waves" / variant, out_dir / "features" / variant
    wave_dir.mkdir(parents=True, exist_ok=True)
    feat_dir.mkdir(parents=True, exist_ok=True)
    for split, records in passes.items():
        write_features(feat_dir / f"{split}.csv", *_stack(records))
    for kind, svm in svms.items():
        dump_json(svm.to_dict(), out_dir / "svm" / f"{variant}_{kind}.json")
    for record in passes["test"]:
        write_waveform(record.wave, wave_dir / f"{record.video.name}.csv")
    # the plot dumps show the first test video of each side
    for side, record in {r.side: r for r in reversed(passes["test"])}.items():
        _dump_plot_data(cfg, out_dir / "plots", variant, side, record.wave)
    return metrics


def score_passes(cfg, val, test) -> tuple[dict, dict]:
    """The metrics block of one model's val and test `VideoPass`es, and its two
    SVMs, keyed by kind and fitted on the val features.  Writes no file."""
    _, val_x, val_y = _stack(val)
    svms = {svm.kind: svm for svm in (
        fit_two_class(val_x, val_y, C=cfg.svm_C, standardize=cfg.svm_standardize),
        fit_one_class(val_x[val_y == LIVE], nu=cfg.svm_nu, standardize=cfg.svm_standardize))}
    sides = {side: [r for r in test if r.side == side] for side in ("pos", "neg")}
    snr, std, frames, correct = {}, {}, {}, Counter()  # correct per (SVM kind, side)
    for side, records in sides.items():
        snr[side] = float(np.median(np.concatenate(
            [r.table.matrix[:, FEATURE_NAMES.index("snr_db")] for r in records])))
        std[side] = float(np.median([float(out.std()) for r in records for out in r.outputs]))
        frames[side] = sum(len(r.video.trace) for r in records)
        for r in records:
            centers = r.table.starts_s + cfg.feature_window_s / 2.0
            for kind, svm in svms.items():
                correct[kind, side] += frame_accuracy(
                    predict(svm, r.table.matrix)[0], centers,
                    np.full(len(r.video.trace), _LABELS[side]), cfg.fps,
                    window_s=cfg.feature_window_s)[0]
    total = frames["pos"] + frames["neg"]
    return {
        "snr_db": {"positive_median": snr["pos"], "negative_median": snr["neg"],
                   "gap": snr["pos"] - snr["neg"]},
        "clip_std": {"positive_median": std["pos"], "negative_median": std["neg"],
                     "negative_over_positive": std["neg"] / std["pos"] if std["pos"] > 0
                     else float("inf")},
        **{kind: {"positive_frame_accuracy": correct[kind, "pos"] / frames["pos"],
                  "negative_frame_accuracy": correct[kind, "neg"] / frames["neg"],
                  "combined_frame_accuracy": (correct[kind, "pos"] + correct[kind, "neg"]) / total,
                  "frames": total} for kind in svms},
        # the rate input is the standardized stitch, as `infer_video` gives
        "rates": _rate_errors(cfg, [r.video for r in sides["pos"]], [
            standardized_stitch(r.outputs, r.clip_starts, len(r.wave), r.wave.fps)
            for r in sides["pos"]]),
        "features": {"degenerate_windows": {
            side: sum(int(r.table.degenerate.sum()) for r in val + test if r.side == side)
            for side in ("pos", "neg")}},
    }, svms


def _evaluate_baseline(cfg, name, test_pos, out_dir):
    wave_dir = out_dir / "waves" / f"baseline_{name}"
    wave_dir.mkdir(parents=True, exist_ok=True)
    waves = [bl.ESTIMATORS[name](video.trace) for video in test_pos]
    for video, wave in zip(test_pos, waves):
        write_waveform(wave, wave_dir / f"{video.name}.csv")
    return {"rates": _rate_errors(cfg, test_pos, waves)}


def _rate_errors(cfg, videos, waves) -> dict:
    """The rate errors of `waves` against the truth rates of the `videos` they estimate."""
    return error_metrics(np.concatenate([_rates(cfg, wave) for wave in waves]),
                         np.concatenate([video.rates for video in videos])).to_dict()


def _dump_plot_data(cfg, plot_dir, variant, side, wave):
    """Periodogram matrix and waveform segment of one test video, as plain CSV."""
    starts, stack = feature_windows(wave.samples, wave.fps, cfg.feature_window_s,
                                    cfg.feature_stride_s)
    power, in_band = psd_rows(stack, wave.fps, cfg.train_cfg.loss.nfft)
    write_table(plot_dir / f"periodogram_{variant}_{side}.csv",
                [start / wave.fps for start in starts], power[:, in_band].T.tolist())
    # the waveform's first 6 s
    write_waveform(Waveform(wave.samples[:int(round(6.0 * wave.fps))], wave.fps),
                   plot_dir / f"waveform_{variant}_{side}.csv")


def _format_tables(cfg: ExperimentConfig, report: dict) -> str:
    variants = report["variants"]
    lines = ["pulsegate experiment report (fully synthetic desk-scale data;",
             "numbers are not comparable to any real-video benchmark)", "",
             "Anomaly detection: combined frame accuracy (%)",
             f"{'classifier':12s}" + "".join(f"{v:>18s}" for v in cfg.variants)]
    for kind in ("one_class", "two_class"):
        lines.append(f"{kind:12s}" + "".join(
            f"{100 * variants[v][kind]['combined_frame_accuracy']:17.2f}%" for v in cfg.variants))
    lines += ["", "Hallucination metrics (median in-band SNR of predictions, dB)",
              f"{'variant':20s}{'positives':>12s}{'negatives':>12s}{'std ratio':>12s}"]
    for variant in cfg.variants:
        m = variants[variant]
        lines.append(f"{variant:20s}{m['snr_db']['positive_median']:12.2f}"
                     f"{m['snr_db']['negative_median']:12.2f}"
                     f"{m['clip_std']['negative_over_positive']:12.3f}")
    lines += ["", "Pulse-rate estimation on held-out positives (bpm)",
              f"{'method':20s}{'ME':>9s}{'MAE':>9s}{'RMSE':>9s}{'r':>9s}"]
    rows = [(f"model[{v}]", variants[v]["rates"]) for v in cfg.variants]
    rows += [(b, report["baselines"][b]["rates"]) for b in cfg.baselines]
    for name, rates in rows:
        r_text = "n/a" if rates["pearson_r"] is None else f"{rates['pearson_r']:.3f}"
        lines.append(f"{name:20s}{rates['me_bpm']:9.3f}{rates['mae_bpm']:9.3f}"
                     f"{rates['rmse_bpm']:9.3f}{r_text:>9s}")
    return "\n".join(lines) + "\n"
