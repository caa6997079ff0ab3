"""The benchmark's workloads: inputs made from the seed, and the commands.

Each workload writes its inputs once per run (`prepare`) and lists the
`pulsegate` commands of one round (`commands`); every round runs the same
commands in a fresh directory.  The seed goes into the inputs only.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

# configs/repro-desk.json, the desk-scale study the workloads cut down
DESK = {
    "fps": 20.0,
    "dims": [12, 12],
    "scene": {"pulse_amplitude": 0.015, "dicrotic_ratio": 0.25,
              "hr_range_bpm": [73.0, 77.0], "hrv_step_bpm": 4.0, "hrv_clamp_bpm": 8.0,
              "hrv_knot_spacing_s": 2.0, "train_sensor_noise": 32.0,
              "eval_sensor_noise": 6.0},
    "corpus": {"n_train_pos": 12, "train_duration_s": 20.0, "n_val_model": 4,
               "n_val_svm_pos": 16, "n_val_svm_neg": 8, "n_test_pos": 12,
               "n_test_neg": 12, "eval_duration_s": 30.0},
    "negatives": {"kinds": ["normal", "uniform", "shuffle"], "normal_sigma": 3.0,
                  "uniform_bounds": [-3.0, 3.0]},
    "estimator": {"filters": 8, "kernel_len": 91, "init_scale": 0.1},
    "train": {"clip_len": 200, "batch_size": 8, "steps": 3000, "learning_rate": 0.01,
              "momentum": 0.9, "negative_mix": 0.5, "nfft": 5400,
              "band_bpm": [40.0, 240.0], "val_every": 150},
    "variants": ["none", "std", "spectral_entropy", "spectral_flatness"],
    "features": {"window_s": 10.0, "stride_s": 1.0},
    "svm": {"C": 1.0, "nu": 0.5, "standardize": True},
    "rate_eval": {"window_s": 10.0, "stride_frames": 1, "resample_fps": 90.0},
    "baselines": ["green", "chrom", "pos"],
}

# study-train: desk training corpus and estimator, steps cut so the run is
# short, evaluation sets small so that training dominates
STUDY_TRAIN = {
    "corpus": {"n_val_svm_pos": 4, "n_val_svm_neg": 3, "n_test_pos": 2, "n_test_neg": 3,
               "eval_duration_s": 16.0},
    "train": {"steps": 180, "val_every": 60},
}
# study-eval: desk evaluation unchanged, training cut to two validation
# intervals
STUDY_EVAL = {
    "train": {"steps": 30, "val_every": 15},
}

# cli-chain inputs: a constant 72 bpm scene, 24 s at 30 fps
CHAIN_SCENE = {"duration_s": 24.0, "fps": 30.0, "dims": [16, 16], "hr_trajectory": 72.0,
               "pulse_amplitude": 0.02, "dicrotic_ratio": 0.25, "sensor_noise_sigma": 2.0}
CHAIN_TRAIN = {"clip_len": 200, "batch_size": 4, "steps": 20, "learning_rate": 0.01,
               "momentum": 0.9,
               "estimator": {"filters": 4, "kernel_len": 31, "init_scale": 0.1}}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict):
            out[key] = {**out[key], **value}
        else:
            out[key] = value
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


class Study:
    """`pulsegate experiment` on a cut-down desk config."""

    def __init__(self, override: dict, mae_bound_bpm: float):
        self.override = override
        # colour-baseline rate MAE bound, about twice the worst seed measured
        self.mae_bound_bpm = mae_bound_bpm
        self.config = None

    def prepare(self, run_dir: Path, seed: int) -> None:
        self.config = {"seed": seed, **_merge(DESK, self.override)}
        self.config_path = run_dir / "experiment.json"
        _write_json(self.config_path, self.config)

    def commands(self, round_dir: Path) -> list[list[str]]:
        return [["experiment", "--config", str(self.config_path),
                 "--out", str(round_dir / "out")]]


class Chain:
    """Single-shot CLI commands on small files, each in a fresh process."""

    def prepare(self, run_dir: Path, seed: int) -> None:
        self.scene = {**CHAIN_SCENE, "seed": seed, "negative": {"seed": seed + 1}}
        self.train = {**CHAIN_TRAIN, "seed": seed}
        self.scene_path = run_dir / "scene.json"
        self.train_path = run_dir / "train.json"
        _write_json(self.scene_path, self.scene)
        _write_json(self.train_path, self.train)

    def commands(self, round_dir: Path) -> list[list[str]]:
        d = round_dir
        corpus = d / "corpus"
        corpus.mkdir(parents=True, exist_ok=True)
        _write_json(corpus / "manifest.json", {"samples": [
            {"cube": "pos.bin", "gt": "gt.csv", "positive": True},
            {"cube": "neg.bin", "gt": None, "positive": False}]})
        pos, neg = str(corpus / "pos.bin"), str(corpus / "neg.bin")
        return [
            ["synth", "--config", str(self.scene_path), "--out", pos,
             "--gt-out", str(corpus / "gt.csv")],
            ["synth", "--config", str(self.scene_path), "--out", neg,
             "--negative", "shuffle"],
            *[["estimate", "--method", method, "--in", pos, "--out", str(d / f"{method}.csv")]
              for method in ("green", "chrom", "pos")],
            ["train", "--config", str(self.train_path), "--corpus", str(corpus),
             "--out", str(d / "model.json")],
            *[["estimate", "--method", "model", "--model", str(d / "model.json"),
               "--in", cube, "--out", str(d / f"model_{side}.csv")]
              for side, cube in (("pos", pos), ("neg", neg))],
            ["features", "--in", str(d / "model_pos.csv"), "--out", str(d / "feat_pos.csv"),
             "--label", "live"],
            ["features", "--in", str(d / "model_neg.csv"), "--out", str(d / "feat_neg.csv"),
             "--label", "anomalous"],
            *[["classify", "fit", "--in", str(d / "feat_pos.csv"), str(d / "feat_neg.csv"),
               "--kind", kind, "--out", str(d / f"svm_{kind}.json")]
              for kind in ("two", "one")],
            ["classify", "predict", "--model", str(d / "svm_one.json"),
             "--in", str(d / "feat_neg.csv"), "--out", str(d / "predict.csv")],
            ["pulse-rate", "--in", str(d / "green.csv"), "--truth", str(corpus / "gt.csv"),
             "--report", str(d / "rate.json")],
        ]


def make(name: str):
    if name == "study-train":
        return Study(STUDY_TRAIN, mae_bound_bpm=3.0)
    if name == "study-eval":
        return Study(STUDY_EVAL, mae_bound_bpm=1.5)
    if name == "cli-chain":
        return Chain()
    raise KeyError(name)


NAMES = ("study-train", "study-eval", "cli-chain")
