import json
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import pulsegate
from pulsegate import experiment
from pulsegate.classify import fit_one_class
from pulsegate.cli import main
from pulsegate.errors import DegenerateInputError, NumericalDivergenceError
from pulsegate.estimator import ToyEstimator
from pulsegate.fileio import (
    dump_json,
    read_cube,
    read_features,
    read_waveform,
    write_features,
    write_waveform,
)
from pulsegate.signal_core import Waveform

SCENE = {"duration_s": 16.0, "fps": 30.0, "dims": [8, 8], "hr_trajectory": 75.0,
         "pulse_amplitude": 0.02, "dicrotic_ratio": 0.2,
         "sensor_noise_sigma": 2.0, "seed": 5}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scene_path = root / "scene.json"
    scene_path.write_text(json.dumps(SCENE))
    assert main(["synth", "--config", str(scene_path),
                 "--out", str(root / "pos.bin"), "--gt-out", str(root / "gt.csv")]) == 0
    assert main(["synth", "--config", str(scene_path),
                 "--out", str(root / "neg.bin"), "--negative", "shuffle"]) == 0
    return root


def main_within(argv, timeout_s=60.0):
    """`main(argv)` in a thread, so that a hung run fails the test instead of stalling."""
    result = {}
    thread = threading.Thread(target=lambda: result.update(code=main(argv)), daemon=True)
    thread.start()
    thread.join(timeout_s)
    assert not thread.is_alive(), f"pulsegate {' '.join(argv)} still running after {timeout_s} s"
    assert "code" in result, "main raised"
    return result["code"]


class TestSynth:
    def test_cube_and_gt_written(self, workdir):
        cube = read_cube(workdir / "pos.bin")
        assert cube.data.shape == (480, 8, 8, 3)
        truth = read_waveform(workdir / "gt.csv")
        assert len(truth) == 480

    def test_negative_is_permutation(self, workdir):
        pos = read_cube(workdir / "pos.bin")
        neg = read_cube(workdir / "neg.bin")
        a = sorted(frame.tobytes() for frame in pos.data)
        b = sorted(frame.tobytes() for frame in neg.data)
        assert a == b

    @pytest.mark.parametrize("key, block", [("duraton_s", None), ("sigma", "negative")])
    def test_unknown_key_rejected(self, tmp_path, capsys, key, block):
        payload = {**SCENE, "negative": {"seed": 1}}
        (payload[block] if block else payload)[key] = 1
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps(payload))
        assert main(["synth", "--config", str(scene_path),
                     "--out", str(tmp_path / "pos.bin")]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("dims", [8]), ("seed", 1.5)])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, key, value):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps({**SCENE, key: value}))
        assert main(["synth", "--config", str(scene_path),
                     "--out", str(tmp_path / "pos.bin")]) == 2
        assert f"{key!r} in scene config" in capsys.readouterr().err
        assert not (tmp_path / "pos.bin").exists()

    def test_env_seed_override(self, workdir, monkeypatch):
        scene_path = workdir / "scene.json"
        monkeypatch.setenv("PULSEGATE_SEED", "99")
        assert main(["synth", "--config", str(scene_path),
                     "--out", str(workdir / "seeded.bin")]) == 0
        a = read_cube(workdir / "pos.bin")
        b = read_cube(workdir / "seeded.bin")
        assert not np.array_equal(a.data, b.data)


class TestEstimate:
    @pytest.mark.parametrize("method", ["green", "chrom", "pos"])
    def test_baselines(self, workdir, method):
        out = workdir / f"{method}.csv"
        assert main(["estimate", "--method", method,
                     "--in", str(workdir / "pos.bin"), "--out", str(out)]) == 0
        wave = read_waveform(out)
        assert len(wave) == 480

    def test_bandpass_and_resample_flags(self, workdir):
        out = workdir / "resampled.csv"
        assert main(["estimate", "--method", "green", "--in", str(workdir / "pos.bin"),
                     "--out", str(out), "--bandpass", "--resample-fps", "90"]) == 0
        wave = read_waveform(out)
        assert wave.fps == pytest.approx(90.0, rel=1e-3)

    def test_model_without_path_is_config_error(self, workdir):
        code = main(["estimate", "--method", "model",
                     "--in", str(workdir / "pos.bin"), "--out", str(workdir / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("clip_len", ["-5", "0"])
    def test_clip_len_below_one_is_config_error(self, workdir, tmp_path, capsys, clip_len):
        model = tmp_path / "model.json"
        dump_json(ToyEstimator.init(filters=2, kernel_len=5, seed=0).to_dict(), model)
        code = main(["estimate", "--method", "model", "--model", str(model),
                     "--in", str(workdir / "pos.bin"), "--out", str(tmp_path / "x.csv"),
                     "--clip-len", clip_len])
        assert code == 2
        assert f"clip_len ({clip_len}) must be at least 1" in capsys.readouterr().err


class TestFeaturesAndClassify:
    def test_features_and_svm_round_trip(self, workdir):
        live = workdir / "feats_live.csv"
        anom = workdir / "feats_anom.csv"
        assert main(["estimate", "--method", "chrom", "--in", str(workdir / "pos.bin"),
                     "--out", str(workdir / "wave_pos.csv")]) == 0
        assert main(["estimate", "--method", "chrom", "--in", str(workdir / "neg.bin"),
                     "--out", str(workdir / "wave_neg.csv")]) == 0
        assert main(["features", "--in", str(workdir / "wave_pos.csv"),
                     "--out", str(live), "--label", "live"]) == 0
        assert main(["features", "--in", str(workdir / "wave_neg.csv"),
                     "--out", str(anom), "--label", "anomalous"]) == 0
        _, matrix, labels = read_features(live)
        assert matrix.shape[1] == 8
        assert np.all(labels == 1)

        svm2 = workdir / "svm2.json"
        assert main(["classify", "fit", "--in", str(live), str(anom),
                     "--kind", "two", "--out", str(svm2)]) == 0
        svm1 = workdir / "svm1.json"
        assert main(["classify", "fit", "--in", str(live),
                     "--kind", "one", "--out", str(svm1)]) == 0
        preds = workdir / "preds.csv"
        assert main(["classify", "predict", "--model", str(svm2),
                     "--in", str(live), "--out", str(preds)]) == 0
        rows = preds.read_text().strip().splitlines()
        assert rows[0] == "t_start,decision,label"
        assert len(rows) == 1 + len(matrix)
        for row in rows[1:]:
            t_start, decision, label = row.split(",")
            assert np.isfinite([float(t_start), float(decision)]).all()
            assert int(label) in (-1, 1)

    def test_stride_under_one_frame_rejected(self, workdir, tmp_path, capsys):
        wave = tmp_path / "wave.csv"
        assert main(["estimate", "--method", "green", "--in", str(workdir / "pos.bin"),
                     "--out", str(wave)]) == 0
        assert main(["features", "--in", str(wave), "--out", str(tmp_path / "feats.csv"),
                     "--stride-s", "0"]) == 2
        assert "stride_s (0 s) is under one frame" in capsys.readouterr().err
        assert not (tmp_path / "feats.csv").exists()

    def test_model_with_unknown_key_rejected(self, tmp_path, capsys):
        x = np.random.default_rng(3).normal(0.0, 1.0, (12, 8))
        write_features(tmp_path / "feats.csv", np.arange(12.0), x)
        dump_json({**fit_one_class(x).to_dict(), "kernel": "rbf"}, tmp_path / "svm.json")
        assert main(["classify", "predict", "--model", str(tmp_path / "svm.json"), "--in",
                     str(tmp_path / "feats.csv"), "--out", str(tmp_path / "p.csv")]) == 2
        assert "'kernel'" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()


class TestPulseRate:
    def test_report_written(self, workdir, tmp_path):
        wave, report = tmp_path / "wave_pos.csv", tmp_path / "rate.json"
        assert main(["estimate", "--method", "chrom", "--in", str(workdir / "pos.bin"),
                     "--out", str(wave)]) == 0
        assert main(["pulse-rate", "--in", str(wave),
                     "--truth", str(workdir / "gt.csv"),
                     "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert payload["errors"]["mae_bpm"] < 2.0

    def test_constant_rate_truth(self, workdir, tmp_path, capsys):
        # the scene's heart rate is a constant 75 bpm: Pearson's r is undefined
        wave, report = tmp_path / "green.csv", tmp_path / "rate.json"
        assert main(["estimate", "--method", "green", "--in", str(workdir / "pos.bin"),
                     "--out", str(wave)]) == 0
        assert main(["pulse-rate", "--in", str(wave), "--truth", str(workdir / "gt.csv"),
                     "--report", str(report)]) == 0
        assert "r n/a" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        truth = np.array(payload["truth"]["bpm"], dtype=float)
        pred = np.array(payload["pred"]["bpm"], dtype=float)
        assert np.all(truth == 75.0) and np.ptp(pred) > 0.0
        diff = pred - truth
        errors = payload["errors"]
        assert errors["pearson_r"] is None
        assert errors["me_bpm"] == pytest.approx(diff.mean(), rel=1e-12)
        assert errors["mae_bpm"] == pytest.approx(np.abs(diff).mean(), rel=1e-12)
        assert errors["rmse_bpm"] == pytest.approx(np.sqrt((diff ** 2).mean()), rel=1e-12)

    @pytest.mark.parametrize("key, value", [("stride_frames", "0"), ("stride_frames", "-5"),
                                            ("window_s", "0.004")])
    def test_bad_window_rejected(self, workdir, tmp_path, capsys, key, value):
        code = main(["pulse-rate", "--in", str(workdir / "gt.csv"),
                     "--report", str(tmp_path / "rate.json"),
                     "--" + key.replace("_", "-"), value])
        assert code == 2
        assert f"{key}=" in capsys.readouterr().err

    def test_misaligned_truth_rejected(self, workdir, tmp_path, capsys):
        # a truth 40 frames shorter gives rate windows at other times
        truth = read_waveform(workdir / "gt.csv")
        short = tmp_path / "short_gt.csv"
        write_waveform(Waveform(truth.samples[:-40], truth.fps), short)
        assert main(["pulse-rate", "--in", str(workdir / "gt.csv"), "--truth", str(short),
                     "--report", str(tmp_path / "rate.json")]) == 2
        assert "not aligned in time" in capsys.readouterr().err

    def test_malformed_waveform_rejected(self, tmp_path, capsys):
        wave = tmp_path / "wave.csv"
        wave.write_text("t,value\n0.0,1.0\n0.05,oops\n0.1,0.5\n")
        assert main(["pulse-rate", "--in", str(wave),
                     "--report", str(tmp_path / "rate.json")]) == 2
        assert "oops" in capsys.readouterr().err


class TestTrain:
    def test_train_on_corpus_dir(self, workdir, tmp_path):
        # build a minimal corpus directory via the library
        from pulsegate.fileio import dump_json, write_cube, write_waveform
        from pulsegate.synth import NegativeTransform, SceneConfig, generate_positive, make_negative
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        manifest = []
        for i in range(2):
            cube, truth = generate_positive(SceneConfig(
                duration_s=12.0, fps=20.0, dims=(6, 6), hr_trajectory=75.0,
                pulse_amplitude=0.02, sensor_noise_sigma=4.0, seed=i))
            write_cube(cube, corpus / f"pos_{i}.bin")
            write_waveform(truth, corpus / f"pos_{i}_gt.csv")
            manifest.append({"cube": f"pos_{i}.bin", "gt": f"pos_{i}_gt.csv",
                             "positive": True})
            neg = make_negative(cube, NegativeTransform(kind="normal", seed=i))
            write_cube(neg, corpus / f"neg_{i}.bin")
            manifest.append({"cube": f"neg_{i}.bin", "gt": None, "positive": False})
        dump_json({"samples": manifest}, corpus / "manifest.json")

        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({
            "clip_len": 150, "batch_size": 2, "steps": 10, "learning_rate": 0.01,
            "momentum": 0.9, "seed": 3, "negative_mix": 0.5, "val_every": 5,
            "loss": {"positive_loss": "neg_pearson", "negative_loss": "std",
                     "nfft": 5400},
            "estimator": {"filters": 4, "kernel_len": 21}}))
        model_path = tmp_path / "model.json"
        assert main(["train", "--config", str(train_cfg),
                     "--corpus", str(corpus), "--out", str(model_path)]) == 0
        payload = json.loads(model_path.read_text())
        assert payload["filters"] == 4

        wave_out = tmp_path / "model_wave.csv"
        assert main(["estimate", "--method", "model", "--model", str(model_path),
                     "--in", str(corpus / "pos_0.bin"), "--out", str(wave_out),
                     "--clip-len", "150"]) == 0
        assert len(read_waveform(wave_out)) == 240

    @pytest.mark.parametrize("key, block", [("stpes", None), ("filter", "estimator"),
                                            ("negative_los", "loss")])
    def test_unknown_key_rejected(self, tmp_path, capsys, key, block):
        payload = {"clip_len": 150, "steps": 2, "estimator": {"filters": 2},
                   "loss": {"negative_loss": "none"}}
        (payload[block] if block else payload)[key] = 1
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps(payload))
        assert main(["train", "--config", str(train_cfg), "--corpus", str(tmp_path),
                     "--out", str(tmp_path / "model.json")]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_zero_steps_rejected(self, tmp_path, capsys):
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({"clip_len": 150, "steps": 0}))
        assert main(["train", "--config", str(train_cfg), "--corpus", str(tmp_path),
                     "--out", str(tmp_path / "model.json")]) == 2
        assert "train.steps (0) must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()


    @pytest.mark.parametrize("key, value", [("steps", 2.5), ("learning_rate", "x")])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, key, value):
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({"clip_len": 150, "steps": 2, key: value}))
        assert main(["train", "--config", str(train_cfg), "--corpus", str(tmp_path),
                     "--out", str(tmp_path / "model.json")]) == 2
        assert f"{key!r} in train config" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    # the estimator key, its bad value, and what stderr must say: the init argument it sets
    BAD_ESTIMATOR = [("filters", 0, "filters (0)"), ("filters", -1, "filters (-1)"),
                     ("kernel_len", -1, "kernel_len (-1)"),
                     ("init_scale", 0, "scale (0)"), ("init_scale", -1, "scale (-1)")]

    @pytest.mark.parametrize("key, value, named", BAD_ESTIMATOR,
                             ids=[f"{key}={value}" for key, value, _ in BAD_ESTIMATOR])
    def test_bad_estimator_value_rejected(self, tmp_path, capsys, key, value, named):
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({"clip_len": 150, "steps": 2, "estimator": {key: value}}))
        assert main(["train", "--config", str(train_cfg), "--corpus", str(tmp_path),
                     "--out", str(tmp_path / "model.json")]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()


class TestExperiment:
    def test_dry_run(self):
        assert main(["experiment", "--config", "configs/smoke.json", "--dry-run"]) == 0

    def test_smoke_experiment_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["experiment", "--config", "configs/smoke.json",
                     "--out", str(out1)]) == 0
        assert main(["experiment", "--config", "configs/smoke.json",
                     "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        report = json.loads((out1 / "report.json").read_text())
        assert set(report["variants"]) == {"none", "std"}
        for variant in report["variants"].values():
            assert variant["validation"]["steps"] == [20, 40]
            assert variant["validation"]["checkpoint_step"] in (20, 40)
        for variant in report["variants"].values():
            assert 0.0 <= variant["two_class"]["combined_frame_accuracy"] <= 1.0
        # degenerate windows are the val and test rows with zeroed trough features
        from pulsegate.fileio import read_features
        for name, variant in report["variants"].items():
            zeroed = {"pos": 0, "neg": 0}
            for split in ("val", "test"):
                _, matrix, labels = read_features(out1 / "features" / name / f"{split}.csv")
                zeroed["pos"] += int(np.sum((matrix[:, 3] == 0.0) & (labels == 1)))
                zeroed["neg"] += int(np.sum((matrix[:, 3] == 0.0) & (labels == -1)))
            assert variant["features"] == {"degenerate_windows": zeroed}
        assert report["manifest"]
        # artifact hashes hold
        from pulsegate.fileio import sha256_file
        some = list(report["manifest"].items())[:5]
        for rel, digest in some:
            assert sha256_file(out1 / rel) == digest
        # every value row of the numeric CSV artifacts holds plain floats
        csvs = sorted(out1.glob("models/history_*.csv")) + sorted(out1.glob("plots/waveform_*.csv"))
        assert csvs
        for path in csvs:
            rows = path.read_text().strip().splitlines()[1:]
            assert rows, path.name
            for row in rows:
                assert np.isfinite([float(cell) for cell in row.split(",")]).all()
        # artifact names: smoke has 3 training scenes and 2 + 3 test videos
        kinds = ("normal", "uniform", "shuffle")
        samples = json.loads((out1 / "corpus" / "manifest.json").read_text())["samples"]
        assert samples == (
            [{"cube": f"train_pos_{i:02d}.bin", "gt": f"train_pos_{i:02d}_gt.csv",
              "positive": True} for i in range(3)]
            + [{"cube": f"train_neg_{i:02d}_{kinds[i]}.bin", "gt": None, "positive": False}
               for i in range(3)])
        for name in report["variants"]:
            assert sorted(p.name for p in (out1 / "waves" / name).iterdir()) == sorted(
                [f"test_pos_{i:02d}.csv" for i in range(2)]
                + [f"test_neg_{i:02d}_{kinds[i]}.csv" for i in range(3)])
        # the written corpus trains through the CLI as it stands
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({"clip_len": 200, "batch_size": 2, "steps": 2,
                                         "estimator": {"filters": 2, "kernel_len": 11}}))
        assert main(["train", "--config", str(train_cfg), "--corpus", str(out1 / "corpus"),
                     "--out", str(tmp_path / "model.json")]) == 0

    def test_plot_times_exact_at_30_fps(self, tmp_path):
        # 24 s scenes at 30 fps: (720 - 300) frames is 7 strides of 60
        payload = json.loads(Path("configs/smoke.json").read_text())
        payload["fps"] = 30.0
        payload["corpus"]["eval_duration_s"] = 24.0
        config = tmp_path / "fps30.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "run"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        waveforms = sorted(out.glob("plots/waveform_*.csv"))
        periodograms = sorted(out.glob("plots/periodogram_*.csv"))
        assert len(waveforms) == len(periodograms) == 4
        for path in waveforms:
            rows = path.read_text().splitlines()[1:]
            assert [row.split(",")[0] for row in rows] == [repr(i / 30.0) for i in range(180)]
        for path in periodograms:
            header = path.read_text().splitlines()[0]
            assert header.split(",") == [repr(start / 30.0) for start in range(0, 421, 60)]

    def test_uncovered_eval_windows_rejected_at_dry_run(self, tmp_path, capsys):
        # 17 s scenes leave 7 s after one 10 s window: not whole 2 s strides
        payload = json.loads(Path("configs/smoke.json").read_text())
        payload["corpus"]["eval_duration_s"] = 17
        bad = tmp_path / "uncovered.json"
        bad.write_text(json.dumps(payload))
        assert main(["experiment", "--config", str(bad), "--dry-run"]) == 2
        err = capsys.readouterr().err
        for key in ("eval_duration_s", "feature_window_s", "feature_stride_s"):
            assert key in err

    # smoke scenes are 16 s at 20 fps, so their span ends at 15.95 s; a 61 s
    # window at 90 fps is longer than nfft (5400 samples)
    @pytest.mark.parametrize("key, value, eval_s", [
        ("stride_frames", 0, 16.0), ("stride_frames", -5, 16.0),
        ("window_s", 0.004, 16.0), ("window_s", 16.0, 16.0), ("window_s", 61.0, 70.0)])
    def test_bad_rate_window_rejected_at_dry_run(self, tmp_path, capsys, key, value, eval_s):
        payload = json.loads(Path("configs/smoke.json").read_text())
        payload["rate_eval"][key] = value
        payload["corpus"]["eval_duration_s"] = eval_s
        bad = tmp_path / "rate.json"
        bad.write_text(json.dumps(payload))
        assert main(["experiment", "--config", str(bad), "--dry-run"]) == 2
        assert f"rate_eval.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("n_test_neg", 0), ("n_test_pos", 0),
                                            ("n_val_svm_pos", 0), ("n_val_svm_neg", -1),
                                            ("train.clip_len", 0), ("train.batch_size", 0),
                                            ("train.steps", 0), ("train.val_every", 0)])
    def test_empty_evaluation_set_rejected_at_dry_run(self, tmp_path, capsys, key, value):
        # a key without a section is a corpus count
        section, name = key.split(".") if "." in key else ("corpus", key)
        payload = json.loads(Path("configs/smoke.json").read_text())
        payload[section][name] = value
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps(payload))
        assert main(["experiment", "--config", str(bad), "--dry-run"]) == 2
        assert f"{section}.{name} ({value}) must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [(None, "trian"), ("train", "stpes"),
                                              ("corpus", "n_test_poss"), ("svm", "c")])
    def test_unknown_key_rejected_at_dry_run(self, tmp_path, capsys, section, key):
        payload = json.loads(Path("configs/smoke.json").read_text())
        (payload[section] if section else payload)[key] = 1
        bad = tmp_path / "misspelt.json"
        bad.write_text(json.dumps(payload))
        assert main(["experiment", "--config", str(bad), "--dry-run"]) == 2
        assert repr(key) in capsys.readouterr().err

    def test_non_object_config_rejected(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1]")
        assert main(["experiment", "--config", str(bad), "--dry-run"]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"variants": ["nonsense"]}))
        assert main(["experiment", "--config", str(bad), "--dry-run"]) == 2

    # the setting, its malformed value, and what stderr must say about it
    MALFORMED = [
        ("corpus.n_test_pos", "two", "'n_test_pos' in experiment config"),
        ("train.steps", 10.5, "'steps' in section 'train'"),
        ("train.learning_rate", "fast", "'learning_rate' in section 'train'"),
        ("train.seed", 1.5, "'seed' in section 'train'"),
        ("seed", 1.5, "'seed' in experiment config"),
        ("corpus.n_train_pos", 3.5, "'n_train_pos' in experiment config"),
        ("train.band_bpm", [240, 40], "band_bpm [240.0, 40.0]"),
        ("train.band_bpm", [40], "'band_bpm' in section 'train'"),
        ("svm.C", 0, "svm.C (0)"),
        ("svm.nu", 1.5, "svm.nu (1.5)"),
        ("estimator.kernel_len", 30, "estimator.kernel_len (30)"),
        ("negatives.uniform_bounds", [3, -3], "uniform_bounds [3.0, -3.0]"),
        ("negatives.kinds", [], "negatives.kinds"),
        ("scene.hr_range_bpm", [300, 320], "scene.hr_range_bpm [300.0, 320.0]"),
        ("dims", [8], "'dims' in experiment config"),
        ("dims", [0, 8], "dims (0, 8)"),
        ("scene.dicrotic_ratio", 2, "dicrotic_ratio (2)"),
        ("scene.hrv_knot_spacing_s", 0, "scene.hrv_knot_spacing_s (0)"),
        ("scene.train_sensor_noise", -1, "scene.train_sensor_noise (-1)"),
        ("scene.eval_sensor_noise", -1, "scene.eval_sensor_noise (-1)"),
        ("estimator.filters", 0, "estimator.filters (0)"),
        ("estimator.filters", -1, "estimator.filters (-1)"),
        ("estimator.kernel_len", -1, "estimator.kernel_len (-1)"),
        ("estimator.init_scale", 0, "estimator.init_scale (0)"),
        ("estimator.init_scale", -1, "estimator.init_scale (-1)"),
        # smoke runs at 20 fps: 0.02 s rounds to no frame
        ("features.stride_s", 0, "features.stride_s (0 s)"),
        ("features.stride_s", 0.02, "features.stride_s (0.02 s)"),
    ]

    @pytest.mark.parametrize("key, value, named", MALFORMED,
                             ids=[f"{key}={value}" for key, value, _ in MALFORMED])
    def test_malformed_value_is_config_error(self, tmp_path, capsys, key, value, named):
        payload = json.loads(Path("configs/smoke.json").read_text())
        *section, name = key.split(".")
        (payload[section[0]] if section else payload)[name] = value
        bad = tmp_path / "malformed.json"
        bad.write_text(json.dumps(payload))
        assert main(["experiment", "--config", str(bad), "--dry-run"]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("error", [NumericalDivergenceError, DegenerateInputError])
    def test_numerical_failure_in_stage_exits_3(self, tmp_path, capsys, monkeypatch, error):
        # every variant fails, 'none' last in time: the first job in config
        # order is still the one reported
        def diverge(cfg, *args, **kwargs):
            if cfg.loss.negative_loss == "none":
                time.sleep(0.5)
            raise error("loss went non-finite")

        monkeypatch.setattr(experiment, "train", diverge)
        assert main_within(["experiment", "--config", "configs/smoke.json",
                            "--out", str(tmp_path / "run")]) == 3
        assert "stage 'train-none' failed" in capsys.readouterr().err

    def test_stage_error_pickles(self):
        # a worker's error reaches the parent pickled; one that does not
        # unpickle leaves the pool waiting forever
        error = pickle.loads(pickle.dumps(
            experiment.StageError("train-std", NumericalDivergenceError("x"))))
        assert error.stage == "train-std"
        assert isinstance(error.cause, NumericalDivergenceError) and str(error.cause) == "x"
        assert str(error) == "stage 'train-std' failed: x"

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable CPUs")
    def test_outputs_do_not_depend_on_worker_count(self, tmp_path):
        # one usable CPU runs the jobs in-process, more run them on a pool
        code = ("import os, sys; from pulsegate.cli import main; "
                "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}) "
                "if sys.argv[1] == 'pinned' else None; sys.exit(main(sys.argv[2:]))")
        src = str(Path(pulsegate.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        env.pop("PULSEGATE_SEED", None)
        outputs = {}
        for mode in ("pinned", "pool"):
            out = tmp_path / mode
            subprocess.run([sys.executable, "-c", code, mode, "experiment", "--config",
                            "configs/smoke.json", "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            outputs[mode] = {str(p.relative_to(out)): p.read_bytes()
                             for p in out.rglob("*") if p.is_file()}
        assert outputs["pinned"]["report.json"] == outputs["pool"]["report.json"]
        manifest = json.loads(outputs["pool"]["report.json"])["manifest"]
        assert manifest and set(manifest) | {"report.json", "report.txt"} == set(outputs["pool"])
        assert outputs["pinned"] == outputs["pool"]

    def test_library_value_error_is_not_a_config_error(self, tmp_path, monkeypatch):
        # a bug inside the library must surface, not be reported as bad input
        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(experiment, "train", broken)
        with pytest.raises(ValueError, match="broadcast"):
            main(["experiment", "--config", "configs/smoke.json",
                  "--out", str(tmp_path / "run")])


def test_public_names_resolve():
    missing = [name for name in pulsegate.__all__ if not hasattr(pulsegate, name)]
    assert not missing
    namespace = {}
    exec("from pulsegate import *", namespace)
    assert set(pulsegate.__all__) <= set(namespace)
