import contextlib
import json
import os
import pickle
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import pulsegate
from pulsegate import experiment
from pulsegate.classify import fit_one_class
from pulsegate.cli import main
from pulsegate.errors import InvalidInputError, NumericalError
from pulsegate.estimator import ToyEstimator
from pulsegate.features import feature_windows
from pulsegate.fileio import (
    dump_json,
    read_cube,
    read_features,
    read_waveform,
    write_cube,
    write_features,
    write_waveform,
)
from pulsegate.signal_core import Waveform, spatial_mean_trace
from pulsegate.synth import SceneConfig, generate_positive

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


def write_gray_cube(path, frames, seed):
    """A cube file of 1 channel, written by hand: `VideoCube` builds only RGB."""
    data = np.random.default_rng(seed).uniform(0.3, 0.7, (frames, 4, 4, 1))
    path.write_bytes(data.astype("<f4").tobytes())
    dump_json({"t": frames, "h": 4, "w": 4, "c": 1, "fps": 30.0, "dtype": "f32",
               "order": "THWC"}, path.with_suffix(".json"))


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

    # lists that np.interp would misread: times that fall, a repeated time,
    # a knot of three values and an infinite time
    @pytest.mark.parametrize("knots", [[[5, 70], [1, 80]], [[0, 70], [0, 80]], [[0, 70, 1]],
                                       [[0, 70], [float("inf"), 80]]])
    def test_misread_hr_trajectory_is_config_error(self, tmp_path, capsys, knots):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps({**SCENE, "hr_trajectory": knots}))
        assert main(["synth", "--config", str(scene_path),
                     "--out", str(tmp_path / "pos.bin")]) == 2
        assert "hr_trajectory must be a list of finite [time_s, bpm] knots" \
            in capsys.readouterr().err
        assert not (tmp_path / "pos.bin").exists()

    @pytest.mark.parametrize("fps", [float("inf"), float("nan")])
    def test_non_finite_fps_rejected(self, tmp_path, capsys, fps):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps({**SCENE, "fps": fps}))
        assert main(["synth", "--config", str(scene_path),
                     "--out", str(tmp_path / "pos.bin")]) == 2
        assert f"fps ({fps:g}) must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "pos.bin").exists()

    def test_unindexable_scene_rejected(self, tmp_path, capsys):
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps({**SCENE, "fps": 1e300}))
        assert main(["synth", "--config", str(scene_path),
                     "--out", str(tmp_path / "pos.bin")]) == 2
        assert "duration_s (16) at fps (1e+300) makes 1.6e+301 frames" in capsys.readouterr().err
        assert not (tmp_path / "pos.bin").exists()

    def test_nan_heart_rate_rejected(self, tmp_path, capsys):
        # NaN fails every comparison, so the range check must be one that NaN fails
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(json.dumps({**SCENE, "hr_trajectory": float("nan")}))
        assert main(["synth", "--config", str(scene_path),
                     "--out", str(tmp_path / "pos.bin")]) == 2
        assert "hr trajectory must stay within [40, 240] bpm" in capsys.readouterr().err
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

    @pytest.mark.parametrize("method", ["green", "chrom", "pos"])
    def test_infinite_cube_fps_rejected(self, workdir, tmp_path, capsys, method):
        sidecar = json.loads((workdir / "pos.json").read_text())
        (tmp_path / "inf.json").write_text(json.dumps({**sidecar, "fps": float("inf")}))
        (tmp_path / "inf.bin").write_bytes((workdir / "pos.bin").read_bytes())
        code = main(["estimate", "--method", method, "--in", str(tmp_path / "inf.bin"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "video cube fps (inf) must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_infinite_resample_fps_rejected(self, workdir, tmp_path, capsys):
        code = main(["estimate", "--method", "green", "--in", str(workdir / "pos.bin"),
                     "--out", str(tmp_path / "x.csv"), "--resample-fps", "inf"])
        assert code == 2
        assert "target_fps (inf) must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_zero_resample_fps_rejected(self, workdir, tmp_path, capsys):
        code = main(["estimate", "--method", "green", "--in", str(workdir / "pos.bin"),
                     "--out", str(tmp_path / "x.csv"), "--resample-fps", "0"])
        assert code == 2
        assert "target_fps (0) must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("method", ["green", "chrom", "pos"])
    def test_one_channel_cube_rejected_by_color_baselines(self, tmp_path, capsys, method):
        write_gray_cube(tmp_path / "gray.bin", 90, seed=1)
        code = main(["estimate", "--method", method, "--in", str(tmp_path / "gray.bin"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: video cube must be a (T, H, W, 3) RGB array with T >= 2, "
            "not (90, 4, 4, 1)\n")
        assert not (tmp_path / "x.csv").exists()

    def test_one_channel_cube_rejected_by_model(self, tmp_path, capsys):
        write_gray_cube(tmp_path / "gray.bin", 90, seed=1)
        dump_json(ToyEstimator.init(filters=2, kernel_len=5).to_dict(), tmp_path / "model.json")
        code = main(["estimate", "--method", "model", "--model", str(tmp_path / "model.json"),
                     "--in", str(tmp_path / "gray.bin"), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: video cube must be a (T, H, W, 3) RGB array with T >= 2, "
            "not (90, 4, 4, 1)\n")
        assert not (tmp_path / "x.csv").exists()

    def test_model_of_one_channel_rejected(self, workdir, tmp_path, capsys):
        # the file's own arrays agree with its in_channels of 1
        payload = ToyEstimator.init(filters=2, kernel_len=5).to_dict()
        payload.update(in_channels=1, w1=payload["w1"][:10])
        dump_json(payload, tmp_path / "model.json")
        code = main(["estimate", "--method", "model", "--model", str(tmp_path / "model.json"),
                     "--in", str(workdir / "pos.bin"), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: w1 has shape (2, 1, 5); 2 filters need (2, 3, 5)\n")
        assert not (tmp_path / "x.csv").exists()

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

    # a model file of 4 filters whose biases are cut or grown
    @pytest.mark.parametrize("key, values, named", [
        ("b1", [0.0] * 3, "b1 has shape (3,); 4 filters need (4,)"),
        ("b2", [0.0] * 2, "b2 has shape (2,); 4 filters need (1,)"),
    ], ids=["b1", "b2"])
    def test_model_with_bad_bias_rejected(self, workdir, tmp_path, capsys, key, values, named):
        model = tmp_path / "model.json"
        dump_json({**ToyEstimator.init(filters=4, kernel_len=5, seed=0).to_dict(), key: values},
                  model)
        code = main(["estimate", "--method", "model", "--model", str(model),
                     "--in", str(workdir / "pos.bin"), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


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

    def test_one_class_fit_skips_anomalous_rows(self, workdir, tmp_path):
        # an unlabeled live file next to a file labelled anomalous
        for side, label in (("pos", []), ("neg", ["--label", "anomalous"])):
            wave = tmp_path / f"wave_{side}.csv"
            assert main(["estimate", "--method", "chrom", "--in", str(workdir / f"{side}.bin"),
                         "--out", str(wave)]) == 0
            assert main(["features", "--in", str(wave),
                         "--out", str(tmp_path / f"feats_{side}.csv"), *label]) == 0
        for name, files in (("mixed", ["feats_pos.csv", "feats_neg.csv"]),
                            ("live", ["feats_pos.csv"])):
            assert main(["classify", "fit", "--in", *[str(tmp_path / f) for f in files],
                         "--kind", "one", "--out", str(tmp_path / f"svm_{name}.json")]) == 0
        assert (tmp_path / "svm_mixed.json").read_bytes() == \
            (tmp_path / "svm_live.json").read_bytes()

    def test_stride_under_one_frame_rejected(self, workdir, tmp_path, capsys):
        wave = tmp_path / "wave.csv"
        assert main(["estimate", "--method", "green", "--in", str(workdir / "pos.bin"),
                     "--out", str(wave)]) == 0
        assert main(["features", "--in", str(wave), "--out", str(tmp_path / "feats.csv"),
                     "--stride-s", "0"]) == 2
        assert "stride_s (0 s) is under one frame" in capsys.readouterr().err
        assert not (tmp_path / "feats.csv").exists()

    @pytest.mark.parametrize("flag, value, named", [
        ("--window-s", "nan", "window_s (nan s) holds no finite number of samples"),
        ("--window-s", "inf", "window_s (inf s) holds no finite number of samples"),
        ("--stride-s", "nan", "stride_s (nan s) holds no finite number of samples"),
        ("--window-s", "0", "window_s (0 s) holds 0 samples at 30 fps"),
        ("--window-s", "0.2", "window_s (0.2 s) holds 6 samples at 30 fps")])
    def test_bad_window_flag_rejected(self, workdir, tmp_path, capsys, flag, value, named):
        wave = tmp_path / "wave.csv"
        assert main(["estimate", "--method", "green", "--in", str(workdir / "pos.bin"),
                     "--out", str(wave)]) == 0
        capsys.readouterr()
        # a numpy warning printed on stderr from the shell is recorded here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["features", "--in", str(wave), "--out", str(tmp_path / "feats.csv"),
                         flag, value]) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert named in err and err.count("\n") == 1
        assert not (tmp_path / "feats.csv").exists()

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_malformed_feature_table_exits_2(self, tmp_path, capsys, command):
        # a third file labelled 2 beside a live and an anomalous one; at fit,
        # SMO would run to its iteration cap on it and exit 3
        x = np.random.default_rng(3).normal(0.0, 1.0, (12, 8))
        files = [tmp_path / f"feats_{label}.csv" for label in (1, -1, 2)]
        for path, label in zip(files, (1, -1, 2)):
            write_features(path, np.arange(12.0), x + label, np.full(12, label))
        if command == "fit":
            argv = ["fit", "--in", *map(str, files), "--kind", "two"]
        else:
            dump_json(fit_one_class(x).to_dict(), tmp_path / "svm.json")
            argv = ["predict", "--model", str(tmp_path / "svm.json"), "--in", str(files[2])]
        assert main(["classify", *argv, "--out", str(tmp_path / "out")]) == 2
        assert f"{files[2]}: label 2 is neither" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_model_with_unknown_key_rejected(self, tmp_path, capsys):
        x = np.random.default_rng(3).normal(0.0, 1.0, (12, 8))
        write_features(tmp_path / "feats.csv", np.arange(12.0), x)
        dump_json({**fit_one_class(x).to_dict(), "kernel": "rbf"}, tmp_path / "svm.json")
        assert main(["classify", "predict", "--model", str(tmp_path / "svm.json"), "--in",
                     str(tmp_path / "feats.csv"), "--out", str(tmp_path / "p.csv")]) == 2
        assert "'kernel'" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    # a model file's arrays cut to disagree with each other or with the 8 feature columns
    BAD_SHAPES = {
        "three_column_support_vectors": (
            lambda m: {**m, "support_vectors": [row[:3] for row in m["support_vectors"]],
                       "scaler_mean": m["scaler_mean"][:3], "scaler_std": m["scaler_std"][:3]},
            "feature rows have 8 columns; the model takes 3"),
        "short_scaler": (lambda m: {**m, "scaler_std": m["scaler_std"][:7]},
                         "scaler_std must hold one value per column (8)"),
        "short_dual_coef": (lambda m: {**m, "dual_coef": m["dual_coef"][1:]},
                            "dual_coef must hold one value per support vector"),
        "empty_support_vectors": (lambda m: {**m, "support_vectors": [], "dual_coef": []},
                                  "support_vectors must be a non-empty 2-D array"),
        # values a fitted model never holds
        "negative_gamma": (lambda m: {**m, "gamma": -1.0},
                           "gamma (-1) must be positive and finite"),
        "zero_gamma": (lambda m: {**m, "gamma": 0.0}, "gamma (0) must be positive and finite"),
        "infinite_gamma": (lambda m: {**m, "gamma": float("inf")},
                           "gamma (inf) must be positive and finite"),
        "zero_scaler_std": (lambda m: {**m, "scaler_std": [0.0] * 8},
                            "scaler_std entries must be positive"),
        "negative_scaler_std": (lambda m: {**m, "scaler_std": [-1.0] + m["scaler_std"][1:]},
                                "scaler_std entries must be positive"),
        "nan_support_vector": (
            lambda m: {**m, "support_vectors": [[float("nan")] + m["support_vectors"][0][1:]]
                       + m["support_vectors"][1:]},
            "support_vectors must be finite"),
        "nan_dual_coef": (lambda m: {**m, "dual_coef": [float("nan")] + m["dual_coef"][1:]},
                          "dual_coef must be finite"),
        "infinite_bias": (lambda m: {**m, "bias": float("inf")}, "bias must be finite"),
        "nan_scaler_mean": (lambda m: {**m, "scaler_mean": [float("nan")] * 8},
                            "scaler_mean must be finite"),
        "infinite_scaler_std": (lambda m: {**m, "scaler_std": [float("inf")] * 8},
                                "scaler_std must be finite"),
        "unknown_kind": (lambda m: {**m, "kind": "three_class"},
                         "kind 'three_class' must be 'two_class' or 'one_class'"),
    }

    @pytest.mark.parametrize("case", BAD_SHAPES)
    def test_model_with_bad_shapes_rejected(self, tmp_path, capsys, case):
        cut, named = self.BAD_SHAPES[case]
        x = np.random.default_rng(3).normal(0.0, 1.0, (12, 8))
        write_features(tmp_path / "feats.csv", np.arange(12.0), x)
        dump_json(cut(fit_one_class(x).to_dict()), tmp_path / "svm.json")
        assert main(["classify", "predict", "--model", str(tmp_path / "svm.json"), "--in",
                     str(tmp_path / "feats.csv"), "--out", str(tmp_path / "p.csv")]) == 2
        assert named in capsys.readouterr().err
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_window_rejected(self, workdir, tmp_path, capsys, value):
        code = main(["pulse-rate", "--in", str(workdir / "gt.csv"),
                     "--report", str(tmp_path / "rate.json"), f"--window-s={value}"])
        assert code == 2
        assert capsys.readouterr().err == (f"error: window_s ({value} s) holds no finite "
                                           "number of samples at 30 fps\n")
        assert not (tmp_path / "rate.json").exists()

    def test_misaligned_truth_rejected(self, workdir, tmp_path, capsys):
        # a truth 40 frames shorter gives rate windows at other times
        truth = read_waveform(workdir / "gt.csv")
        short = tmp_path / "short_gt.csv"
        write_waveform(Waveform(truth.samples[:-40], truth.fps), short)
        assert main(["pulse-rate", "--in", str(workdir / "gt.csv"), "--truth", str(short),
                     "--report", str(tmp_path / "rate.json")]) == 2
        assert "not aligned in time" in capsys.readouterr().err

    @pytest.mark.parametrize("truth", [False, True])
    def test_constant_waveform_has_no_rate(self, workdir, tmp_path, capsys, truth):
        # 15 s at 30 fps: 151 windows of 10 s, each constant; the truth is never read
        wave, report = tmp_path / "flat.csv", tmp_path / "rate.json"
        write_waveform(Waveform(np.full(450, 0.5), 30.0), wave)
        argv = ["pulse-rate", "--in", str(wave), "--report", str(report)]
        assert main(argv + (["--truth", str(tmp_path / "missing.csv")] if truth else [])) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: no pulse rate in {wave}: 151 of 151 windows are constant\n")
        assert not report.exists()

    def test_malformed_waveform_rejected(self, tmp_path, capsys):
        wave = tmp_path / "wave.csv"
        wave.write_text("t,value\n0.0,1.0\n0.05,oops\n0.1,0.5\n")
        assert main(["pulse-rate", "--in", str(wave),
                     "--report", str(tmp_path / "rate.json")]) == 2
        assert "oops" in capsys.readouterr().err


class TestSizeBudget:
    """A setting that sizes an array past `signal_core.MAX_CELLS` exits 2 and
    names it.  Each command runs under a 1 GiB address-space limit, so an
    array of that size asked for before the check fails the test."""

    @pytest.mark.parametrize("argv, named", [
        (["pulse-rate", "--in", "{dir}/gt.csv", "--report", "{out}", "--nfft", "100000000"],
         "nfft=100000000 asks for an array of 1e+08 elements"),
        (["features", "--in", "{dir}/gt.csv", "--out", "{out}", "--nfft", "100000000"],
         "nfft=100000000 asks for an array of"),
        (["estimate", "--method", "green", "--in", "{dir}/pos.bin", "--out", "{out}",
          "--resample-fps", "1e9"], "target_fps=1e+09 asks for an array of"),
        (["estimate", "--method", "green", "--in", "{dir}/pos.bin", "--out", "{out}",
          "--resample-fps", "1e300"], "target_fps=1e+300 asks for an array of"),
    ], ids=["pulse-rate-nfft", "features-nfft", "resample-1e9", "resample-1e300"])
    def test_oversized_setting_rejected(self, workdir, tmp_path, argv, named):
        out = tmp_path / "out"
        argv = [arg.format(dir=workdir, out=out) for arg in argv]
        code = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "from pulsegate.cli import main; sys.exit(main(sys.argv[1:]))")
        src = str(Path(pulsegate.__file__).resolve().parent.parent)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert named in result.stderr
        assert not out.exists()


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

    def test_divergence_is_one_line(self, workdir, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("pos.bin", "pos.json", "gt.csv"):
            (corpus / name).write_bytes((workdir / name).read_bytes())
        dump_json({"samples": [{"cube": "pos.bin", "gt": "gt.csv", "positive": True}]},
                  corpus / "manifest.json")
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({
            "clip_len": 200, "batch_size": 2, "steps": 40, "learning_rate": 1e6,
            "seed": 14, "negative_mix": 0.0, "loss": {"positive_loss": "mse"},
            "estimator": {"filters": 4, "kernel_len": 31}}))
        # a numpy warning printed on stderr from the shell is recorded here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["train", "--config", str(train_cfg), "--corpus", str(corpus),
                         "--out", str(tmp_path / "model.json")]) == 3
        assert [str(w.message) for w in caught] == []
        assert re.fullmatch(r"numerical failure: non-finite training loss (inf|nan) "
                            r"at step \d+\n", capsys.readouterr().err)
        assert not (tmp_path / "model.json").exists()

    # a positive is a sample with a ground truth: a manifest entry whose two
    # keys disagree is rejected before training, by its cube's name
    @pytest.mark.parametrize("positive, gt", [(False, "gt.csv"), (True, None)])
    def test_manifest_positive_must_agree_with_gt(self, workdir, tmp_path, capsys, positive, gt):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("pos.bin", "pos.json", "gt.csv", "neg.bin", "neg.json"):
            (corpus / name).write_bytes((workdir / name).read_bytes())
        dump_json({"samples": [{"cube": "pos.bin", "gt": "gt.csv", "positive": True},
                               {"cube": "neg.bin", "gt": gt, "positive": positive}]},
                  corpus / "manifest.json")
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({"clip_len": 150, "batch_size": 2, "steps": 2,
                                         "estimator": {"filters": 2, "kernel_len": 11}}))
        assert main(["train", "--config", str(train_cfg), "--corpus", str(corpus),
                     "--out", str(tmp_path / "model.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: corpus sample 'neg.bin': \"positive\" is {json.dumps(positive)} "
            f"but \"gt\" is {json.dumps(gt)}\n")
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

    @pytest.mark.parametrize("key, value", [("learning_rate", float("nan")),
                                            ("momentum", float("inf"))])
    def test_non_finite_rate_rejected(self, tmp_path, capsys, key, value):
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({"clip_len": 150, "steps": 2, key: value}))
        assert main(["train", "--config", str(train_cfg), "--corpus", str(tmp_path),
                     "--out", str(tmp_path / "model.json")]) == 2
        assert capsys.readouterr().err == f"error: train.{key} ({value:g}) must be finite\n"
        assert not (tmp_path / "model.json").exists()

    def test_one_channel_corpus_rejected(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_gray_cube(corpus / "gray.bin", 300, seed=2)
        write_waveform(Waveform(np.sin(np.arange(300) / 5.0), 30.0), corpus / "gt.csv")
        dump_json({"samples": [{"cube": "gray.bin", "gt": "gt.csv", "positive": True}]},
                  corpus / "manifest.json")
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({"clip_len": 150, "batch_size": 2, "steps": 2,
                                         "estimator": {"filters": 2, "kernel_len": 11}}))
        assert main(["train", "--config", str(train_cfg), "--corpus", str(corpus),
                     "--out", str(tmp_path / "model.json")]) == 2
        assert capsys.readouterr().err == (
            "error: video cube must be a (T, H, W, 3) RGB array with T >= 2, "
            "not (300, 4, 4, 1)\n")
        assert not (tmp_path / "model.json").exists()

    def test_ground_truth_at_another_frame_rate_rejected(self, tmp_path, capsys):
        # 360 samples at 15 fps for a 360-frame clip at 30 fps: the lengths agree
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        cube, truth = generate_positive(SceneConfig(
            duration_s=12.0, fps=30.0, dims=(4, 4), hr_trajectory=75.0, seed=3))
        write_cube(cube, corpus / "pos.bin")
        write_waveform(Waveform(truth.samples, 15.0), corpus / "gt.csv")
        dump_json({"samples": [{"cube": "pos.bin", "gt": "gt.csv", "positive": True}]},
                  corpus / "manifest.json")
        train_cfg = tmp_path / "train.json"
        train_cfg.write_text(json.dumps({"clip_len": 150, "batch_size": 2, "steps": 2,
                                         "estimator": {"filters": 2, "kernel_len": 11}}))
        assert main(["train", "--config", str(train_cfg), "--corpus", str(corpus),
                     "--out", str(tmp_path / "model.json")]) == 2
        assert capsys.readouterr().err == (
            "error: a target at 15 fps drifts half a frame or more from its clip at 30 fps\n")
        assert not (tmp_path / "model.json").exists()

    # the estimator key, its bad value, and what stderr must say: the key and the value
    BAD_ESTIMATOR = [("filters", 0, "filters (0)"), ("filters", -1, "filters (-1)"),
                     ("kernel_len", -1, "kernel_len (-1)"), ("kernel_len", 30, "kernel_len (30)"),
                     ("init_scale", 0, "init_scale (0)"), ("init_scale", -1, "init_scale (-1)")]

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
    @pytest.mark.parametrize("config", ["configs/smoke.json", "configs/repro-desk.json"])
    def test_dry_run(self, config):
        assert main(["experiment", "--config", config, "--dry-run"]) == 0

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

    def test_corpora_hold_spatial_means(self, tmp_path):
        cfg = experiment.ExperimentConfig.from_dict(
            json.loads(Path("configs/smoke.json").read_text()))
        with experiment._workers(1) as run:
            sets = experiment.build_corpora(cfg, tmp_path / "corpus", run)
        kinds = ("normal", "uniform", "shuffle")
        # smoke: 12 s training scenes and 16 s evaluation scenes at 20 fps
        for name, n_pos, n_neg, frames in (("train", 3, 3, 240), ("val_model", 2, 2, 240),
                                           ("val", 4, 3, 320), ("test", 2, 3, 320)):
            assert [video.name for video in sets[name]] == (
                [f"{name}_pos_{i:02d}" for i in range(n_pos)]
                + [f"{name}_neg_{i:02d}_{kinds[i % 3]}" for i in range(n_neg)])
            for video in sets[name]:
                assert video.trace.values.shape == (frames, 3)
                assert (video.truth is None) == ("_neg_" in video.name)
        samples = json.loads((tmp_path / "corpus" / "manifest.json").read_text())["samples"]
        assert samples == (
            [{"cube": f"train_pos_{i:02d}.bin", "gt": f"train_pos_{i:02d}_gt.csv",
              "positive": True} for i in range(3)]
            + [{"cube": f"train_neg_{i:02d}_{kinds[i]}.bin", "gt": None, "positive": False}
               for i in range(3)])
        # the corpus keeps the full f32 cubes, whose traces are the study's
        for video, sample in zip(sets["train"], samples):
            full = read_cube(tmp_path / "corpus" / sample["cube"])
            assert full.data.shape == (240, 8, 8, 3)
            np.testing.assert_allclose(spatial_mean_trace(full).values, video.trace.values,
                                       rtol=0.0, atol=1e-7)
            if sample["gt"]:
                truth = read_waveform(tmp_path / "corpus" / sample["gt"])
                assert np.array_equal(truth.samples, video.truth.samples)

    def test_corpora_do_not_depend_on_the_runner(self, tmp_path):
        # in this process, and on a real 2-worker pool whatever the usable CPUs
        cfg = experiment.ExperimentConfig.from_dict(
            json.loads(Path("configs/smoke.json").read_text()))
        sets, files = {}, {}
        for count in (1, 2):
            with experiment._workers(count) as run:
                sets[count] = experiment.build_corpora(cfg, tmp_path / str(count), run)
            files[count] = {str(p.relative_to(tmp_path / str(count))): p.read_bytes()
                            for p in (tmp_path / str(count)).rglob("*") if p.is_file()}
        assert list(sets[1]) == list(sets[2]) == ["train", "val_model", "val", "test"]
        for name in sets[1]:
            assert [v.name for v in sets[1][name]] == [v.name for v in sets[2][name]]
            for serial, pooled in zip(sets[1][name], sets[2][name]):
                assert np.array_equal(serial.trace.values, pooled.trace.values)
                assert serial.trace.fps == pooled.trace.fps
                if serial.truth is None:
                    assert pooled.truth is None
                else:
                    assert np.array_equal(serial.truth.samples, pooled.truth.samples)
        # 6 cubes with their sidecars, 3 truths and the manifest
        assert "manifest.json" in files[1] and len(files[1]) == 16
        assert files[1] == files[2]

    def test_jobs_carry_their_inputs(self, tmp_path, monkeypatch):
        # each job and each result goes through pickle, as to and from a
        # worker, on any number of usable CPUs: no job may lean on state that
        # only this process holds
        def through_pickle(value):
            return pickle.loads(pickle.dumps(value))

        @contextlib.contextmanager
        def pickling(count):
            yield lambda jobs: [through_pickle(through_pickle(job)()) for job in jobs]

        trees = {}
        for mode in ("plain", "pickled"):
            if mode == "pickled":
                monkeypatch.setattr(experiment, "_workers", pickling)
            out = tmp_path / mode
            assert main(["experiment", "--config", "configs/smoke.json", "--out", str(out)]) == 0
            trees[mode] = {str(p.relative_to(out)): p.read_bytes()
                           for p in out.rglob("*") if p.is_file()}
        assert "corpus/manifest.json" in trees["plain"]
        assert trees["plain"] == trees["pickled"]

    def test_scorer_writes_no_file(self, tmp_path, monkeypatch):
        # each variant's passes, caught as the study hands them to the scorer in-process
        calls, score, workers = [], experiment.score_passes, experiment._workers
        monkeypatch.setattr(experiment, "score_passes",
                            lambda *args: calls.append(args) or score(*args))
        monkeypatch.setattr(experiment, "_workers", lambda count: workers(1))
        cfg = experiment.ExperimentConfig.from_dict(
            json.loads(Path("configs/smoke.json").read_text()))
        out = tmp_path / "run"
        experiment.run_experiment(cfg, out)
        report = json.loads((out / "report.json").read_text())
        tree = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert len(calls) == len(cfg.variants)
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.chdir(empty)
        for variant, args in zip(cfg.variants, calls):
            metrics, svms = score(*args)
            assert json.loads(json.dumps(metrics)) == {
                key: value for key, value in report["variants"][variant].items()
                if key != "validation"}
            # the SVMs it returns are the ones the study wrote
            for kind, svm in svms.items():
                assert json.loads(json.dumps(svm.to_dict())) == json.loads(
                    (out / "svm" / f"{variant}_{kind}.json").read_text())
        assert list(empty.iterdir()) == []
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == tree

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

    def test_feature_tables_hold_window_starts(self, tmp_path):
        # each video's window starts in seconds, stacked in the order of its rows
        assert main(["experiment", "--config", "configs/smoke.json", "--out", str(tmp_path)]) == 0
        cfg = experiment.ExperimentConfig.from_dict(
            json.loads(Path("configs/smoke.json").read_text()))
        frames = int(round(cfg.eval_duration_s * cfg.fps))
        starts = np.asarray(feature_windows(np.zeros(frames), cfg.fps, cfg.feature_window_s,
                                            cfg.feature_stride_s)[0]) / cfg.fps
        videos = {"val": cfg.n_val_svm_pos + cfg.n_val_svm_neg,
                  "test": cfg.n_test_pos + cfg.n_test_neg}
        for variant in cfg.variants:
            for split, count in videos.items():
                t_start, matrix, _ = read_features(tmp_path / "features" / variant / f"{split}.csv")
                assert len(starts) > 1 and len(matrix) == count * len(starts)
                np.testing.assert_array_equal(t_start, np.tile(starts, count))

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
        ("scene.hrv_knot_spacing_s", 1e-300, "scene.hrv_knot_spacing_s (1e-300)"),
        ("scene.hrv_knot_spacing_s", float("inf"), "scene.hrv_knot_spacing_s (inf)"),
        ("scene.hrv_step_bpm", -1, "scene.hrv_step_bpm (-1)"),
        ("scene.hrv_step_bpm", float("inf"), "scene.hrv_step_bpm (inf)"),
        ("scene.hrv_clamp_bpm", -1, "scene.hrv_clamp_bpm (-1)"),
        ("scene.train_sensor_noise", -1, "scene.train_sensor_noise (-1)"),
        ("scene.eval_sensor_noise", -1, "scene.eval_sensor_noise (-1)"),
        ("estimator.filters", 0, "estimator.filters (0)"),
        ("estimator.filters", -1, "estimator.filters (-1)"),
        ("estimator.kernel_len", -1, "estimator.kernel_len (-1)"),
        ("estimator.init_scale", 0, "estimator.init_scale (0)"),
        ("estimator.init_scale", -1, "estimator.init_scale (-1)"),
        # rejected before the kernels are drawn: 1e12 x 3 x 31 values
        ("estimator.filters", 10 ** 12,
         "estimator.filters with estimator.kernel_len asks for an array of 9.3e+13 elements"),
        # smoke runs at 20 fps: 0.02 s rounds to no frame
        ("features.stride_s", 0, "features.stride_s (0 s)"),
        ("features.stride_s", 0.02, "features.stride_s (0.02 s)"),
        ("fps", float("inf"), "fps (inf) must be positive and finite"),
        ("fps", float("nan"), "fps (nan) must be positive and finite"),
        ("rate_eval.resample_fps", float("inf"),
         "rate_eval.resample_fps (inf) must be positive and finite"),
        ("rate_eval.resample_fps", float("nan"),
         "rate_eval.resample_fps (nan) must be positive and finite"),
        ("features.window_s", float("nan"), "features.window_s (nan s) holds no finite number"),
        ("features.window_s", 0, "features.window_s (0 s) holds 0 samples"),
        # 0.35 s is 7 samples at 20 fps, one short of what AMPD takes
        ("features.window_s", 0.35, "features.window_s (0.35 s) holds 7 samples"),
        ("features.stride_s", float("inf"), "features.stride_s (inf s) holds no finite number"),
        ("rate_eval.window_s", float("nan"), "rate_eval.window_s (nan s) holds no finite number"),
        ("rate_eval.window_s", float("inf"), "rate_eval.window_s (inf s) holds no finite number"),
        ("train.learning_rate", float("nan"), "train.learning_rate (nan) must be finite"),
        ("train.momentum", float("inf"), "train.momentum (inf) must be finite"),
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

    def test_hrv_trajectory_checks_before_drawing(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError, match="scene.hrv_knot_spacing_s"):
            experiment.hrv_trajectory(rng, 10.0, 73, 77, 4, 8, 0.0)
        # nothing was drawn
        assert rng.random() == np.random.default_rng(0).random()

    # rules that a stage checks and the study's --dry-run checks through it:
    # the stage's command, the study's setting, a bad value, and the name the
    # stage's message gives the setting
    SHARED_RULES = [("train", "estimator.filters", 0, "estimator.filters"),
                    ("features", "features.window_s", 0.2, "window_s"),
                    ("pulse-rate", "rate_eval.stride_frames", 0, "stride_frames")]

    @pytest.mark.parametrize("command, key, value, name", SHARED_RULES,
                             ids=[command for command, *_ in SHARED_RULES])
    def test_stage_and_dry_run_word_a_rule_alike(self, tmp_path, capsys, command, key, value,
                                                 name):
        payload = json.loads(Path("configs/smoke.json").read_text())
        section, setting = key.split(".")
        payload[section][setting] = value
        (tmp_path / "study.json").write_text(json.dumps(payload))
        assert main(["experiment", "--config", str(tmp_path / "study.json"), "--dry-run"]) == 2
        dry_run = capsys.readouterr().err
        # at the study's frame rate, the same seconds hold the same samples
        wave = tmp_path / "wave.csv"
        write_waveform(Waveform(np.sin(np.arange(400) / 3.0), payload["fps"]), wave)
        if command == "train":
            (tmp_path / "train.json").write_text(json.dumps(
                {"clip_len": 150, "steps": 2, section: {setting: value}}))
            argv = ["--config", str(tmp_path / "train.json"), "--corpus", str(tmp_path),
                    "--out", str(tmp_path / "model.json")]
        elif command == "features":
            argv = ["--in", str(wave), "--out", str(tmp_path / "feats.csv"),
                    "--window-s", str(value)]
        else:
            argv = ["--in", str(wave), "--report", str(tmp_path / "rate.json"),
                    "--stride-frames", str(value)]
        assert main([command, *argv]) == 2
        stage = capsys.readouterr().err
        assert stage.count(name) == 1 and stage.replace(name, key) == dry_run

    def test_numerical_failure_in_stage_exits_3(self, tmp_path, capsys, monkeypatch):
        # every variant fails, 'none' last in time: the first job in config
        # order is still the one reported
        def diverge(cfg, *args, **kwargs):
            if cfg.loss.negative_loss == "none":
                time.sleep(0.5)
            raise NumericalError("loss went non-finite")

        monkeypatch.setattr(experiment, "train", diverge)
        assert main_within(["experiment", "--config", "configs/smoke.json",
                            "--out", str(tmp_path / "run")]) == 3
        assert ("numerical failure: stage 'train-none' failed: loss went non-finite"
                in capsys.readouterr().err)

    def test_failing_scene_job_exits_2(self, tmp_path, capsys, monkeypatch):
        # on a real 2-worker pool, every training scene fails, train_pos_00's
        # last in time: the first job in job order is still the one reported
        def fail(cube, path):
            if path.name == "train_pos_00.bin":
                time.sleep(0.5)
            raise InvalidInputError(f"cannot write {path.name}")

        workers = experiment._workers
        monkeypatch.setattr(experiment, "write_cube", fail)
        monkeypatch.setattr(experiment, "_workers", lambda count: workers(2))
        assert main_within(["experiment", "--config", "configs/smoke.json",
                            "--out", str(tmp_path / "run")]) == 2
        assert ("error: stage 'synth' failed: cannot write train_pos_00.bin"
                in capsys.readouterr().err)

    def test_stage_error_pickles(self):
        # a worker's error reaches the parent pickled; one that does not
        # unpickle leaves the pool waiting forever
        for cls in (InvalidInputError, NumericalError):
            def fail():
                raise cls("x")

            with pytest.raises(cls) as caught:
                experiment._stage("train-std", fail)
            error = pickle.loads(pickle.dumps(caught.value))
            assert type(error) is cls
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
        # both arms run BLAS's default threading, whatever the caller sets
        for name in ("PULSEGATE_SEED", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
            env.pop(name, None)
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


def test_cli_import_loads_neither_multiprocessing_nor_scipy():
    # the benchmark's setup time is this import in a fresh interpreter
    code = ("import sys, pulsegate.cli; "
            "print(sorted({'multiprocessing', 'scipy'} & {m.split('.')[0] for m in sys.modules}))")
    src = str(Path(pulsegate.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_public_names_resolve():
    missing = [name for name in pulsegate.__all__ if not hasattr(pulsegate, name)]
    assert not missing
    namespace = {}
    exec("from pulsegate import *", namespace)
    assert set(pulsegate.__all__) <= set(namespace)
