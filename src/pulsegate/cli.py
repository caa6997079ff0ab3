"""Command-line front end: synth, estimate, train, features, classify,
pulse-rate and the end-to-end experiment driver.

Exit codes: 0 success, 2 configuration/input error, 3 numerical failure.
The PULSEGATE_SEED environment variable overrides config seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import baselines as bl
from .classify import ANOMALOUS, LIVE, SvmModel, fit_one_class, fit_two_class, predict
from .errors import (
    InvalidInputError,
    NumericalError,
    PulsegateError,
    check_keys,
    from_json,
    parsing,
)
from .estimator import ToyEstimator, TrainConfig, infer_video, train
from .evaluate import error_metrics, pulse_rate
from .experiment import ExperimentConfig, run_experiment
from .features import extract_features
from .fileio import (
    dump_json,
    read_cube,
    read_features,
    read_json,
    read_waveform,
    write_cube,
    write_features,
    write_table,
    write_waveform,
)
from .signal_core import (
    DEFAULT_NFFT,
    bandpass_brickwall,
    resample_cubic,
    spatial_mean_trace,
)
from .synth import NegativeTransform, SceneConfig, generate_positive, make_negative

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _env_seed() -> dict:
    """The seed that PULSEGATE_SEED sets, as a config entry: empty when it is unset."""
    env = os.environ.get("PULSEGATE_SEED")
    with parsing("PULSEGATE_SEED"):
        return {} if env is None else {"seed": int(env)}


def cmd_synth(args):
    payload = read_json(args.config)
    negative = payload.pop("negative", {})
    scene = from_json(SceneConfig, {**payload, **_env_seed()}, "scene config")
    with parsing("section 'negative'"):
        negative = {"seed": scene.seed, **negative, **_env_seed()}
    # read without --negative too, so that a bad block always fails
    transform = from_json(NegativeTransform, negative, "section 'negative'",
                          kind=args.negative or "shuffle")
    cube, truth = generate_positive(scene)
    if args.negative:
        cube = make_negative(cube, transform)
    write_cube(cube, args.out)
    if args.gt_out:
        write_waveform(truth, args.gt_out)
    print(f"wrote {args.out} ({cube.data.shape[0]} frames at {cube.fps} fps)")
    return EXIT_OK


def cmd_estimate(args):
    trace = spatial_mean_trace(read_cube(args.infile))
    if args.method == "model":
        if not args.model:
            raise InvalidInputError("--model is required for --method model")
        model = ToyEstimator.from_dict(read_json(args.model))
        clip_len = min(args.clip_len, len(trace))
        wave = infer_video(model, trace, clip_len, overlap=args.overlap)
    else:
        wave = bl.ESTIMATORS[args.method](trace)
    if args.bandpass:
        wave = bandpass_brickwall(wave)
    if args.resample_fps is not None:
        wave = resample_cubic(wave, args.resample_fps)
    write_waveform(wave, args.out)
    print(f"wrote {args.out} ({len(wave)} samples at {wave.fps:g} fps)")
    return EXIT_OK


def _read_corpus_dir(corpus_dir):
    corpus_dir = Path(corpus_dir)
    manifest = read_json(corpus_dir / "manifest.json")
    samples = []
    with parsing(corpus_dir / "manifest.json"):
        for entry in manifest["samples"]:
            if bool(entry["positive"]) != bool(entry.get("gt")):
                raise InvalidInputError(f"corpus sample {entry['cube']!r}: \"positive\" is "
                                        f"{json.dumps(entry['positive'])} but \"gt\" is "
                                        f"{json.dumps(entry.get('gt'))}")
            trace = spatial_mean_trace(read_cube(corpus_dir / entry["cube"]))
            truth = read_waveform(corpus_dir / entry["gt"]) if entry.get("gt") else None
            samples.append((trace, truth))
    return samples


def cmd_train(args):
    payload = read_json(args.config)
    estimator = payload.pop("estimator", {})
    check_keys(estimator, {"filters", "kernel_len", "init_scale"}, "section 'estimator'")
    cfg = from_json(TrainConfig, {**payload, **_env_seed()}, "train config")
    with parsing("section 'estimator'"):
        init = ToyEstimator.init(**estimator, seed=cfg.seed)
    samples = _read_corpus_dir(args.corpus)
    model, history, _ = train(cfg, samples, model=init)
    dump_json(model.to_dict(), args.out)
    print(f"wrote {args.out} (final batch loss {history[-1]:.4f} "
          f"after {len(history)} steps)")
    return EXIT_OK


def cmd_features(args):
    wave = read_waveform(args.infile)
    table = extract_features(wave, window_s=args.window_s, stride_s=args.stride_s,
                             nfft=args.nfft)
    labels = None
    if args.label:
        labels = np.full(len(table), LIVE if args.label == "live" else ANOMALOUS)
    write_features(args.out, table.starts_s, table.matrix, labels)
    print(f"wrote {args.out} ({len(table)} windows)")
    return EXIT_OK


def cmd_classify_fit(args):
    matrices, labels = zip(*(read_features(path)[1:] for path in args.infiles))
    if args.kind == "two":
        if any(l is None for l in labels):
            raise InvalidInputError("two-class fit needs labeled feature files")
        model = fit_two_class(np.vstack(matrices), np.concatenate(labels), C=args.C)
    else:
        # the one-class SVM learns the live rows: unlabeled ones and those labelled LIVE
        live = [m if l is None else m[l == LIVE] for m, l in zip(matrices, labels)]
        model = fit_one_class(np.vstack(live), nu=args.nu)
    dump_json(model.to_dict(), args.out)
    print(f"wrote {args.out} ({model.support_vectors.shape[0]} support vectors)")
    return EXIT_OK


def cmd_classify_predict(args):
    model = SvmModel.from_dict(read_json(args.model))
    t_starts, matrix, _ = read_features(args.infile)
    labels, decisions = predict(model, matrix)
    write_table(args.out, ["t_start", "decision", "label"],
                zip(t_starts.tolist(), decisions.tolist(), labels.tolist()))
    live = int((labels == LIVE).sum())
    print(f"wrote {args.out} ({live}/{len(labels)} windows classified live)")
    return EXIT_OK


def cmd_pulse_rate(args):
    wave = read_waveform(args.infile)
    pred = pulse_rate(wave, window_s=args.window_s, stride_frames=args.stride_frames,
                      nfft=args.nfft)
    if np.isnan(pred.bpm).all():
        raise NumericalError(f"no pulse rate in {args.infile}: "
                             f"{pred.bpm.size} of {pred.bpm.size} windows are constant")

    def series(rates):
        return {"times_s": list(map(float, rates.times_s)),
                "bpm": [None if np.isnan(v) else float(v) for v in rates.bpm]}

    payload = {"pred": series(pred)}
    if args.truth:
        truth_wave = read_waveform(args.truth)
        truth = pulse_rate(truth_wave, window_s=args.window_s,
                           stride_frames=args.stride_frames, nfft=args.nfft)
        if truth.times_s.shape != pred.times_s.shape or \
                not np.allclose(pred.times_s, truth.times_s):
            raise InvalidInputError("rate series are not aligned in time")
        payload["truth"] = series(truth)
        payload["errors"] = error_metrics(pred.bpm, truth.bpm).to_dict()
    dump_json(payload, args.report)
    if "errors" in payload:
        err = payload["errors"]
        r_text = "n/a" if err["pearson_r"] is None else f"{err['pearson_r']:.3f}"
        print(f"MAE {err['mae_bpm']:.3f} bpm, RMSE {err['rmse_bpm']:.3f} bpm, "
              f"r {r_text}")
    else:
        valid = [v for v in payload["pred"]["bpm"] if v is not None]
        print(f"median rate {np.median(valid):.1f} bpm over {len(valid)} windows")
    return EXIT_OK


def cmd_experiment(args):
    cfg = ExperimentConfig.from_dict({**read_json(args.config), **_env_seed()})
    if args.dry_run:
        print("config ok")
        return EXIT_OK
    if not args.out:
        raise InvalidInputError("--out directory is required (unless --dry-run)")
    run_experiment(cfg, args.out)
    print((Path(args.out) / "report.txt").read_text())
    print(f"report written to {args.out}/report.json")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="pulsegate",
                                     description="anomaly-aware remote pulse estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic scene")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--negative", choices=["normal", "uniform", "shuffle"])
    p.add_argument("--gt-out")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("estimate", help="estimate a pulse waveform from a cube")
    p.add_argument("--method", required=True, choices=[*bl.ESTIMATORS, "model"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model")
    p.add_argument("--clip-len", type=int, default=270)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--bandpass", action="store_true")
    p.add_argument("--resample-fps", type=float)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("train", help="train the toy estimator on a corpus directory")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("features", help="extract windowed waveform features")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window-s", type=float, default=10.0)
    p.add_argument("--stride-s", type=float, default=1.0)
    p.add_argument("--nfft", type=int, default=DEFAULT_NFFT)
    p.add_argument("--label", choices=["live", "anomalous"])
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("classify", help="fit or apply an SVM")
    csub = p.add_subparsers(dest="subcommand", required=True)
    pf = csub.add_parser("fit")
    pf.add_argument("--in", dest="infiles", nargs="+", required=True)
    pf.add_argument("--kind", required=True, choices=["one", "two"])
    pf.add_argument("--out", required=True)
    pf.add_argument("--C", type=float, default=1.0)
    pf.add_argument("--nu", type=float, default=0.5)
    pf.set_defaults(fn=cmd_classify_fit)
    pp = csub.add_parser("predict")
    pp.add_argument("--model", required=True)
    pp.add_argument("--in", dest="infile", required=True)
    pp.add_argument("--out", required=True)
    pp.set_defaults(fn=cmd_classify_predict)

    p = sub.add_parser("pulse-rate", help="windowed pulse-rate estimation and errors")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--truth")
    p.add_argument("--report", required=True)
    p.add_argument("--window-s", type=float, default=10.0)
    p.add_argument("--stride-frames", type=int, default=1)
    p.add_argument("--nfft", type=int, default=DEFAULT_NFFT)
    p.set_defaults(fn=cmd_pulse_rate)

    p = sub.add_parser("experiment", help="run the full synthetic study")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--dry-run", action="store_true")
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PulsegateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
