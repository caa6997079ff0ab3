"""Seed sweep of the desk study: how far each acceptance margin is from its bound.

Usage (from the repository root):

    python3 scripts/sweep.py                   # writes the next SWEEP_<n>.json
    python3 scripts/sweep.py --out sweep.json --label "what was run"

Each seed is one `pulsegate experiment` run of `configs/repro-desk.json`
with `PULSEGATE_SEED` set and BLAS on one thread.  Seeds run one at a time:
each run already spreads its jobs over every usable CPU, so two at once would
only contend for them and distort each seed's `wall_s`.  The program runs
from this checkout's `src/`.  For every seed the script reads `report.json`
and the loss histories and computes the margins of the seed-dependent
acceptance criteria (positive means passing):

- 07: 6 dB minus the positives-only SNR gap
- 08: each spectral variant's SNR gap minus 6 dB, and 0.2 minus the std
  variant's clip-std ratio
- 09: the best anomaly-aware two-class accuracy minus 0.90, its gain over
  positives-only minus 5 points, and the one-class gain (must be > 0)
- 10: 1 bpm minus the largest MAE distance from positives-only

and each variant's MA50 loss ratio (the last 50 steps over the 50 from
mid-training; the bound is 1.10).  The output holds every seed's values, the
min/median/max of each, and the share of seeds that pass everything.
Bounds are the acceptance suite's; a failing seed is reported, not dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "repro-desk.json"
ENTRY = "import sys; from pulsegate.cli import main; sys.exit(main())"
LOSS_RATIO_BOUND = 1.10
SEEDS = range(1, 11)


def run_seed(seed: int, work: Path) -> dict:
    out = work / f"seed_{seed}"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PULSEGATE_SEED": str(seed),
           "PYTHONDONTWRITEBYTECODE": "1"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", ENTRY, "experiment", "--config",
                           str(CONFIG), "--out", str(out)],
                          env=env, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        return {"seed": seed, "exit_code": proc.returncode, "wall_s": wall,
                "stderr": proc.stderr.strip().splitlines()[-1:]}
    row = {"seed": seed, "exit_code": 0, "wall_s": wall}
    row.update(margins(json.loads((out / "report.json").read_text()), out / "models"))
    return row


def margins(report: dict, models: Path) -> dict:
    variants = report["variants"]

    def snr_gap(name):
        snr = variants[name]["snr_db"]
        return snr["positive_median"] - snr["negative_median"]

    def accuracy(name, kind):
        return variants[name][kind]["combined_frame_accuracy"]

    aware = [v for v in variants if v != "none"]
    best_two = max(accuracy(v, "two_class") for v in aware)
    best_one = max(accuracy(v, "one_class") for v in aware)
    none_mae = variants["none"]["rates"]["mae_bpm"]
    values = {
        "c07_snr_gap": 6.0 - snr_gap("none"),
        "c08_entropy_gap": snr_gap("spectral_entropy") - 6.0,
        "c08_flatness_gap": snr_gap("spectral_flatness") - 6.0,
        "c08_std_ratio": 0.2 - variants["std"]["clip_std"]["negative_over_positive"],
        "c09_best_two_class": best_two - 0.90,
        "c09_two_class_gain": best_two - accuracy("none", "two_class") - 0.05,
        "c09_one_class_gain": best_one - accuracy("none", "one_class"),
        "c10_mae_spread": 1.0 - max(abs(variants[v]["rates"]["mae_bpm"] - none_mae)
                                    for v in aware),
    }
    passed = all(value >= 0.0 for key, value in values.items()
                 if key not in ("c08_std_ratio", "c09_one_class_gain"))
    passed = passed and values["c08_std_ratio"] > 0.0 and values["c09_one_class_gain"] > 0.0
    for name in variants:
        rows = (models / f"history_{name}.csv").read_text().strip().splitlines()[1:]
        losses = [float(row.split(",")[1]) for row in rows]
        mid = len(losses) // 2
        ma_mid = statistics.fmean(losses[mid:mid + 50])
        ma_end = statistics.fmean(losses[-50:])
        values[f"ma50_ratio_{name}"] = ma_end / ma_mid
        passed = passed and ma_end <= ma_mid * LOSS_RATIO_BOUND + 1e-9
    return {"values": values, "passed": passed}


def summarize(rows: list[dict]) -> dict:
    done = [row for row in rows if row["exit_code"] == 0]
    keys = sorted({key for row in done for key in row["values"]})
    spread = {}
    for key in keys:
        values = [row["values"][key] for row in done if key in row["values"]]
        spread[key] = {"min": min(values), "median": statistics.median(values),
                       "max": max(values)}
    return {"seeds": len(rows), "passed": sum(row.get("passed", False) for row in rows),
            "pass_rate": sum(row.get("passed", False) for row in rows) / len(rows),
            "failed_seeds": [row["seed"] for row in rows if not row.get("passed", False)],
            "margins": spread}


def next_sweep_path() -> Path:
    n = 1
    while (ROOT / f"SWEEP_{n}.json").exists():
        n += 1
    return ROOT / f"SWEEP_{n}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="output JSON (default: next SWEEP_<n>.json)")
    parser.add_argument("--label", default="", help="free text stored in the output")
    args = parser.parse_args(argv)
    out = args.out or next_sweep_path()
    with tempfile.TemporaryDirectory(prefix="pulsegate-sweep-") as work:
        rows = [run_seed(seed, Path(work)) for seed in SEEDS]
    for row in rows:
        state = "pass" if row.get("passed") else f"FAIL (exit {row['exit_code']})"
        print(f"seed {row['seed']:3d}: {state} in {row['wall_s']:.0f} s", file=sys.stderr)
    result = {"label": args.label, "config": str(CONFIG.relative_to(ROOT)),
              "summary": summarize(rows), "runs": rows}
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}: {result['summary']['passed']}/{len(rows)} seeds pass",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
