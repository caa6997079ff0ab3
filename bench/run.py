"""pulsegate benchmark: study-train, study-eval and cli-chain.

Usage (from the repository root):

    python3 bench/run.py --workload study-train --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15

A run repeats whole rounds of its workload until `--seconds` have passed
(at least one round).  Every `pulsegate` command is a fresh process that runs
the program from `src/`, one at a time.  With `--trace 0` the last line of
stdout is a JSON object with the end-to-end metrics (setup_s, wall_s,
peak_rss_mb); with `--trace 1` each round runs untraced and then traced
(`tracer.py`), and the JSON holds the per-layer metrics.  Every round's
outputs are checked (`checks.py`).  A human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the benchmark writes only under bench/_runs/
import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "_runs"
# the console-script entry point of `pulsegate`
ENTRY = "import sys; from pulsegate.cli import main; sys.exit(main())"
SETUP_PROBES = 5
# a run must end within 180 s: later rounds are skipped, a hung command killed
DEADLINE_S = 170.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PULSEGATE_SEED", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(ROOT / "src")
    # the same for every caller, and nothing written into src/
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    def __init__(self, started: float):
        self.started = started
        self.env = child_env()

    def spawn(self, argv: list[str], cwd: Path, log: Path) -> int:
        """Run one process to its end; returns its exit code (-9 if killed)."""
        with open(log, "a") as out:
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            try:
                return proc.wait(timeout=max(DEADLINE_S - self.elapsed(), 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return -9

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def round(self, commands, cwd: Path, traced: bool):
        """Wall time, failed commands and traced-process spans of one round."""
        log = cwd / "log.txt"
        children, failed = [], 0
        start = time.perf_counter()
        for i, argv in enumerate(commands):
            if traced:
                spans = cwd / f"spans_{i:02d}.json"
                code = self.spawn([sys.executable, str(BENCH / "tracer.py"), str(spans),
                                   "--", *argv], cwd, log)
            else:
                code = self.spawn([sys.executable, "-c", ENTRY, *argv], cwd, log)
            if traced and code == 0:
                child = json.loads(spans.read_text())
                children.append(child)
                if child["unconverged"]:
                    print(f"unconverged SMO solve in {argv[0]}: {child['solver_gaps']}",
                          file=sys.stderr)
                    code = 1
            if code != 0:
                failed += 1
                print(f"command failed ({code}): pulsegate {' '.join(argv)}", file=sys.stderr)
        wall = time.perf_counter() - start
        if failed:
            print(log.read_text()[-2000:], file=sys.stderr)
        return wall, failed, children

    def setup_s(self, cwd: Path) -> float:
        """Median wall time of fresh interpreters importing pulsegate.cli."""
        times = []
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            code = self.spawn([sys.executable, "-c", "import pulsegate.cli"], cwd,
                              cwd / "setup.log")
            times.append(time.perf_counter() - start)
            if code != 0:
                raise RuntimeError((cwd / "setup.log").read_text())
        return statistics.median(times)


def check_round(workload, round_dir: Path) -> list[str]:
    try:
        if isinstance(workload, workloads.Study):
            return checks.check_study(workload.config, round_dir / "out",
                                      workload.mae_bound_bpm)
        return checks.check_chain(workload.scene, workload.train, round_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    runner = Runner(time.perf_counter())
    workload = workloads.make(name)
    workload.prepare(run_dir, seed)
    walls, rounds, problems = [], [], []
    attempted = failed = 0

    def one_round(n: int, traced: bool):
        nonlocal attempted, failed
        label = f"round {n}{' traced' if traced else ''}"
        round_dir = run_dir / label.replace(" ", "-")
        round_dir.mkdir()
        commands = workload.commands(round_dir)
        wall, bad, children = runner.round(commands, round_dir, traced)
        attempted += len(commands)
        failed += bad
        problems.extend(f"{label}: {p}" for p in check_round(workload, round_dir))
        report = round_dir / "out" / "report.json"
        digest = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
        print(f"{name} {label}: {wall:.3f} s" + (f", report.json sha256 {digest}"
                                                  if digest else ""), file=sys.stderr)
        complete = len(children) == len(commands)
        return wall, children if complete else None, digest

    n = 0
    while True:
        n += 1
        wall, _, digest = one_round(n, traced=False)
        walls.append(wall)
        if trace:
            traced_wall, children, traced_digest = one_round(n, traced=True)
            if traced_digest != digest:
                problems.append(f"round {n}: traced and untraced report.json differ")
            if children is not None:
                values = layers.aggregate(children)
                values["trace.wall_s"] = traced_wall
                values["trace.overhead_s"] = traced_wall - wall
                rounds.append(values)
        per_round = runner.elapsed() / n
        if runner.elapsed() >= seconds or runner.elapsed() + per_round > DEADLINE_S - 40:
            break

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if trace:
        metrics = {}
        for metric, (unit, _) in layers.units().items():
            values = [r[metric] for r in rounds if r[metric] is not None]
            if not values:
                print(f"missing: {metric}", file=sys.stderr)
            metrics[metric] = {"value": statistics.median(values) if values else None,
                               "unit": unit}
    else:
        # every child so far ran a round; the set-up probes come after
        peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        metrics = {"setup_s": {"value": runner.setup_s(run_dir), "unit": "s"},
                   "wall_s": {"value": statistics.median(walls), "unit": "s"},
                   "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def summary(name: str, result: dict) -> str:
    parts = [f"{m} {v['value']:.4g} {v['unit']}" if v["value"] is not None
             else f"{m} missing" for m, v in result["metrics"].items()]
    return (f"{name}: " + ", ".join(parts) + f"; attempted {result['attempted']}, "
            f"failed {result['failed']}, correct {str(result['correct']).lower()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "pulsegate" / "cli.py").is_file():
        print(f"no pulsegate sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(summary(args.workload, result), file=sys.stderr)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so rusage stays per workload."""
    results = {}
    for name in workloads.NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE,
                              text=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        print(summary(name, results[name]))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items()
                    for m, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
