"""What the benchmark under `bench/` reads of the program.

`bench/layers.py` selects the traced spans of each per-layer metric by
"<module>.<function>", `bench/tracer.py` counts work from the arguments and
return values of the calls it names, and `bench/checks.py` compares each key of
a study config with its echo in `report.json`.  A renamed or deleted function
leaves a traced run that exits 0 with a null metric, and a config field read
from the wrong place fails only the benchmark's correctness check.  A range
rule that rejects one of the benchmark's own inputs fails its run.  These tests
fail first.  The bench scripts are loaded with `runpy`, which writes no
bytecode next to them.
"""

import importlib
import inspect
import json
import pkgutil
import runpy
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import pulsegate
from pulsegate.classify import rbf_kernel, smo_solve_one_class, smo_solve_two_class
from pulsegate.errors import from_json
from pulsegate.estimator import TrainConfig
from pulsegate.experiment import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent


def bench_module(name):
    return runpy.run_path(str(ROOT / "bench" / f"{name}.py"))


def traced_functions():
    """"<module>.<function>" of every function the tracer wraps: module-level,
    defined in that pulsegate module, and without a leading underscore."""
    names = set()
    for info in pkgutil.iter_modules(pulsegate.__path__):
        module = importlib.import_module(f"pulsegate.{info.name}")
        names.update(f"{info.name}.{name}" for name, obj in vars(module).items()
                     if inspect.isfunction(obj) and obj.__module__ == module.__name__
                     and not name.startswith("_"))
    return names


def test_every_layer_metric_selects_a_function():
    functions = traced_functions()
    missing = [metric for metric, (_, _, selector, _) in bench_module("layers")["METRICS"].items()
               if not any(selector(name) for name in functions)]
    assert not missing, f"per-layer metrics that would read null: {missing}"


def test_every_counted_function_exists():
    missing = set(bench_module("tracer")["COUNTS"]) - traced_functions()
    assert not missing, f"tracer counts for functions the program lacks: {sorted(missing)}"


def test_solvers_return_iterations_and_gap():
    # the tracer reads both outside its guard against a changed signature
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 2))
    y = np.where(np.arange(12) % 2, 1.0, -1.0)
    kernel = rbf_kernel(x, x, 0.5)
    for result in (smo_solve_two_class(kernel, y, 1.0), smo_solve_one_class(kernel, 0.5)):
        assert isinstance(result[2], int)
        assert isinstance(result[3], float)


@pytest.mark.parametrize("config", ["smoke.json", "repro-desk.json"])
def test_config_echo_holds_every_key(config):
    payload = json.loads((ROOT / "configs" / config).read_text())
    # the echo as report.json holds it: asdict keeps tuples, JSON makes them lists
    echo = json.loads(json.dumps(asdict(ExperimentConfig.from_dict(payload))))
    failures = []
    bench_module("checks")["check_config_echo"](payload, echo, failures)
    assert not failures


@pytest.mark.parametrize("name", ["study-train", "study-eval"])
def test_study_inputs_pass_the_config_reader(tmp_path, name):
    study = bench_module("workloads")["make"](name)
    study.prepare(tmp_path, 1)
    ExperimentConfig.from_dict(json.loads(study.config_path.read_text()))


def test_chain_train_config_passes_the_reader(tmp_path):
    # `pulsegate train` reads the estimator section apart
    chain = bench_module("workloads")["make"]("cli-chain")
    chain.prepare(tmp_path, 1)
    payload = json.loads(chain.train_path.read_text())
    del payload["estimator"]
    from_json(TrainConfig, payload, "train config")
