"""Run one pulsegate command in this process and record a span per call.

Usage: python3 bench/tracer.py SPANS_JSON -- ARGV...

The script times `import pulsegate.cli`, then replaces every public function
of every pulsegate module at each module-level name and dict entry that
refers to it, so callers reach the wrapper through the name they look up
(`pulsegate.estimator.combined_loss`, `pulsegate.experiment.pulse_rate`,
`pulsegate.experiment.BASELINE_ESTIMATORS["chrom"]`).  It then runs
`pulsegate.cli.main(ARGV)`.  Spans stay in memory and are written to
SPANS_JSON when the command returns; the exit code is the command's.
Nothing inside `src/` is changed.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOLVER_TOL = 1e-3  # KKT gap a finished SMO solve must reach


def _size(path) -> int:
    return os.path.getsize(path)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# work counted from a call's arguments and return value, keyed by
# "<module>.<function>"
COUNTS = {
    "estimator.train": lambda a, k, r: _arg(a, k, 0, "cfg").steps,
    "synth.generate_positive": lambda a, k, r: r[0].data.shape[0],
    "synth.make_negative": lambda a, k, r: r.data.shape[0],
    "baselines.estimate_green": lambda a, k, r: len(r),
    "baselines.estimate_chrom": lambda a, k, r: len(r),
    "baselines.estimate_pos": lambda a, k, r: len(r),
    "features.extract_features": lambda a, k, r: len(r),
    "classify.smo_solve_two_class": lambda a, k, r: r[2],
    "classify.smo_solve_one_class": lambda a, k, r: r[2],
    "classify.decision_values": lambda a, k, r: len(r),
    "evaluate.pulse_rate": lambda a, k, r: len(r.bpm),
    "fileio.write_waveform": lambda a, k, r: _size(_arg(a, k, 1, "path")),
    "fileio.write_cube": lambda a, k, r: _size(_arg(a, k, 1, "path")),
    "fileio.write_features": lambda a, k, r: _size(_arg(a, k, 0, "path")),
    "fileio.dump_json": lambda a, k, r: _size(_arg(a, k, 1, "path")),
    "fileio.read_waveform": lambda a, k, r: _size(_arg(a, k, 0, "path")),
    "fileio.read_features": lambda a, k, r: _size(_arg(a, k, 0, "path")),
    "fileio.read_cube": lambda a, k, r: (
        _size(_arg(a, k, 0, "path"))
        + _size(Path(_arg(a, k, 0, "path")).with_suffix(".json"))),
    "fileio.sha256_file": lambda a, k, r: _size(_arg(a, k, 0, "path")),
}
SOLVERS = ("classify.smo_solve_two_class", "classify.smo_solve_one_class")


class Tracer:
    """Spans as [name, start, end, parent_index, count]; parent -1 is the root."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.solver_gaps = []

    def wrap(self, name, fn):
        count = COUNTS.get(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, None]
                if returned and count is not None:
                    try:
                        spans[index][4] = count(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, OSError, TypeError):
                        pass  # changed signature: the count is left out
                if returned and name in SOLVERS:
                    self.solver_gaps.append([name, float(result[3])])

        traced.__wrapped__ = fn
        return traced

    def install(self) -> list[str]:
        """Wrap every public pulsegate function; returns the wrapped names."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("pulsegate.") and m is not None]
        wrappers = {}
        for module in modules:
            layer = module.__name__.split(".", 1)[1]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        for module in [sys.modules["pulsegate"], *modules]:
            for name, obj in list(vars(module).items()):
                if name.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in wrappers:
                            obj[key] = wrappers[value]
        return sorted(w.__wrapped__.__module__.split(".", 1)[1] + "." + w.__wrapped__.__name__
                      for w in wrappers.values())


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, argv = sys.argv[1], sys.argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import pulsegate.cli
    import_s = time.perf_counter() - start
    if not Path(pulsegate.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"pulsegate imported from {pulsegate.cli.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    wrapped = tracer.install()
    code = 1
    try:
        code = pulsegate.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "wrapped": wrapped,
                       "solver_gaps": tracer.solver_gaps,
                       "unconverged": sum(gap > SOLVER_TOL for _, gap in tracer.solver_gaps),
                       "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
