"""Per-layer metrics from the spans that `tracer.py` writes.

A layer is a pulsegate module.  A metric sums the spans of the functions it
names that have no ancestor among those functions, so nested calls into the
same layer are not counted twice.  Self time is a span's time minus the part
its calls into other layers cover.  A metric whose functions no longer exist
in the program reads None (reported as missing).
"""

from __future__ import annotations

from collections import defaultdict

NAME, START, END, PARENT, COUNT = range(5)


class Spans:
    """The spans of one traced process."""

    def __init__(self, child: dict):
        self.rows = child["spans"]
        self.kids = defaultdict(list)
        for index, row in enumerate(self.rows):
            if row[PARENT] >= 0:
                self.kids[row[PARENT]].append(index)

    def _dur(self, index):
        row = self.rows[index]
        return row[END] - row[START]

    def outer(self, match):
        """Indices of matching spans with no matching ancestor."""
        found = []
        for index, row in enumerate(self.rows):
            if not match(row[NAME]):
                continue
            parent = row[PARENT]
            while parent >= 0 and not match(self.rows[parent][NAME]):
                parent = self.rows[parent][PARENT]
            if parent < 0:
                found.append(index)
        return found

    def time(self, match):
        return sum(self._dur(i) for i in self.outer(match))

    def calls(self, match):
        return len(self.outer(match))

    def count(self, match):
        return sum(row[COUNT] for row in self.rows
                   if match(row[NAME]) and row[COUNT] is not None)

    def _foreign(self, index, layer):
        total = 0.0
        for kid in self.kids[index]:
            if _layer(self.rows[kid][NAME]) == layer:
                total += self._foreign(kid, layer)
            else:
                total += self._dur(kid)
        return total

    def self_time(self, match, layer):
        return sum(self._dur(i) - self._foreign(i, layer) for i in self.outer(match))

    def calls_under(self, match, parents):
        """Calls of `match` made directly by one of `parents`."""
        return sum(1 for row in self.rows if match(row[NAME]) and row[PARENT] >= 0
                   and parents(self.rows[row[PARENT]][NAME]))


def _layer(name):
    return name.split(".", 1)[0]


def fns(*names):
    wanted = frozenset(names)
    return lambda name: name in wanted


def layer(prefix):
    return lambda name: _layer(name) == prefix


TRAIN = fns("estimator.train")
INFER = fns("estimator.infer_video", "estimator.clip_prediction_stds")
FIT = fns("classify.fit_two_class", "classify.fit_one_class")
PREDICT = fns("classify.predict", "classify.decision_values")
WRITES = fns("fileio.write_waveform", "fileio.write_cube", "fileio.write_features",
             "fileio.dump_json")
READS = fns("fileio.read_cube", "fileio.read_waveform", "fileio.read_features")
HASH = fns("fileio.sha256_file")
RATE = fns("evaluate.pulse_rate")
SOLVERS = fns("classify.smo_solve_two_class", "classify.smo_solve_one_class")

# name -> (unit, better, selector that decides "missing", value from Spans)
METRICS = {
    "estimator.train_s": ("s", "lower", TRAIN, lambda s: s.time(TRAIN)),
    "estimator.train_self_s": ("s", "lower", TRAIN,
                               lambda s: s.self_time(TRAIN, "estimator")),
    "estimator.steps": ("count", "higher", TRAIN, lambda s: s.count(TRAIN)),
    "estimator.infer_s": ("s", "lower", INFER, lambda s: s.time(INFER)),
    "estimator.infer_calls": ("count", "lower", INFER, lambda s: s.calls(INFER)),
    "estimator.trace_calls": ("count", "lower", INFER,
                              lambda s: s.calls_under(fns("signal_core.spatial_mean_trace"),
                                                      INFER)),
    "losses.s": ("s", "lower", layer("losses"), lambda s: s.time(layer("losses"))),
    "losses.calls": ("count", "lower", layer("losses"), lambda s: s.calls(layer("losses"))),
    "signal_core.s": ("s", "lower", layer("signal_core"),
                      lambda s: s.time(layer("signal_core"))),
    "signal_core.calls": ("count", "lower", layer("signal_core"),
                          lambda s: s.calls(layer("signal_core"))),
    "signal_core.resample_s": ("s", "lower", fns("signal_core.resample_cubic"),
                               lambda s: s.time(fns("signal_core.resample_cubic"))),
    "signal_core.hilbert_s": ("s", "lower", fns("signal_core.hilbert_envelope"),
                              lambda s: s.time(fns("signal_core.hilbert_envelope"))),
    "synth.s": ("s", "lower", layer("synth"), lambda s: s.time(layer("synth"))),
    "synth.frames": ("count", "higher", layer("synth"), lambda s: s.count(layer("synth"))),
    "baselines.s": ("s", "lower", layer("baselines"), lambda s: s.time(layer("baselines"))),
    "baselines.frames": ("count", "higher", layer("baselines"),
                         lambda s: s.count(layer("baselines"))),
    "features.s": ("s", "lower", layer("features"), lambda s: s.time(layer("features"))),
    "features.self_s": ("s", "lower", layer("features"),
                        lambda s: s.self_time(layer("features"), "features")),
    "features.windows": ("count", "higher", fns("features.extract_features"),
                         lambda s: s.count(fns("features.extract_features"))),
    "features.ampd_s": ("s", "lower", fns("features.ampd_peaks"),
                        lambda s: s.time(fns("features.ampd_peaks"))),
    "features.snr_s": ("s", "lower", fns("features.snr_db"),
                       lambda s: s.time(fns("features.snr_db"))),
    "classify.fit_s": ("s", "lower", FIT, lambda s: s.time(FIT)),
    "classify.smo_iterations": ("count", "lower", SOLVERS, lambda s: s.count(SOLVERS)),
    "classify.predict_s": ("s", "lower", PREDICT, lambda s: s.time(PREDICT)),
    "classify.rows_predicted": ("count", "higher", fns("classify.decision_values"),
                                lambda s: s.count(fns("classify.decision_values"))),
    "evaluate.pulse_rate_s": ("s", "lower", RATE, lambda s: s.time(RATE)),
    "evaluate.rate_windows": ("count", "higher", RATE, lambda s: s.count(RATE)),
    "fileio.write_s": ("s", "lower", WRITES, lambda s: s.time(WRITES)),
    "fileio.bytes_written": ("bytes", "lower", WRITES, lambda s: s.count(WRITES)),
    "fileio.hash_s": ("s", "lower", HASH, lambda s: s.time(HASH)),
    "fileio.bytes_hashed": ("bytes", "lower", HASH, lambda s: s.count(HASH)),
    "fileio.read_s": ("s", "lower", READS, lambda s: s.time(READS)),
    "fileio.bytes_read": ("bytes", "lower", READS, lambda s: s.count(READS)),
    "experiment.run_s": ("s", "lower", fns("experiment.run_experiment"),
                         lambda s: s.time(fns("experiment.run_experiment"))),
    "experiment.self_s": ("s", "lower", fns("experiment.run_experiment"),
                          lambda s: s.self_time(fns("experiment.run_experiment"),
                                                "experiment")),
}
for _cmd in ("synth", "estimate", "train", "features", "pulse-rate"):
    _sel = fns("cli.cmd_" + _cmd.replace("-", "_"))
    METRICS[f"cli.{_cmd}_s"] = ("s", "lower", _sel, lambda s, sel=_sel: s.time(sel))
_CLASSIFY = fns("cli.cmd_classify_fit", "cli.cmd_classify_predict")
METRICS["cli.classify_s"] = ("s", "lower", _CLASSIFY, lambda s: s.time(_CLASSIFY))

# derived from the metrics above, or timed by run.py and tracer.py
EXTRA = {
    "estimator.steps_per_s": ("1/s", "higher"),
    "evaluate.windows_per_s": ("1/s", "higher"),
    "cli.import_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def aggregate(children: list[dict]) -> dict:
    """Metric values summed over the traced processes of one round."""
    wrapped = set().union(*(child["wrapped"] for child in children))
    spans = [Spans(child) for child in children]
    values = {}
    for name, (_, _, selector, value) in METRICS.items():
        if any(selector(fn) for fn in wrapped):
            values[name] = float(sum(value(s) for s in spans))
        else:
            values[name] = None
    values["cli.import_s"] = sum(child["import_s"] for child in children)
    values["estimator.steps_per_s"] = _ratio(values["estimator.steps"],
                                             values["estimator.train_s"])
    values["evaluate.windows_per_s"] = _ratio(values["evaluate.rate_windows"],
                                              values["evaluate.pulse_rate_s"])
    return values


def _ratio(count, seconds):
    if count is None or seconds is None:
        return None
    return count / seconds if seconds > 0 else 0.0


def units() -> dict:
    """Every per-layer metric name -> (unit, better)."""
    table = {name: (unit, better) for name, (unit, better, _, _) in METRICS.items()}
    table.update(EXTRA)
    return table
