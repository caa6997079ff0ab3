"""File formats: waveform CSV/JSON, raw video cube binaries, feature tables."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, parsing
from .features import FEATURE_NAMES
from .signal_core import VideoCube, Waveform

FEATURE_COLUMNS = ("t_start",) + FEATURE_NAMES


def write_waveform(w: Waveform, path) -> None:
    """Write a waveform as CSV (`t,value`) or JSON depending on the extension."""
    path = Path(path)
    if path.suffix == ".json":
        dump_json({"fps": w.fps, "samples": list(map(float, w.samples))}, path)
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        # csv writes a float as its repr
        writer.writerows(zip([i / w.fps for i in range(len(w))], w.samples.tolist()))


def read_waveform(path) -> Waveform:
    """Read a waveform from `t,value` CSV or `{"fps":..,"samples":[..]}` JSON."""
    path = Path(path)
    if path.suffix == ".json":
        with open(path) as fh, parsing(path):
            payload = json.load(fh)
            return Waveform(np.asarray(payload["samples"], dtype=float),
                            float(payload["fps"]))
    with open(path, newline="") as fh, parsing(path):
        reader = csv.reader(fh)
        header = next(reader, [])
        if [h.strip() for h in header[:2]] != ["t", "value"]:
            raise InvalidInputError(f"{path}: expected 't,value' header")
        rows = [(float(r[0]), float(r[1])) for r in reader if r]
    if len(rows) < 2:
        raise InvalidInputError(f"{path}: need at least 2 samples")
    times = np.array([r[0] for r in rows])
    values = np.array([r[1] for r in rows])
    steps, span = np.diff(times), times[-1] - times[0]
    if not np.all(steps > 0):  # NaN too
        raise InvalidInputError(f"{path}: time column must be increasing")
    # the fps comes from the span, so a gap or a jitter beyond rounding is an error
    mean_step = span / (len(rows) - 1)
    if not np.all(np.abs(steps - mean_step) <= 0.5 * mean_step):
        raise InvalidInputError(f"{path}: time steps of {steps.min():g} to {steps.max():g} s "
                                f"are not even around their mean of {mean_step:g} s")
    return Waveform(values, (len(rows) - 1) / span)


def _sidecar_path(bin_path: Path) -> Path:
    return bin_path.with_suffix(".json")


def write_cube(v: VideoCube, path) -> None:
    """Write a cube as flat little-endian f32 (THWC order) plus a JSON sidecar."""
    path = Path(path)
    t, h, w, c = v.data.shape
    path.write_bytes(v.data.astype("<f4").tobytes())
    dump_json({"t": t, "h": h, "w": w, "c": c, "fps": v.fps,
               "dtype": "f32", "order": "THWC"}, _sidecar_path(path))


def read_cube(path) -> VideoCube:
    path = Path(path)
    with open(_sidecar_path(path)) as fh, parsing(_sidecar_path(path)):
        meta = json.load(fh)
        if meta["dtype"] != "f32" or meta["order"] != "THWC":
            raise InvalidInputError(f"{path}: unsupported cube encoding {meta}")
        shape = tuple(int(meta[key]) for key in ("t", "h", "w", "c"))
        fps = float(meta["fps"])
    raw = np.frombuffer(path.read_bytes(), dtype="<f4")
    if raw.size != np.prod(shape):
        raise InvalidInputError(f"{path}: payload size does not match sidecar shape")
    return VideoCube(raw.reshape(shape).astype(float), fps)


def write_features(path, t_starts, matrix, labels=None) -> None:
    """Write a feature table; `matrix` is (n, 8) in FEATURE_COLUMNS order."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(FEATURE_COLUMNS) + (["label"] if labels is not None else []))
        rows = np.column_stack([np.asarray(t_starts, dtype=float), matrix]).tolist()
        if labels is not None:
            rows = [row + [int(label)] for row, label in zip(rows, labels)]
        writer.writerows(rows)


def read_features(path):
    """Read a feature table; returns (t_starts, matrix, labels_or_None)."""
    with open(path, newline="") as fh, parsing(path):
        reader = csv.reader(fh)
        header = next(reader, [""])
        has_label = header[-1].strip() == "label"
        t_starts, rows, labels = [], [], []
        for r in reader:
            if not r:
                continue
            t_starts.append(float(r[0]))
            rows.append([float(x) for x in r[1:9]])
            if has_label:
                labels.append(int(r[9]))
        matrix = np.asarray(rows, dtype=float).reshape(len(rows), 8)
    return np.asarray(t_starts), matrix, (np.asarray(labels) if has_label else None)


def dump_json(obj, path) -> None:
    """Deterministic JSON dump (sorted keys, trailing newline)."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
