"""File formats: waveform CSV/JSON, raw video cube binaries, feature tables.

Every CSV is written by `write_table` (Python's `csv` dialect: CRLF line
ends, floats as their shortest round-trip repr), and every JSON object that
is read goes through `read_json`."""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .classify import ANOMALOUS, LIVE
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
    write_table(path, ["t", "value"], zip([i / w.fps for i in range(len(w))], w.samples.tolist()))


def read_waveform(path) -> Waveform:
    """Read a waveform from `t,value` CSV or `{"fps":..,"samples":[..]}` JSON."""
    path = Path(path)
    if path.suffix == ".json":
        payload = read_json(path)
        with parsing(path):
            return Waveform(np.asarray(payload["samples"], dtype=float), float(payload["fps"]))
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
    meta = read_json(_sidecar_path(path))
    with parsing(_sidecar_path(path)):
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
    rows = np.column_stack([np.asarray(t_starts, dtype=float), matrix]).tolist()
    if labels is not None:
        rows = [row + [int(label)] for row, label in zip(rows, labels)]
    write_table(path, list(FEATURE_COLUMNS) + (["label"] if labels is not None else []), rows)


def write_table(path, header, rows) -> None:
    """Write a CSV table: the `header` row, then `rows`; `csv` writes a float as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_features(path):
    """Read a feature table; returns (t_starts, matrix, labels_or_None).

    The header is FEATURE_COLUMNS, optionally followed by `label`; every row
    holds one value per column, and every label is LIVE or ANOMALOUS.
    """
    width = len(FEATURE_COLUMNS)
    with open(path, newline="") as fh, parsing(path):
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader, [])]
        if header not in (list(FEATURE_COLUMNS), [*FEATURE_COLUMNS, "label"]):
            raise InvalidInputError(f"{path}: the header must be {','.join(FEATURE_COLUMNS)}, "
                                    f"optionally followed by label")
        rows = [r for r in reader if r]
        if any(len(r) != len(header) for r in rows):
            raise InvalidInputError(f"{path}: every row must hold {len(header)} values")
        values = np.array([[float(x) for x in r[:width]] for r in rows]).reshape(len(rows), width)
        labels = np.array([int(r[width]) for r in rows]) if len(header) > width else None
    bad = [] if labels is None else labels[~np.isin(labels, (LIVE, ANOMALOUS))]
    if len(bad):
        raise InvalidInputError(f"{path}: label {bad[0]} is neither LIVE ({LIVE}) "
                                f"nor ANOMALOUS ({ANOMALOUS})")
    return values[:, 0].copy(), values[:, 1:].copy(), labels


def read_json(path) -> dict:
    """The JSON object held in a file; any other JSON value is bad input."""
    with open(path) as fh, parsing(path):
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise InvalidInputError(f"{path} must hold a JSON object")
    return payload


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
