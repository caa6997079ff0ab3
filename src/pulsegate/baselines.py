"""Classical color-transformation pulse estimators: GREEN, CHROM and POS.

All three take the spatially averaged RGB `Trace` of a video, which is
(T, 3) by construction.  CHROM and POS process overlapping short windows
whose outputs are stitched by Hann-weighted overlap-add, following the
original chrominance / plane-orthogonal-to-skin formulations.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .signal_core import Trace, Waveform, standardize, stitch_overlap_add, window_starts

CHROM_POS_WINDOW_S = 1.6


def estimate_green(trace: Trace) -> Waveform:
    """Green-channel estimator; darker green (more absorption) maps to positive pulse."""
    return standardize(Waveform(-trace.values[:, 1], trace.fps))


def _windowed_projection(trace: Trace, project) -> Waveform:
    """Shared CHROM/POS machinery: per-window projection + Hann overlap-add.

    `project` maps window-mean-normalized channels (Rn, Gn, Bn) to a 1-D chunk
    or None when the window is degenerate (zero projection variance or
    non-positive channel means); degenerate windows contribute zeros.
    """
    values, total = trace.values, len(trace)
    length = max(int(round(CHROM_POS_WINDOW_S * trace.fps)), 2)
    if total < length:
        raise InvalidInputError(
            f"trace of {total} samples is shorter than one {CHROM_POS_WINDOW_S} s window")
    starts = window_starts(total, length, length // 2)
    chunks = []
    for start in starts:
        seg = values[start:start + length]
        mean = seg.mean(axis=0)
        chunk = project(*(seg / mean).T) if np.all(mean > 0) else None
        chunks.append(np.zeros(length) if chunk is None else chunk - chunk.mean())
    return standardize(Waveform(stitch_overlap_add(chunks, starts, total), trace.fps))


def estimate_chrom(trace: Trace) -> Waveform:
    """Chrominance estimator: s = Xc - (std(Xc)/std(Yc)) * Yc per window."""

    def project(rn, gn, bn):
        xc = 3.0 * rn - 2.0 * gn
        yc = 1.5 * rn + gn - 1.5 * bn
        sd_y = yc.std()
        if sd_y == 0.0:
            return None
        return xc - (xc.std() / sd_y) * yc

    return _windowed_projection(trace, project)


def estimate_pos(trace: Trace) -> Waveform:
    """Plane-orthogonal-to-skin estimator: h = S1 + (std(S1)/std(S2)) * S2 per window."""

    def project(rn, gn, bn):
        s1 = gn - bn
        s2 = gn + bn - 2.0 * rn
        sd2 = s2.std()
        if sd2 == 0.0:
            return None
        return s1 + (s1.std() / sd2) * s2

    return _windowed_projection(trace, project)


# baseline name -> estimator, for the CLI and the experiment
ESTIMATORS = {"green": estimate_green, "chrom": estimate_chrom, "pos": estimate_pos}
