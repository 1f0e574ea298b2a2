"""Dice overlap and per-stage comparison reports."""

import io

import numpy as np


def dice(a, b):
    """Dice overlap 2|A∩B| / (|A|+|B|); 1.0 when both volumes are empty."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"volume dims differ: {a.shape} vs {b.shape}")
    total = int(a.sum()) + int(b.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / total


def stage_report(ground_truth, stages):
    """Dice of each named pipeline stage against the ground truth.

    stages: sequence of (name, label array).  Returns a list of
    (name, dice) rows in input order.
    """
    return [(name, dice(ground_truth, vol)) for name, vol in stages]


def report_csv(rows):
    """Render report rows as CSV text: header `stage,dice`, 6 decimals."""
    buf = io.StringIO()
    buf.write("stage,dice\n")
    for name, value in rows:
        buf.write(f"{name},{value:.6f}\n")
    return buf.getvalue()
