"""Dice overlap of two label volumes."""

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
