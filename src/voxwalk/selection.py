"""Confidence/consistency node scoring and pruning of a voxel lattice.

Every voxel carries one probability per network; its node vector per
network k is (p, 1-p).  A voxel's energy adds, over networks, its label
confidence (1-2p)^2 plus cosine similarities to its 6 lattice neighbors in
the same network and to its co-located nodes in the other networks.  The
top floor(|V| * theta) voxels by energy are pruned as confident (keeping a
hard label from the mean probability); the rest form the candidate set for
graph-based inference.
"""

import math

import numpy as np
from dataclasses import dataclass


def as_prob_stack(maps):
    """Stack K probability maps into one [K,D,H,W] array, validating ranges."""
    arr = np.asarray(maps, dtype=np.float64)
    if arr.ndim == 3:
        arr = arr[None]
    if arr.ndim != 4:
        raise ValueError(
            f"expected one or more [D,H,W] probability maps, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("at least one probability map is required")
    if arr.size:
        lo, hi = arr.min(), arr.max()  # NaN propagates into both
        if np.isnan(lo):
            raise ValueError("probabilities must be finite, found NaN")
        if lo < 0.0 or hi > 1.0:
            raise ValueError("probabilities must lie in [0,1]")
    return arr


@dataclass
class SelectionResult:
    """Partition of all voxels into pruned (confident) and candidate sets."""

    dims: tuple
    confident_idx: np.ndarray     # flat voxel indices, ascending
    confident_labels: np.ndarray  # hard 0/1 label per confident voxel
    candidate_idx: np.ndarray     # flat voxel indices, ascending
    theta: float
    energies: np.ndarray = None   # optional [D,H,W] diagnostic

    def __post_init__(self):
        n = int(np.prod(self.dims))
        if len(self.confident_idx) + len(self.candidate_idx) != n:
            raise ValueError("confident and candidate sets must partition the volume")
        if len(self.confident_idx) != len(self.confident_labels):
            raise ValueError("one hard label per confident voxel")


def confidence(p):
    """Label confidence (1-2p)^2: contrast between the foreground and
    background probability.  Accepts scalars or arrays in [0,1]."""
    p = np.asarray(p, dtype=np.float64)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ValueError("probability out of [0,1]")
    out = (1.0 - 2.0 * p) ** 2
    return float(out) if out.ndim == 0 else out


def consistency(v, u):
    """Cosine similarity between two node vectors (stacked on the last axis)."""
    v = np.asarray(v, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    num = (v * u).sum(axis=-1)
    den = np.sqrt((v * v).sum(axis=-1)) * np.sqrt((u * u).sum(axis=-1))
    out = num / den
    return float(out) if out.ndim == 0 else out


def _pair_cosine(p, q):
    """Cosine between (p,1-p) and (q,1-q), elementwise on arrays."""
    num = p * q + (1.0 - p) * (1.0 - q)
    den = np.sqrt(p * p + (1.0 - p) ** 2) * np.sqrt(q * q + (1.0 - q) ** 2)
    return num / den


def node_energies(maps):
    """Per-voxel selection energy, summed over networks, as a [D,H,W] array.

    Lattice edges are truncated at the volume border (no phantom
    neighbors), so border energies are comparably smaller.
    """
    p = as_prob_stack(maps)
    k = p.shape[0]
    energy = ((1.0 - 2.0 * p) ** 2).sum(axis=0)
    for ax in (1, 2, 3):
        lo = [slice(None)] * 4
        hi = [slice(None)] * 4
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        cos = _pair_cosine(p[tuple(lo)], p[tuple(hi)]).sum(axis=0)
        sl_lo = tuple(lo[1:])
        sl_hi = tuple(hi[1:])
        energy[sl_lo] += cos
        energy[sl_hi] += cos
    for a in range(k):
        for b in range(a + 1, k):
            cos = _pair_cosine(p[a], p[b])
            energy += 2.0 * cos  # counted once from each network's node
    return energy


def select(maps, theta, keep_energies=False):
    """Prune the floor(|V| * theta) highest-energy voxels as confident.

    Energy ties break by ascending voxel index.  Confident voxels get hard
    labels by thresholding the across-network mean probability at 0.5.
    Returns a :class:`SelectionResult`.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0,1], got {theta}")
    p = as_prob_stack(maps)
    dims = p.shape[1:]
    energy = node_energies(p)
    flat = energy.reshape(-1)
    n_vox = flat.size
    n_conf = int(math.floor(n_vox * theta))
    order = np.argsort(-flat, kind="stable")
    conf = np.sort(order[:n_conf])
    cand = np.sort(order[n_conf:])
    mean_p = p.mean(axis=0).reshape(-1)
    labels = (mean_p[conf] >= 0.5).astype(np.uint8)
    return SelectionResult(
        dims=dims,
        confident_idx=conf,
        confident_labels=labels,
        candidate_idx=cand,
        theta=float(theta),
        energies=energy if keep_energies else None,
    )
