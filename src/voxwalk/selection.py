"""Confidence/consistency node scoring and pruning of a voxel lattice.

Every voxel carries one probability per network; its node vector per
network k is (p, 1-p).  A voxel's energy adds, over networks, its label
confidence (1-2p)^2 plus cosine similarities to its 6 lattice neighbors in
the same network and to its co-located nodes in the other networks.  The
top floor(|V| * theta) voxels by energy are pruned as confident (keeping a
hard label from the mean probability); the rest form the candidate set for
graph-based inference.

Selection computes in the dtype of its maps: float32 maps (as volumes are
read) give float32 energies, and every other input is promoted to float64.
"""

import math

import numpy as np
from dataclasses import dataclass


def as_prob_stack(maps):
    """Stack K probability maps into one [K,D,H,W] array, validating ranges.

    float32 maps stay float32 and any other input becomes float64, so the
    stack is a view of the input whenever it already is one of the two.
    """
    arr = np.asarray(maps)
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
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

    def __post_init__(self):
        n = int(np.prod(self.dims))
        if len(self.confident_idx) + len(self.candidate_idx) != n:
            raise ValueError("confident and candidate sets must partition the volume")
        if len(self.confident_idx) != len(self.confident_labels):
            raise ValueError("one hard label per confident voxel")


def node_energies(maps):
    """Per-voxel selection energy, summed over networks, as a [D,H,W] array.

    Each node (p, 1-p) is scaled once to a unit vector (u, v), so a lattice
    cosine is u·u' + v·v'.  Over the ordered pairs of distinct networks the
    co-located cosines then sum to (Σₖ u)² + (Σₖ v)² - K, since each unit
    vector contributes u² + v² = 1 to the full square.  The maps are visited
    one at a time, so only [D,H,W]-sized temporaries are allocated, all in
    the dtype of the maps.

    Lattice edges are truncated at the volume border (no phantom
    neighbors), so border energies are comparably smaller.
    """
    p = as_prob_stack(maps)
    energy = np.zeros(p.shape[1:], dtype=p.dtype)
    sum_u = np.zeros_like(energy)
    sum_v = np.zeros_like(energy)
    for pk in p:
        energy += (1.0 - 2.0 * pk) ** 2
        v = 1.0 - pk
        norm = np.sqrt(pk * pk + v * v)
        u = pk / norm
        v /= norm
        for ax in range(3):
            lo = (slice(None),) * ax + (slice(None, -1),)
            hi = (slice(None),) * ax + (slice(1, None),)
            cos = u[lo] * u[hi] + v[lo] * v[hi]
            energy[lo] += cos
            energy[hi] += cos
        sum_u += u
        sum_v += v
    energy += sum_u * sum_u + sum_v * sum_v - p.shape[0]
    return energy


def select(maps, theta):
    """Prune the floor(|V| * theta) highest-energy voxels as confident.

    One partition finds the cut, the n-th largest energy for n =
    floor(|V| * theta).  Voxels above the cut are confident; of the tie band
    exactly at the cut, the lowest voxel indices fill the count, so energy
    ties break by ascending voxel index.  Confident voxels get hard labels
    by thresholding the across-network mean probability at 0.5.
    Returns a :class:`SelectionResult`.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0,1], got {theta}")
    p = as_prob_stack(maps)
    dims = p.shape[1:]
    flat = node_energies(p).reshape(-1)
    n_conf = int(math.floor(flat.size * theta))
    cut = np.partition(flat, flat.size - n_conf)[flat.size - n_conf] if n_conf else np.inf
    confident = flat > cut
    confident[np.flatnonzero(flat == cut)[:n_conf - np.count_nonzero(confident)]] = True
    conf, cand = np.flatnonzero(confident), np.flatnonzero(~confident)
    mean_p = p.mean(axis=0).reshape(-1)
    labels = (mean_p[conf] >= 0.5).astype(np.uint8)
    return SelectionResult(
        dims=dims,
        confident_idx=conf,
        confident_labels=labels,
        candidate_idx=cand,
    )
