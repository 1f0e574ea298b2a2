"""Confidence/consistency node scoring and pruning of a voxel lattice.

Every voxel carries one probability per network; its node vector per
network k is (p, 1-p).  A voxel's energy adds, over networks, its label
confidence (1-2p)^2 plus cosine similarities to its 6 lattice neighbors in
the same network and to its co-located nodes in the other networks.  The
top floor(|V| * theta) voxels by energy are pruned as confident (keeping a
hard label from the mean probability); the rest form the candidate set for
graph-based inference.  A selection is one int8 state per voxel: -1 for a
candidate, the hard label 0 or 1 for a confident voxel.

Selection computes in the dtype of its maps: float32 maps (as volumes are
read) give float32 energies, and every other input is promoted to float64.
The energies are computed one slab of depth planes at a time, so that the
work stays in cache, and the probabilities are checked there as they are
read: once per selection.
"""

import math

import numpy as np
from dataclasses import dataclass, field

# voxels per node_energies slab (whole depth planes, at least one): 8 planes
# of 128x128, so that a slab's temporaries stay in cache
_SLAB_VOXELS = 1 << 17


def as_prob_stack(maps):
    """Take K >= 1 probability maps as one [K,D,H,W] array.

    A list of K [D,H,W] maps is stacked.  float32 maps stay float32 and any
    other input becomes float64, so the stack is a view of the input
    whenever it already is one of the two.  The values are not checked
    here: each reader checks the probabilities it reads with
    :func:`check_probs`.
    """
    arr = np.asarray(maps)
    if arr.ndim != 4 or arr.shape[0] < 1:
        raise ValueError(
            f"expected a [K,D,H,W] stack of K >= 1 probability maps, got shape {arr.shape}")
    if arr.dtype != np.float32:
        arr = arr.astype(np.float64, copy=False)
    return arr


def check_probs(values):
    """Raise ValueError unless every value is a probability in [0,1]."""
    if values.size:
        lo, hi = values.min(), values.max()  # NaN propagates into both
        if np.isnan(lo):
            raise ValueError("probabilities must be finite, found NaN")
        if lo < 0.0 or hi > 1.0:
            raise ValueError("probabilities must lie in [0,1]")


@dataclass
class SelectionResult:
    """Partition of all voxels into pruned (confident) and candidate sets,
    held as one int8 state per voxel: -1 or a confident voxel's hard label."""

    dims: tuple
    state: np.ndarray                              # flat int8, one entry per voxel
    candidate_idx: np.ndarray = field(init=False)  # flat voxel indices, ascending

    def __post_init__(self):
        if self.state.shape != (math.prod(self.dims),):
            raise ValueError(f"selection state needs one entry per voxel, got {self.state.shape}")
        self.candidate_idx = np.flatnonzero(self.state < 0)

    @property
    def confident_idx(self):
        """Flat indices of the confident voxels, ascending."""
        return np.flatnonzero(self.state >= 0)

    @property
    def confident_labels(self):
        """Hard 0/1 label per confident voxel, as uint8."""
        return self.state[self.state >= 0].astype(np.uint8)


def node_energies(maps):
    """Per-voxel selection energy, summed over networks, as a [D,H,W] array.

    Each node (p, 1-p) is scaled once to a unit vector (u, v), so a lattice
    cosine is u·u' + v·v'.  Over the ordered pairs of distinct networks the
    co-located cosines then sum to (Σₖ u)² + (Σₖ v)² - K, since each unit
    vector contributes u² + v² = 1 to the full square.  All arithmetic is
    in the dtype of the maps.

    The volume is scored one slab of depth planes at a time, so that the
    slab's temporaries stay in cache: as many planes as fit in
    `_SLAB_VOXELS`, at least one.  Each slab carries one plane of halo on
    either side, so the depth edges that cross a slab border are scored,
    and only the slab's own planes are kept.  Every voxel thus gets the
    same float operations in the same order as in one whole-volume pass,
    and the energies are byte-identical at any slab size.  The
    probabilities are checked slab by slab, as they are read.

    Lattice edges are truncated at the volume border (no phantom
    neighbors), so border energies are comparably smaller.
    """
    p = as_prob_stack(maps)
    depth = p.shape[1]
    energy = np.empty(p.shape[1:], dtype=p.dtype)
    per = max(1, _SLAB_VOXELS // max(1, math.prod(p.shape[2:])))
    for z0 in range(0, depth, per):
        z1 = min(depth, z0 + per)
        a = max(0, z0 - 1)
        energy[z0:z1] = _slab_energies(p[:, a:min(depth, z1 + 1)])[z0 - a:z1 - a]
    return energy


def _slab_energies(p):
    """node_energies of one [K,d,H,W] slab, checking each map's
    probabilities before it scores them."""
    energy = np.zeros(p.shape[1:], dtype=p.dtype)
    sum_u = np.zeros_like(energy)
    sum_v = np.zeros_like(energy)
    for pk in p:
        check_probs(pk)
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
    flat = node_energies(p).reshape(-1)
    n_conf = int(math.floor(flat.size * theta))
    cut = np.partition(flat, flat.size - n_conf)[flat.size - n_conf] if n_conf else np.inf
    confident = flat > cut
    confident[np.flatnonzero(flat == cut)[:n_conf - np.count_nonzero(confident)]] = True
    state = (p.mean(axis=0).reshape(-1) >= 0.5).view(np.int8)
    state[~confident] = -1
    return SelectionResult(dims=p.shape[1:], state=state)
