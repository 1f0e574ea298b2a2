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
The energies are computed one slab of depth planes at a time, on a few flat
buffers allocated once per call and sized by the slab, so that the work
stays in cache and the extra memory does not grow with the volume; each
lattice axis is one contiguous shift of the flattened slab.  The
probabilities are checked there as they are read: each voxel once per
selection.
"""

import math

import numpy as np
from dataclasses import dataclass, field

# voxels per node_energies slab (whole depth planes, at least one): 4 planes
# of 128x128, whose six flat buffers take 2 MB at float32; on a Xeon with
# 2 MB of L2 per core, 1 << 15 and 1 << 17 ran slower on a 5x64x128x128 stack
_SLAB_VOXELS = 1 << 16


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

    The volume is scored one slab of depth planes at a time, as many as fit
    in `_SLAB_VOXELS` (at least one), on a few flat buffers allocated once
    per call: every step writes into them, so the extra memory is set by
    the slab and not by the volume.  In a flattened slab each lattice axis
    is one shift, by H·W, W or 1 voxels, so an axis's cosines are one
    contiguous product; the in-plane edges that would join one row or plane
    to the next are set to +0 before they are added.  Each slab reads one
    plane of halo on either side, whose u and v serve only the depth
    cosines that cross the slab border; the confidence, the in-plane
    cosines and the co-located term are computed for the slab's own planes.

    Every voxel gets the same float operations in the same order as in one
    whole-volume pass that adds only the edges inside the volume: each term
    is >= +0 and the sum starts at +0, so adding a +0 edge leaves its bytes
    unchanged, and the energies are byte-identical at any slab size.  Each
    plane's probabilities are checked once, before the first slab that
    reads them computes anything from them.

    Lattice edges are truncated at the volume border (no phantom
    neighbors), so border energies are comparably smaller.
    """
    p = as_prob_stack(maps)
    k, depth, h, w = p.shape
    plane = h * w
    energy = np.empty((depth, h, w), dtype=p.dtype)
    flat = energy.reshape(-1)
    per = max(1, min(depth, _SLAB_VOXELS // max(1, plane)))
    # u, v, cos and tmp hold a slab with its halo planes, the sums its own planes
    u, v, cos, tmp = np.empty((4, (per + 2) * plane), dtype=p.dtype)
    sums = np.empty((2, per * plane), dtype=p.dtype)
    checked = 0  # planes below this one are checked
    for z0 in range(0, depth, per):
        z1 = min(depth, z0 + per)
        a, b = max(0, z0 - 1), min(depth, z1 + 1)
        n, m, o = (b - a) * plane, (z1 - z0) * plane, (z0 - a) * plane
        e = flat[z0 * plane:z1 * plane]
        su, sv = sums[:, :m]
        for arr in (e, su, sv):
            arr.fill(0)
        for pk in p[:, a:b]:
            check_probs(pk[checked - a:])
            u3, v3, t3 = (buf[:n].reshape(b - a, h, w) for buf in (u, v, tmp))
            np.subtract(1.0, pk, out=v3)
            np.multiply(pk, pk, out=u3)
            np.multiply(v3, v3, out=t3)
            np.add(u3, t3, out=t3)
            np.sqrt(t3, out=t3)
            np.divide(pk, t3, out=u3)
            np.divide(v3, t3, out=v3)
            conf = cos[:m].reshape(z1 - z0, h, w)
            np.multiply(2.0, pk[z0 - a:z1 - a], out=conf)
            np.subtract(1.0, conf, out=conf)
            np.square(conf, out=conf)
            e += cos[:m]
            # along each axis a voxel adds its edge to the next voxel, then
            # its edge to the previous one; depth first, over the halo too,
            c = _cosines(u[:n], v[:n], plane, cos, tmp)
            e[:c.size - o] += c[o:]
            e[plane - o:] += c[:o + m - plane]
            # then H and W over the own planes, where the edges from a
            # plane's last row (H) or a row's last voxel (W) lead out and are zeroed
            uo, vo = u[o:o + m], v[o:o + m]
            for s, rows in ((w, (z1 - z0, plane)), (1, ((z1 - z0) * h, w))):
                c = _cosines(uo, vo, s, cos, tmp)
                cos[:m].reshape(rows)[:, -s:] = 0
                e[:c.size] += c
                e[s:s + c.size] += c
            su += uo
            sv += vo
        su *= su
        sv *= sv
        su += sv
        su -= k
        e += su
        checked = b
    return energy


def _cosines(u, v, s, out, tmp):
    """out[i] = u[i]·u[i+s] + v[i]·v[i+s] over flat u and v, for every i
    with a partner; returns that prefix of `out`."""
    n = max(0, u.size - s)
    c, t = out[:n], tmp[:n]
    np.multiply(u[:n], u[s:s + n], out=c)
    np.multiply(v[:n], v[s:s + n], out=t)
    return np.add(c, t, out=c)


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
