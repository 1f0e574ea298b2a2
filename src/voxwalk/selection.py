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
buffers sized by the slab, so that the work stays in cache and the extra
memory does not grow with the volume; each lattice axis is one contiguous
shift of the flattened slab.  The slabs are split into contiguous runs, one
per core the process may use (its CPU affinity) and at most one per slab,
and each run is scored on its own thread with its own buffers: numpy
releases the interpreter lock inside each step, so the runs overlap, and
the extra memory is the workers' slab buffers.  The runs write disjoint
planes, so the energies keep their bytes at any number of workers.  The
probabilities are checked there as they are read: each plane once per run
that reads it.  The mean-probability labels of `select` are taken slab by
slab on the same runs.
"""

import math
import os
import threading

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

    The slabs are split into contiguous runs, one per usable core and at
    most one per slab (see `_slab_runs`).  The calling thread scores the
    first run and one thread each the others, each run on its own six slab
    buffers, so the extra memory is the workers' buffers; the runs write
    disjoint planes of the one output.  If probabilities are bad, the error
    of the lowest slab is raised, as a single pass would raise it.

    Every voxel gets the same float operations in the same order as in one
    whole-volume pass that adds only the edges inside the volume: each term
    is >= +0 and the sum starts at +0, so adding a +0 edge leaves its bytes
    unchanged, and the energies are byte-identical at any slab size and any
    number of workers.  Each plane's probabilities are checked by every run
    that reads them, before that run computes anything from them.

    Lattice edges are truncated at the volume border (no phantom
    neighbors), so border energies are comparably smaller.
    """
    p = as_prob_stack(maps)
    k, depth, h, w = p.shape
    plane = h * w
    energy = np.empty((depth, h, w), dtype=p.dtype)
    flat = energy.reshape(-1)
    per, runs = _slab_runs(depth, plane)
    # per run: u, v, cos and tmp hold a slab with its halo planes, the sums its own planes
    slabs = np.empty((len(runs), 4, (per + 2) * plane), dtype=p.dtype)
    sums = np.empty((len(runs), 2, per * plane), dtype=p.dtype)

    def score(i, start, stop):
        u, v, cos, tmp = slabs[i]
        checked = max(0, start - 1)  # planes below this one are checked
        for z0 in range(start, stop, per):
            z1 = min(depth, z0 + per)
            a, b = max(0, z0 - 1), min(depth, z1 + 1)
            n, m, o = (b - a) * plane, (z1 - z0) * plane, (z0 - a) * plane
            e = flat[z0 * plane:z1 * plane]
            su, sv = sums[i, :, :m]
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

    _on_workers(runs, score)
    return energy


def _cosines(u, v, s, out, tmp):
    """out[i] = u[i]·u[i+s] + v[i]·v[i+s] over flat u and v, for every i
    with a partner; returns that prefix of `out`."""
    n = max(0, u.size - s)
    c, t = out[:n], tmp[:n]
    np.multiply(u[:n], u[s:s + n], out=c)
    np.multiply(v[:n], v[s:s + n], out=t)
    return np.add(c, t, out=c)


def _worker_count():
    """Cores this process may run on: its CPU affinity, or the machine's
    core count where the platform cannot tell the affinity."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _slab_runs(depth, plane):
    """Slab height and the workers' runs of a [.., depth, H, W] volume.

    A slab is as many whole depth planes of `plane` voxels as fit in
    `_SLAB_VOXELS`, at least one.  The slabs are split into contiguous runs
    of as even a count as they allow, one per usable core and at most one
    per slab (one empty run at depth 0).  Returns (planes per slab, [(start,
    stop) plane range of each run, in depth order]).
    """
    per = max(1, min(depth, _SLAB_VOXELS // max(1, plane)))
    n = -(-depth // per)
    workers = max(1, min(_worker_count(), n))
    ends = [min(depth, per * (n * i // workers)) for i in range(workers + 1)]
    return per, list(zip(ends[:-1], ends[1:]))


def _on_workers(runs, work):
    """Call work(i, start, stop) for each run i: the calling thread takes the
    first run and one thread each the others.  After all of them return,
    the error of the lowest run that raised is raised.

    `work` must not call anything the benchmark's span tracer wraps (such as
    `node_energies`), as its span stack belongs to one thread.
    """
    errors = [None] * len(runs)

    def run(i):
        try:
            work(i, *runs[i])
        except Exception as exc:
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(runs))]
    for t in threads:
        t.start()
    try:
        work(0, *runs[0])
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc


def select(maps, theta):
    """Prune the floor(|V| * theta) highest-energy voxels as confident.

    One partition finds the cut, the n-th largest energy for n =
    floor(|V| * theta).  Voxels above the cut are confident; of the tie band
    exactly at the cut, the lowest voxel indices fill the count, so energy
    ties break by ascending voxel index.  Confident voxels get hard labels
    by thresholding the across-network mean probability at 0.5, taken slab
    by slab on the runs of `node_energies`.
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
    labels = np.empty(p.shape[1:], dtype=bool)
    per, runs = _slab_runs(p.shape[1], math.prod(p.shape[2:]))

    def label(i, start, stop):
        for z0 in range(start, stop, per):
            z = slice(z0, z0 + per)
            np.greater_equal(p[:, z].mean(axis=0), 0.5, out=labels[z])

    _on_workers(runs, label)
    state = labels.reshape(-1).view(np.int8)
    state[np.flatnonzero(~confident)] = -1
    return SelectionResult(dims=p.shape[1:], state=state)
