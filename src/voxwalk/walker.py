"""Random-walker label inference on the candidate-voxel lattice.

The quadratic energy couples each candidate to virtual foreground and
background terminals through squared per-network priors (p, 1-p), to its
candidate neighbors through squared Gaussian intensity weights, and
(optionally) to adjacent confident voxels through Dirichlet terms carrying
their hard labels.  Stationarity yields a sparse symmetric M-matrix system
solved with Jacobi-preconditioned conjugate gradient.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy import sparse

from .metrics import LabelVolume
from .selection import as_prob_stack, select


class SolverError(RuntimeError):
    """Conjugate gradient failed to reach the requested residual."""

    def __init__(self, iterations, residual, tol):
        super().__init__(
            f"no convergence after {iterations} iterations: relative residual "
            f"{residual:.3e} > tol {tol:.3e}")
        self.iterations = iterations
        self.residual = residual


def edge_weight(ii, ij, beta):
    """Gaussian affinity exp(-beta * (Ii - Ij)^2) in (0, 1].

    Intensities are expected on a normalized [0,1] scale so one beta is
    comparable across volumes.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    ii = np.asarray(ii, dtype=np.float64)
    ij = np.asarray(ij, dtype=np.float64)
    out = np.exp(-beta * (ii - ij) ** 2)
    return float(out) if out.ndim == 0 else out


@dataclass
class IntensityVolume:
    """Scalar volume rescaled to [0,1] plus the applied normalization record."""

    data: np.ndarray
    normalization: dict

    @classmethod
    def from_raw(cls, volume):
        volume = np.asarray(volume, dtype=np.float64)
        if not np.all(np.isfinite(volume)):
            raise ValueError("intensity volume contains non-finite values")
        lo = float(volume.min())
        hi = float(volume.max())
        if hi > lo:
            data = (volume - lo) / (hi - lo)
        else:
            data = np.zeros_like(volume)
        return cls(data=data, normalization={"method": "min-max", "min": lo, "max": hi})


@dataclass
class CompactGraph:
    """Lattice subgraph on candidate voxels with terminal and boundary terms.

    edges index into the candidate ordering; dirichlet rows fix the value a
    candidate is pulled toward (a confident neighbor's hard label) with the
    corresponding lattice weight.
    """

    dims: tuple
    candidates: np.ndarray          # flat voxel index per candidate, ascending
    edges: np.ndarray               # [E,2] candidate positions
    edge_weights: np.ndarray        # [E]
    unary_fg: np.ndarray            # [n,K] = p_i^k
    unary_bg: np.ndarray            # [n,K] = 1 - p_i^k
    dirichlet_idx: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    dirichlet_labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    dirichlet_weights: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        n = len(self.candidates)
        if self.unary_fg.shape != self.unary_bg.shape or self.unary_fg.shape[0] != n:
            raise ValueError("one (fg,bg) unary pair per candidate per network required")
        if self.unary_fg.ndim != 2 or self.unary_fg.shape[1] < 1:
            raise ValueError("every candidate needs at least one network prior")
        for w in (self.edge_weights, self.dirichlet_weights):
            if len(w) and (w.min() < 0 or w.max() > 1.0 + 1e-12):
                raise ValueError("edge weights must lie in [0,1]")

    @property
    def n_candidates(self):
        return len(self.candidates)


@dataclass
class WalkerSolution:
    """Foreground probability and thresholded label per candidate."""

    x: np.ndarray
    labels: np.ndarray
    iterations: int
    residual: float


def _axis_pairs(dims):
    """Flat-index pairs of lattice-adjacent voxels, one array pair per axis."""
    idx = np.arange(int(np.prod(dims))).reshape(dims)
    for ax in range(len(dims)):
        lo = [slice(None)] * len(dims)
        hi = [slice(None)] * len(dims)
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        yield idx[tuple(lo)].reshape(-1), idx[tuple(hi)].reshape(-1)


def assemble(selection, maps, intensity, beta, include_dirichlet=True):
    """Build the compact graph for a selection over K probability maps.

    intensity may be a raw volume (min-max normalized here) or an
    :class:`IntensityVolume`.  include_dirichlet=False drops the
    candidate-to-confident boundary terms (ablation switch).
    """
    p = as_prob_stack(maps)
    dims = tuple(p.shape[1:])
    if selection.dims != dims:
        raise ValueError(f"selection dims {selection.dims} != map dims {dims}")
    if not isinstance(intensity, IntensityVolume):
        intensity = IntensityVolume.from_raw(intensity)
    if intensity.data.shape != dims:
        raise ValueError(
            f"intensity dims {intensity.data.shape} != map dims {dims}")
    n_vox = int(np.prod(dims))
    cand = selection.candidate_idx
    pos = np.full(n_vox, -1, dtype=np.int64)
    pos[cand] = np.arange(len(cand))
    conf_label = np.full(n_vox, -1, dtype=np.int64)
    conf_label[selection.confident_idx] = selection.confident_labels
    ivals = intensity.data.reshape(-1)

    edge_i, edge_j, edge_w = [], [], []
    dir_i, dir_l, dir_w = [], [], []
    for a, b in _axis_pairs(dims):
        w = edge_weight(ivals[a], ivals[b], beta)
        ca = pos[a] >= 0
        cb = pos[b] >= 0
        both = ca & cb
        edge_i.append(pos[a[both]])
        edge_j.append(pos[b[both]])
        edge_w.append(w[both])
        if include_dirichlet:
            a_only = ca & ~cb
            dir_i.append(pos[a[a_only]])
            dir_l.append(conf_label[b[a_only]])
            dir_w.append(w[a_only])
            b_only = cb & ~ca
            dir_i.append(pos[b[b_only]])
            dir_l.append(conf_label[a[b_only]])
            dir_w.append(w[b_only])

    edges = np.stack([np.concatenate(edge_i), np.concatenate(edge_j)], axis=1)
    unary_fg = p.reshape(p.shape[0], -1)[:, cand].T.copy()
    return CompactGraph(
        dims=dims,
        candidates=cand.copy(),
        edges=edges,
        edge_weights=np.concatenate(edge_w),
        unary_fg=unary_fg,
        unary_bg=1.0 - unary_fg,
        dirichlet_idx=np.concatenate(dir_i) if dir_i else np.zeros(0, dtype=np.int64),
        dirichlet_labels=(np.concatenate(dir_l).astype(np.uint8)
                          if dir_l else np.zeros(0, dtype=np.uint8)),
        dirichlet_weights=np.concatenate(dir_w) if dir_w else np.zeros(0),
    )


def build_system(graph):
    """Stationarity system (A, b) of the walker energy, with structure checks.

    A is symmetric, has nonpositive off-diagonals and is strictly diagonally
    dominant with positive diagonal (an M-matrix, hence SPD); violations
    raise ValueError.
    """
    n = graph.n_candidates
    w2_unary = (graph.unary_fg ** 2 + graph.unary_bg ** 2).sum(axis=1)
    diag = w2_unary.copy()
    rhs = (graph.unary_fg ** 2).sum(axis=1)
    ew2 = graph.edge_weights ** 2
    if len(graph.edges):
        ei = graph.edges[:, 0]
        ej = graph.edges[:, 1]
        np.add.at(diag, ei, ew2)
        np.add.at(diag, ej, ew2)
    dw2 = graph.dirichlet_weights ** 2
    if len(graph.dirichlet_idx):
        np.add.at(diag, graph.dirichlet_idx, dw2)
        np.add.at(rhs, graph.dirichlet_idx, dw2 * graph.dirichlet_labels)
    if len(graph.edges):
        rows = np.concatenate([np.arange(n), ei, ej])
        cols = np.concatenate([np.arange(n), ej, ei])
        vals = np.concatenate([diag, -ew2, -ew2])
    else:
        rows = cols = np.arange(n)
        vals = diag
    a = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    asym = abs(a - a.T)
    if asym.nnz and asym.max() != 0.0:
        raise ValueError("walker system matrix must be symmetric")
    off = a - sparse.diags(a.diagonal())
    if off.nnz and off.max() > 0.0:
        raise ValueError("walker system off-diagonals must be nonpositive")
    row_off = np.asarray(np.abs(off).sum(axis=1)).reshape(-1)
    if not np.all(a.diagonal() - row_off > 0):
        raise ValueError("walker system diagonal must strictly dominate its rows")
    return a, rhs


def _pcg(a, b, diag, tol, max_iters):
    """Jacobi-preconditioned conjugate gradient from a zero start."""
    norm_b = np.linalg.norm(b)
    x = np.zeros_like(b)
    if norm_b == 0.0:
        return x, 0, 0.0
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    rel = np.linalg.norm(r) / norm_b
    iterations = 0
    while rel > tol:
        if iterations >= max_iters:
            raise SolverError(iterations, rel, tol)
        ap = a @ p
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        rel = np.linalg.norm(r) / norm_b
        z = r / diag
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        iterations += 1
    return x, iterations, rel


def solve(graph, tol=1e-8, max_iters=None):
    """Minimize the walker energy over the candidate values.

    Solves the stationarity system to a relative residual <= tol.  The
    solution obeys the maximum principle 0 <= x <= 1; it is checked within
    solver tolerance, clamped exactly, then thresholded at 0.5 (0.5 maps to
    foreground).
    """
    n = graph.n_candidates
    if n == 0:
        empty = np.zeros(0)
        return WalkerSolution(empty, np.zeros(0, dtype=np.uint8), 0, 0.0)
    if max_iters is None:
        max_iters = 10 * n
    a, b = build_system(graph)
    x, iterations, residual = _pcg(a, b, a.diagonal(), tol, max_iters)
    if not (x.min() >= -1e-5 and x.max() <= 1.0 + 1e-5):
        raise ValueError(
            f"maximum principle violated at tol {tol:.3e}: x in [{x.min()}, {x.max()}]")
    x = np.clip(x, 0.0, 1.0)
    labels = (x >= 0.5).astype(np.uint8)
    return WalkerSolution(x, labels, iterations, residual)


def refine(maps, intensity, theta, beta, tol=1e-8, max_iters=None,
           include_dirichlet=True):
    """Full node-selection + label-inference pass over K probability maps.

    Confident voxels keep their hard labels; candidate voxels take the
    walker labels.  Returns a LabelVolume whose x field carries the solved
    probabilities (confident voxels hold their label value).
    """
    p = as_prob_stack(maps)
    dims = tuple(p.shape[1:])
    sel = select(p, theta)
    labels = np.zeros(int(np.prod(dims)), dtype=np.uint8)
    xfield = np.zeros(int(np.prod(dims)))
    labels[sel.confident_idx] = sel.confident_labels
    xfield[sel.confident_idx] = sel.confident_labels
    if len(sel.candidate_idx):
        graph = assemble(sel, p, intensity, beta, include_dirichlet=include_dirichlet)
        sol = solve(graph, tol=tol, max_iters=max_iters)
        labels[sel.candidate_idx] = sol.labels
        xfield[sel.candidate_idx] = sol.x
    return LabelVolume(labels.reshape(dims), xfield.reshape(dims))
