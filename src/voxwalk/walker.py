"""Random-walker label inference on the candidate-voxel lattice.

The quadratic energy couples each candidate to virtual foreground and
background terminals through squared per-network priors (p, 1-p), to its
candidate neighbors through squared Gaussian intensity weights, and
(optionally) to adjacent confident voxels through Dirichlet terms carrying
their hard labels.  Stationarity yields a sparse symmetric M-matrix system
solved with Jacobi-preconditioned conjugate gradient.

The volumes stay in their own dtype (float32 as read from disk); only the
candidate-sized arrays are float64: the gathered priors and intensities,
the unary terms and weights of the graph, the system and the solution.
"""

import numpy as np
from dataclasses import dataclass, field
from scipy import sparse

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
    if not 0 <= beta < np.inf:  # a negation, so that NaN is rejected
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    ii = np.asarray(ii, dtype=np.float64)
    ij = np.asarray(ij, dtype=np.float64)
    return np.exp(-beta * (ii - ij) ** 2)


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
            # NaN propagates into min and max and fails both comparisons
            if len(w) and not (w.min() >= 0 and w.max() <= 1.0 + 1e-12):
                raise ValueError("edge weights must be finite and lie in [0,1]")
        if not (np.isfinite(self.unary_fg).all() and np.isfinite(self.unary_bg).all()):
            raise ValueError("unary terms must be finite")

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


@dataclass
class RefineResult:
    """Fused labels and solved field, with the counters of the pass that
    made them: candidate voxels, graph edges, Dirichlet terms, PCG
    iterations and the final relative residual (all 0 with no candidates)."""

    labels: np.ndarray
    x: np.ndarray
    candidates: int
    edges: int
    dirichlet: int
    iterations: int
    residual: float


def _intensity_gather(volume):
    """Min-max normalization of an intensity volume to [0,1], applied only
    to the voxels asked for: returns a function from flat voxel indices to
    their normalized intensities in float64.  A flat volume maps to 0, a
    zero-voxel one is accepted and a non-finite one is rejected."""
    flat = volume.reshape(-1)
    # NaN and +-inf reach the min or the max
    lo, hi = (flat.min(), flat.max()) if flat.size else (0.0, 0.0)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("intensity volume contains non-finite values")
    lo, hi = float(lo), float(hi)

    def gather(idx):
        values = flat[idx].astype(np.float64)
        return (values - lo) / (hi - lo) if hi > lo else np.zeros_like(values)

    return gather


def assemble(selection, maps, intensity, beta, include_dirichlet=True):
    """Build the compact graph for a selection over K probability maps.

    intensity is the raw [D,H,W] volume; the voxels the graph reads are
    min-max normalized to [0,1].  include_dirichlet=False drops the
    candidate-to-confident boundary terms (ablation switch).

    Past two lattice lookups, an int32 candidate position and an int8
    confident label per voxel, the cost scales with the candidates: per
    axis, each candidate looks one step up and one step down the lattice.
    A candidate pair is taken once, from its lower voxel; a confident
    neighbor on either side gives a Dirichlet term.  Only the gathered
    priors and intensities are widened to float64.
    """
    p = as_prob_stack(maps)
    dims = tuple(p.shape[1:])
    if selection.dims != dims:
        raise ValueError(f"selection dims {selection.dims} != map dims {dims}")
    intensity = np.asarray(intensity)
    if intensity.shape != dims:
        raise ValueError(f"intensity dims {intensity.shape} != map dims {dims}")
    gather = _intensity_gather(intensity)
    cand = selection.candidate_idx
    n_vox = int(np.prod(dims))
    if n_vox >= 2 ** 31:
        raise ValueError(f"assemble takes at most 2**31 - 1 voxels, got {n_vox}")
    pos = np.full(n_vox, -1, dtype=np.int32)
    pos[cand] = np.arange(len(cand), dtype=np.int32)
    conf_label = np.full(n_vox, -1, dtype=np.int8)
    conf_label[selection.confident_idx] = selection.confident_labels

    edge_i, edge_j, edge_w = [], [], []
    dir_i, dir_l, dir_w = [], [], []
    # in each pass a is a pair's lower voxel and b = a + stride its upper one
    for ax, coord in enumerate(np.unravel_index(cand, dims)):
        stride = int(np.prod(dims[ax + 1:]))
        a = cand[coord < dims[ax] - 1]
        b = a + stride
        w = edge_weight(gather(a), gather(b), beta)
        pb = pos[b]
        both = pb >= 0
        edge_i.append(pos[a[both]])
        edge_j.append(pb[both])
        edge_w.append(w[both])
        if include_dirichlet:
            dir_i.append(pos[a[~both]])
            dir_l.append(conf_label[b[~both]])
            dir_w.append(w[~both])
            b = cand[coord > 0]
            a = b - stride
            b_only = pos[a] < 0
            a, b = a[b_only], b[b_only]
            dir_i.append(pos[b])
            dir_l.append(conf_label[a])
            dir_w.append(edge_weight(gather(a), gather(b), beta))

    edges = np.stack([np.concatenate(edge_i), np.concatenate(edge_j)], axis=1)
    unary_fg = np.ascontiguousarray(p.reshape(p.shape[0], -1)[:, cand].T, dtype=np.float64)
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
    """Stationarity system (A, b) of the walker energy, an M-matrix.

    Two of the M-matrix properties hold by construction: A is symmetric,
    since each edge enters at (i,j) and at (j,i) with the same value, and
    its off-diagonals are -w² <= 0, since :class:`CompactGraph` admits only
    finite weights.  The third is checked: each row's diagonal exceeds the
    sum of its off-diagonal magnitudes by the row's terminal and Dirichlet
    terms, Σₖ (fg² + bg²) + Σ w², which must be positive (strict diagonal
    dominance, hence A is SPD); a zero margin raises ValueError.
    """
    n = graph.n_candidates
    fg2 = graph.unary_fg ** 2
    margin = (fg2 + graph.unary_bg ** 2).sum(axis=1)
    rhs = fg2.sum(axis=1)
    dw2 = graph.dirichlet_weights ** 2
    margin += np.bincount(graph.dirichlet_idx, dw2, minlength=n)
    rhs += np.bincount(graph.dirichlet_idx, dw2 * graph.dirichlet_labels, minlength=n)
    if not np.all(margin > 0):
        raise ValueError("walker system diagonal must strictly dominate its rows")
    ei, ej = graph.edges[:, 0], graph.edges[:, 1]
    ew2 = graph.edge_weights ** 2
    diag = margin + np.bincount(ei, ew2, minlength=n) + np.bincount(ej, ew2, minlength=n)
    rows = np.concatenate([np.arange(n), ei, ej])
    cols = np.concatenate([np.arange(n), ej, ei])
    vals = np.concatenate([diag, -ew2, -ew2])
    a = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
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
    if not 0 < tol < np.inf:  # a negation, so that NaN is rejected
        raise ValueError(f"tol must be finite and > 0, got {tol}")
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


def refine(maps, intensity, theta, beta, tol=1e-8, include_dirichlet=True):
    """Full node-selection + label-inference pass over K probability maps.

    Runs select, assemble and solve, also when no voxel is a candidate, so
    the intensity, beta and tol are checked at every theta.  Confident
    voxels keep their hard labels; candidate voxels take the walker labels.
    Returns a RefineResult whose x field, in the dtype of the maps, carries
    the solved probabilities (confident voxels hold their label value).
    """
    p = as_prob_stack(maps)
    dims = tuple(p.shape[1:])
    sel = select(p, theta)
    graph = assemble(sel, p, intensity, beta, include_dirichlet=include_dirichlet)
    sol = solve(graph, tol=tol)
    labels = np.zeros(int(np.prod(dims)), dtype=np.uint8)
    xfield = np.zeros(int(np.prod(dims)), dtype=p.dtype)
    labels[sel.confident_idx] = xfield[sel.confident_idx] = sel.confident_labels
    labels[sel.candidate_idx] = sol.labels
    xfield[sel.candidate_idx] = sol.x
    return RefineResult(labels.reshape(dims), xfield.reshape(dims),
                        candidates=graph.n_candidates, edges=len(graph.edges),
                        dirichlet=len(graph.dirichlet_idx), iterations=sol.iterations,
                        residual=sol.residual)
