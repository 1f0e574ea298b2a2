"""Random-walker label inference on the candidate-voxel lattice.

The quadratic energy couples each candidate to virtual foreground and
background terminals through its prior weights Σₖ pₖ² and Σₖ (1 - pₖ)² over
the K maps (the random walker with priors, Grady, CVPR 2005), to its
candidate neighbors through squared Gaussian intensity weights, and
(optionally) to adjacent confident voxels through Dirichlet terms carrying
their hard labels.  Stationarity yields a symmetric M-matrix system.  The
graph is a subgraph of the 6-neighbor lattice, so the voxel parity (z+y+x)
mod 2 2-colours it, and each edge runs from its even end to its odd end.
The candidates that start an edge are eliminated exactly, and
Jacobi-preconditioned conjugate gradient solves the Schur complement on the
others, the reduced system of red-black ordering (Hageman & Young, Applied
Iterative Methods, 1981), in about half the iterations of the full system;
back-substitution then gives the eliminated values.  No matrix is assembled:
the solver applies the system to a vector straight from the edge list.  The
selection arrives as one int8 state per voxel (-1 for a candidate, else the
hard label).  The graph is built from one int32 lookup of the lattice padded
by a voxel on every face, made from that state: each entry holds a
candidate's position, a confident voxel's label (as -1-label) or a pad
marker, so one gather per lattice direction finds every candidate's neighbor
edges, Dirichlet terms and volume faces.  The graph stores its edges as the
transpose of one contiguous intp [2,E] array, so the system reads the two
rows of edge ends in place, and the conjugate gradient takes the system's
right-hand side as its residual and its start vector as its iterate, and
holds three more vectors, updated in place.  The fused output is the state
with the walker's values written over the candidates.

The volumes stay in their own dtype (float32 as read from disk); only the
candidate-sized arrays are float64: the gathered probabilities and
intensities, the prior and edge weights of the graph, the system and the
solution.
"""

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .config import PipelineConfig
from .selection import as_prob_stack, check_probs, select


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

    edges index into the candidate ordering, the ascending voxel order of the
    selection's candidates, and 2-colour it: no candidate is the first end
    of one edge and the second end of another.  dirichlet rows fix the value
    a candidate is pulled toward (a confident neighbor's hard label) with
    the corresponding lattice weight.
    """

    edges: np.ndarray               # [E,2] candidate positions, first end then second
                                    # (assemble's run from the even-parity voxel to the
                                    # odd one); assemble's is an intp view, the transpose
                                    # of contiguous [2,E] rows
    edge_weights: np.ndarray        # [E]
    prior_fg: np.ndarray            # [n] = Σₖ (p_i^k)²
    prior_bg: np.ndarray            # [n] = Σₖ (1 - p_i^k)²
    dirichlet_idx: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    dirichlet_labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    dirichlet_weights: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        if self.prior_fg.ndim != 1 or self.prior_bg.shape != self.prior_fg.shape:
            raise ValueError("one (fg,bg) prior weight pair per candidate required")
        # the system reads these indices in place, so they are checked here
        n, edges, idx = len(self.prior_fg), self.edges, self.dirichlet_idx
        if edges.ndim != 2 or edges.shape[1] != 2 or not np.issubdtype(edges.dtype, np.integer):
            raise ValueError(f"edges must be an [E,2] integer array, got {edges.dtype} "
                             f"of shape {edges.shape}")
        if self.edge_weights.shape != (len(edges),):
            raise ValueError(f"edge_weights must hold one weight per edge, got shape "
                             f"{self.edge_weights.shape} for {len(edges)} edges")
        shapes = [a.shape for a in (idx, self.dirichlet_labels, self.dirichlet_weights)]
        if idx.ndim != 1 or len(set(shapes)) != 1 or not np.issubdtype(idx.dtype, np.integer):
            raise ValueError("dirichlet_idx (integer), dirichlet_labels and dirichlet_weights "
                             f"must be 1-D of one length, got shapes {shapes}")
        for name, a in (("edges", edges), ("dirichlet_idx", idx)):
            if a.size and not (a.min() >= 0 and a.max() < n):
                raise ValueError(f"{name} must index the {n} candidates, in [0, {n}), "
                                 f"found [{a.min()}, {a.max()}]")
        first = np.zeros(n, dtype=bool)
        first[edges[:, 0]] = True
        if first[edges[:, 1]].any():
            raise ValueError("edges must 2-colour the candidates: no candidate may be "
                             "the first end of one edge and the second end of another")
        if not ((self.dirichlet_labels == 0) | (self.dirichlet_labels == 1)).all():
            raise ValueError("dirichlet_labels must be 0 or 1")
        for w in (self.edge_weights, self.dirichlet_weights):
            # NaN propagates into min and max and fails both comparisons
            if len(w) and not (w.min() >= 0 and w.max() <= 1.0 + 1e-12):
                raise ValueError("edge weights must be finite and lie in [0,1]")
        if not (np.isfinite(self.prior_fg).all() and np.isfinite(self.prior_bg).all()):
            raise ValueError("prior weights must be finite")

    @property
    def n_candidates(self):
        return len(self.prior_fg)


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
    iterations of the reduced system and the final relative residual of the
    full one (all 0 with no candidates)."""

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


_OUTSIDE = np.iinfo(np.int32).min   # lattice-lookup entry past the volume's faces


def assemble(selection, maps, intensity, beta, include_dirichlet=True):
    """Build the compact graph for a selection over K probability maps.

    intensity is the raw [D,H,W] volume; the voxels the graph reads are
    min-max normalized to [0,1].  include_dirichlet=False drops the
    candidate-to-confident boundary terms (ablation switch).

    The lattice is read through one int32 lookup, padded by one voxel on
    every face, whose entry is a candidate's position, -1-label for a
    confident voxel, or _OUTSIDE on the pad (and, without Dirichlet terms,
    on a confident voxel).  Past it the cost scales with the candidates:
    per axis, each candidate gathers the entries one stride up and one
    stride down from its padded index, and that one gather gives the
    candidate edge, the Dirichlet term with its label, or nothing, with no
    bounds test.  A candidate pair is taken once, from its lower voxel.
    The candidates' intensities are normalized once, a confident
    neighbor's only where it gives a Dirichlet term, and the priors are
    summed one map at a time.  Only the gathered probabilities and
    intensities are widened to float64, and only the gathered
    probabilities are checked.
    """
    p = as_prob_stack(maps)
    dims = tuple(p.shape[1:])
    if selection.dims != dims:
        raise ValueError(f"selection dims {selection.dims} != map dims {dims}")
    intensity = np.asarray(intensity)
    if intensity.shape != dims:
        raise ValueError(f"intensity dims {intensity.shape} != map dims {dims}")
    gather = _intensity_gather(intensity)
    n_vox = int(np.prod(dims))
    if n_vox >= 2 ** 31:
        raise ValueError(f"assemble takes at most 2**31 - 1 voxels, got {n_vox}")
    cand = selection.candidate_idx
    # one map at a time, in the order a sum over the map axis adds them
    prior_fg, prior_bg = np.zeros(len(cand)), np.zeros(len(cand))
    for pk in p:
        q = pk.reshape(-1)[cand].astype(np.float64)
        check_probs(q)
        prior_fg += q ** 2
        prior_bg += np.subtract(1.0, q, out=q) ** 2
    del q

    lut = np.empty(np.add(dims, 2), dtype=np.int32)
    lut[[0, -1]] = lut[:, [0, -1]] = lut[:, :, [0, -1]] = _OUTSIDE   # the pad's six faces
    inner = lut[1:-1, 1:-1, 1:-1]
    np.subtract(-1, selection.state.reshape(dims), out=inner)   # 0 on a candidate
    if not include_dirichlet:
        inner[inner < 0] = _OUTSIDE
    lut = lut.reshape(-1)
    # a candidate's padded index: each row before it adds 2 pad voxels, each
    # plane 2 pad rows, and the pad plane, row and voxel before the first
    _, h, w = dims
    row, plane = cand // w, cand // (h * w)
    pad_idx = cand + 2 * row
    pad_idx += (2 * w + 4) * plane + (h + 3) * (w + 2) + 1
    lut[pad_idx] = np.arange(len(cand), dtype=np.int32)
    # the voxel parity: z + y + x = cand - (w-1) row - (h-1) plane has the
    # parity of cand + (w+1) row + (h+1) plane
    row *= w + 1
    row += cand
    plane *= h + 1
    row += plane
    odd = (row & 1).astype(bool)
    del row, plane
    ic = gather(cand)

    # the hits of each mask are taken as positions once: a position is the
    # candidate's, and indexing by positions is far cheaper than by a mask
    edge_i, edge_j, edge_w, dir_i, dir_l, dir_w = [], [], [], [], [], []
    for step, pad_step in ((h * w, (h + 2) * (w + 2)), (w, w + 2), (1, 1)):
        for sign in (1, -1):
            nb = lut[pad_idx + sign * pad_step]
            if sign > 0:
                i = np.flatnonzero(nb >= 0)
                j = nb[i]
                edge_w.append(edge_weight(ic[i], ic[j], beta))
                # the lower voxel and its neighbor differ in parity: each
                # edge runs from its even end to its odd end, so the ends
                # swap where the lower voxel is odd (d = j - i there, else 0)
                d = j - i
                d *= odd[i]
                i += d
                j -= d
                del d
                edge_i.append(i)
                edge_j.append(j)
            i = np.flatnonzero((nb < 0) & (nb != _OUTSIDE))
            dir_i.append(i.astype(np.int32))
            dir_l.append((-1 - nb[i]).astype(np.uint8))
            dir_w.append(edge_weight(ic[i], gather(cand[i] + sign * step), beta))
    del lut, inner, pad_idx, odd, ic, nb, i, j
    # one contiguous intp row per edge end, which build_system reads in place
    edge_rows = np.empty((2, sum(map(len, edge_i))), dtype=np.intp)
    _joined(edge_i, out=edge_rows[0])
    _joined(edge_j, out=edge_rows[1])
    return CompactGraph(
        edges=edge_rows.T,
        edge_weights=_joined(edge_w),
        prior_fg=prior_fg,
        prior_bg=prior_bg,
        dirichlet_idx=_joined(dir_i),
        dirichlet_labels=_joined(dir_l),
        dirichlet_weights=_joined(dir_w),
    )


def _joined(parts, out=None):
    """Concatenate a list of arrays and empty the list, so that the parts
    are freed before the next field is joined."""
    whole = np.concatenate(parts, out=out)
    parts.clear()
    return whole


class ReducedSystem(NamedTuple):
    """The walker system with its first class eliminated (see build_system).

    Every vector is full-length, one entry per candidate."""

    apply: Callable      # p -> S p in a fresh array, for a p that is 0 on the first class
    lift: Callable       # p -> D⁻¹ C p, which is 0 off the first class
    diag: np.ndarray     # D, the diagonal of the full system
    rhs: np.ndarray      # the reduced right-hand side, 0 on the first class
    x: np.ndarray        # D⁻¹ b on the first class, 0 elsewhere
    norm_b: float        # ‖b‖, b the right-hand side of the full system


def build_system(graph):
    """Stationarity system A x = b of the walker energy, A an M-matrix,
    reduced to the candidates that the conjugate gradient solves for.

    The edges 2-colour the candidates (see :class:`CompactGraph`).  Let F be
    the first class, the candidates that are the first end of some edge,
    and U all others: the second ends and the isolated candidates.  No edge
    joins two candidates of one class, so A = [[D_F, -C], [-Cᵀ, D_U]], where
    D is A's diagonal and C holds each edge's w² from its first end to its
    second.  Eliminating F leaves the reduced system of red-black ordering
    on U, S x_U = b_U + Cᵀ D_F⁻¹ b_F with the Schur complement
    S = D_U - Cᵀ D_F⁻¹ C, and back-substitution gives
    x_F = D_F⁻¹ (b_F + C x_U).

    No matrix is assembled.  Returns a :class:`ReducedSystem` whose vectors
    are 0 on F: apply(p) computes S p from the edge list into a fresh array,
    freeing the gather D_F⁻¹ C p before it allocates the product; lift(p)
    computes D⁻¹ C p, which is 0 off F; diag is D; rhs is the reduced
    right-hand side, a fresh array that the caller may overwrite; x holds
    D_F⁻¹ b_F on F and 0 on U, so x += lift(x) back-substitutes; and norm_b
    is ‖b‖.  The edge rows are read in place: an assembled graph's edges are
    a transposed view of one contiguous intp [2,E] array, so only edges of
    another layout or dtype are copied.

    Two of A's M-matrix properties hold by construction: A is symmetric,
    since each edge enters at (i,j) and at (j,i) with the same value, and
    its off-diagonals are -w² <= 0, since :class:`CompactGraph` admits only
    finite weights.  The third is checked: each row's diagonal exceeds the
    sum of its off-diagonal magnitudes by the row's terminal and Dirichlet
    terms, prior_fg + prior_bg + Σ w², which must be positive (strict diagonal
    dominance, hence A is SPD); a zero margin raises ValueError.  S, a Schur
    complement of such a matrix, is again a strictly diagonally dominant
    symmetric M-matrix.
    """
    n = graph.n_candidates
    margin = graph.prior_fg + graph.prior_bg
    rhs = graph.prior_fg.copy()
    dw2 = graph.dirichlet_weights ** 2
    margin += np.bincount(graph.dirichlet_idx, dw2, minlength=n)
    dw2 *= graph.dirichlet_labels
    rhs += np.bincount(graph.dirichlet_idx, dw2, minlength=n)
    if not np.all(margin > 0):
        raise ValueError("walker system diagonal must strictly dominate its rows")
    # one contiguous intp row per edge end, so no call to apply converts them
    e0, e1 = np.ascontiguousarray(graph.edges.T, dtype=np.intp)
    ew2 = graph.edge_weights ** 2
    diag = margin
    diag += np.bincount(e0, ew2, minlength=n)
    diag += np.bincount(e1, ew2, minlength=n)
    norm_b = float(np.linalg.norm(rhs))

    def lift(p):
        g = p[e1]
        g *= ew2   # the products in the gather's own buffer
        # float64 also with no edges, where bincount returns int64 zeros
        t = np.bincount(e0, g, n).astype(np.float64, copy=False)
        del g      # freed before the division
        t /= diag
        return t

    def apply(p):
        g = lift(p)[e0]   # lift's output is freed once gathered
        g *= ew2
        out = diag * p
        out -= np.bincount(e1, g, n)
        return out

    first = np.zeros(n, dtype=bool)
    first[e0] = True
    # F's entries are kept and cleared by products with the class mask, as
    # numpy's masked operations branch on each entry of a mask this random
    x = rhs / diag
    x *= first
    g = x[e0]
    g *= ew2
    rhs += np.bincount(e1, g, n)
    del g
    rhs *= ~first
    return ReducedSystem(apply, lift, diag, rhs, x, norm_b)


def _pcg(system, tol, max_iters):
    """Conjugate gradient on a :class:`ReducedSystem`, preconditioned by the
    full system's diagonal D and started from the system's x, until the
    residual falls to tol ‖b‖, b the right-hand side of the full system.

    The system's rhs is the reduced right-hand side, and the iteration
    overwrites it with the residual.  Past r the iteration holds four
    vectors, x (the system's own), p, z and the product S p, and updates
    them in place: z takes the product's buffer once the residual is
    updated, and its own buffer holds alpha p while it is dead.  Each
    update does the IEEE operations of x += alpha p, r -= alpha S p,
    z = r / diag and p = z + beta p written with temporaries, so x, the
    iteration count and the residual are the same bits.  r, z, p and S p
    are 0 on the first class, so x keeps its entries there.
    """
    apply, r, x, diag = system.apply, system.rhs, system.x, system.diag
    if system.norm_b == 0.0:
        return x, 0, 0.0
    z = r / diag
    p = z.copy()
    rz = float(r @ z)
    rel = np.linalg.norm(r) / system.norm_b
    iterations = 0
    while rel > tol:
        if iterations >= max_iters:
            raise SolverError(iterations, rel, tol)
        ap = apply(p)
        alpha = rz / float(p @ ap)
        x += np.multiply(alpha, p, out=z)
        r -= np.multiply(alpha, ap, out=ap)
        rel = np.linalg.norm(r) / system.norm_b
        z = np.divide(r, diag, out=ap)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
        iterations += 1
    return x, iterations, rel


_MAX_ITERS_PER_CANDIDATE = 10   # past it, solve raises SolverError


def solve(graph, tol=PipelineConfig.solver_tol):
    """Minimize the walker energy over the candidate values.

    Solves the reduced system of :func:`build_system` by conjugate gradient,
    applying it from the edge list with no matrix assembled, and
    back-substitutes the first class.  Every row of the first class then
    holds exactly, so the full system's relative residual ‖b - A x‖/‖b‖ is
    the reduced one up to rounding, and the solve stops once it is <= tol.
    The solution obeys the maximum principle 0 <= x <= 1 (a first-class
    value is a convex combination of 1, 0, Dirichlet labels and neighbor
    values); it is checked within solver tolerance, clamped exactly, then
    thresholded at 0.5 (0.5 maps to foreground).
    """
    if not 0 < tol < np.inf:  # a negation, so that NaN is rejected
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    system = build_system(graph)
    x, iterations, residual = _pcg(system, tol,
                                   _MAX_ITERS_PER_CANDIDATE * graph.n_candidates)
    x += system.lift(x)
    if x.size and not (x.min() >= -1e-5 and x.max() <= 1.0 + 1e-5):
        raise ValueError(
            f"maximum principle violated at tol {tol:.3e}: x in [{x.min()}, {x.max()}]")
    x = np.clip(x, 0.0, 1.0)
    labels = (x >= 0.5).astype(np.uint8)
    return WalkerSolution(x, labels, iterations, residual)


def refine(maps, intensity, theta, beta, tol=PipelineConfig.solver_tol, include_dirichlet=True):
    """Full node-selection + label-inference pass over K probability maps.

    Runs select, assemble and solve, also when no voxel is a candidate, so
    the intensity, beta and tol are checked at every theta.  Confident
    voxels keep their hard labels; candidate voxels take the walker labels.
    Returns a RefineResult whose x field, in the dtype of the maps, carries
    the solved probabilities (confident voxels hold their label value).
    """
    p = as_prob_stack(maps)
    sel = select(p, theta)
    graph = assemble(sel, p, intensity, beta, include_dirichlet=include_dirichlet)
    sol = solve(graph, tol=tol)
    # the candidates' state, -1, is overwritten by the walker's values
    labels = sel.state.astype(np.uint8)
    xfield = sel.state.astype(p.dtype)
    labels[sel.candidate_idx] = sol.labels
    xfield[sel.candidate_idx] = sol.x
    return RefineResult(labels.reshape(sel.dims), xfield.reshape(sel.dims),
                        candidates=graph.n_candidates, edges=len(graph.edges),
                        dirichlet=len(graph.dirichlet_idx), iterations=sol.iterations,
                        residual=sol.residual)
