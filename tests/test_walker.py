import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from voxwalk import selection, walker
from voxwalk.selection import SelectionResult, node_energies, select
from voxwalk.walker import (
    CompactGraph,
    SolverError,
    assemble,
    build_system,
    edge_weight,
    refine,
    solve,
)

from oracles import assemble_oracle, dense_system_oracle, walker_energy_oracle


def test_edge_weight_examples():
    assert edge_weight(0.4, 0.4, 50.0) == 1.0
    assert edge_weight(0.1, 0.9, 0.0) == 1.0
    assert math.isclose(edge_weight(0.3, 0.4, 100.0), math.exp(-1.0), rel_tol=1e-12)
    assert math.isclose(edge_weight(0.3, 0.4, 100.0), 0.367879, rel_tol=1e-5)


def test_edge_weight_rejects_negative_beta():
    with pytest.raises(ValueError, match="beta"):
        edge_weight(0.1, 0.2, -1.0)


def single_candidate_graph(p=0.7):
    return CompactGraph(
        edges=np.zeros((0, 2), dtype=np.int64),
        edge_weights=np.zeros(0),
        prior_fg=np.array([p ** 2]),
        prior_bg=np.array([(1.0 - p) ** 2]),
    )


def test_single_candidate_closed_form():
    sol = solve(single_candidate_graph(0.7), tol=1e-12)
    assert abs(sol.x[0] - 0.49 / 0.58) <= 1e-10
    assert sol.labels[0] == 1


def test_three_node_chain_matches_dense_solve():
    graph = CompactGraph(
        edges=np.array([[0, 1], [2, 1]]),
        edge_weights=np.array([0.8, 0.6]),
        prior_fg=np.array([0.9, 0.5, 0.2]) ** 2,
        prior_bg=np.array([0.1, 0.5, 0.8]) ** 2,
    )
    a, b = dense_system_oracle(graph)
    want = np.linalg.solve(a, b)
    sol = solve(graph, tol=1e-13)
    assert np.allclose(sol.x, want, atol=1e-10)


def test_all_foreground_priors_give_ones():
    graph = CompactGraph(
        edges=np.array([[0, 1], [2, 1], [2, 3]]),
        edge_weights=np.array([0.5, 0.9, 0.3]),
        prior_fg=np.full(4, 2.0),
        prior_bg=np.zeros(4),
    )
    sol = solve(graph, tol=1e-12)
    assert np.allclose(sol.x, 1.0, atol=1e-10)
    assert np.all(sol.labels == 1)


def test_strong_edge_pulls_values_together():
    graph = CompactGraph(
        edges=np.array([[0, 1]]),
        edge_weights=np.array([1.0]),
        prior_fg=np.array([0.9, 0.1]) ** 2,
        prior_bg=np.array([0.1, 0.9]) ** 2,
    )
    strong = solve(graph, tol=1e-12)
    graph.edge_weights = np.array([0.01])
    weak = solve(graph, tol=1e-12)
    assert abs(strong.x[0] - strong.x[1]) < abs(weak.x[0] - weak.x[1])


def random_graph(rng, max_candidates=50, include_dirichlet=None):
    """Random selection over a small random scene via the real assembly
    path, with or without Dirichlet terms at random unless asked for."""
    dims = tuple(rng.integers(2, 5, size=3))
    k = int(rng.integers(1, 4))
    maps = rng.random((k,) + dims)
    intensity = rng.random(dims)
    n_vox = int(np.prod(dims))
    theta = 1.0 - min(max_candidates, n_vox - 1) / n_vox
    sel = select(maps, theta)
    beta = float(rng.uniform(0, 150))
    if include_dirichlet is None:
        include_dirichlet = bool(rng.integers(0, 2))
    return assemble(sel, maps, intensity, beta=beta, include_dirichlet=include_dirichlet)


def test_solve_agrees_with_dense_direct_solver():
    rng = np.random.default_rng(0)
    for _ in range(100):
        graph = random_graph(rng)
        if graph.n_candidates == 0:
            continue
        a, b = dense_system_oracle(graph)
        want = np.linalg.solve(a, b)
        sol = solve(graph, tol=1e-12)
        assert np.max(np.abs(sol.x - want)) <= 1e-8
        assert sol.x.min() >= 0.0 and sol.x.max() <= 1.0


def unknowns(graph):
    """Mask of the candidates the PCG solves for: all but the first ends."""
    first = np.zeros(graph.n_candidates, dtype=bool)
    first[graph.edges[:, 0]] = True
    return ~first


def dense_system(graph):
    """(S, diag, b) of build_system: the reduced operator S made dense on the
    unknowns one column at a time, by applying it to each unit vector of an
    unknown, the full diagonal and the reduced right-hand side on the
    unknowns.  Each product and the right-hand side must be exactly 0 on the
    first class."""
    system = build_system(graph)
    u = unknowns(graph)
    cols = [system.apply(e) for e in np.eye(graph.n_candidates)[u]]
    for v in cols + [system.rhs]:
        assert not v[~u].any()
    return np.column_stack(cols)[u], system.diag, system.rhs[u]


def dense_schur_oracle(graph):
    """Schur complement A_uu - A_uf A_ff⁻¹ A_fu of the dense oracle system
    on the unknowns u, and the reduced right-hand side b_u - A_uf A_ff⁻¹ b_f."""
    a, b = dense_system_oracle(graph)
    u = unknowns(graph)
    f = ~u
    a_uf_inv = a[np.ix_(u, f)] @ np.linalg.inv(a[np.ix_(f, f)])
    return a[np.ix_(u, u)] - a_uf_inv @ a[np.ix_(f, u)], b[u] - a_uf_inv @ b[f], a


def test_sparse_system_matches_dense_oracle():
    # build_system's operator is the dense Schur complement of the oracle
    # system, and its right-hand side the reduced one, with and without
    # Dirichlet terms
    rng = np.random.default_rng(1)
    for include_dirichlet in (True, False):
        for _ in range(20):
            graph = random_graph(rng, include_dirichlet=include_dirichlet)
            s, diag, b = dense_system(graph)
            s0, b0, a0 = dense_schur_oracle(graph)
            assert np.allclose(s, s0, atol=1e-12)
            assert np.allclose(diag, np.diag(a0), atol=1e-12)
            assert np.allclose(b, b0, atol=1e-12)


def test_system_is_m_matrix():
    rng = np.random.default_rng(2)
    for _ in range(20):
        graph = random_graph(rng)
        dense, _, _ = dense_system(graph)
        assert np.allclose(dense, dense.T)
        off = dense - np.diag(np.diag(dense))
        assert np.all(off <= 0)
        assert np.all(np.diag(dense) - np.abs(off).sum(axis=1) > 0)


@pytest.mark.parametrize("tol", [1e-4, 1e-8])
def test_solve_meets_tol_on_the_full_system(tol):
    """After the back-substitution ‖b - A x‖/‖b‖ of the full dense oracle
    system is at most tol and equals the reported residual, which the PCG
    measured on the reduced system."""
    rng = np.random.default_rng(14)
    for k in range(40):
        graph = random_graph(rng, include_dirichlet=k % 2 == 0)
        sol = solve(graph, tol=tol)
        a, b = dense_system_oracle(graph)
        rel = np.linalg.norm(b - a @ sol.x) / np.linalg.norm(b)
        assert rel <= tol
        assert rel == pytest.approx(sol.residual, rel=1e-6)


def test_solution_is_local_minimum_of_energy():
    rng = np.random.default_rng(3)
    graph = random_graph(rng)
    sol = solve(graph, tol=1e-12)
    base = walker_energy_oracle(graph, sol.x)
    for _ in range(100):
        delta = rng.normal(scale=1e-3, size=len(sol.x))
        assert walker_energy_oracle(graph, sol.x + delta) >= base - 1e-15


def test_solver_error_carries_residual(monkeypatch):
    # a single-candidate Jacobi PCG is exact in one iteration, so only a
    # zero iteration cap makes it fail
    monkeypatch.setattr(walker, "_MAX_ITERS_PER_CANDIDATE", 0)
    graph = single_candidate_graph(0.7)
    with pytest.raises(SolverError, match="residual"):
        solve(graph, tol=1e-16)


def zero_prior_edge_graph():
    """Two candidates joined by one full-weight edge and no prior at all: the
    system is singular, so the diagonal dominance check must fail."""
    return CompactGraph(
        edges=np.array([[0, 1]]),
        edge_weights=np.ones(1),
        prior_fg=np.zeros(2),
        prior_bg=np.zeros(2),
    )


def test_singular_system_rejected():
    with pytest.raises(ValueError, match="dominate"):
        build_system(zero_prior_edge_graph())
    with pytest.raises(ValueError, match="dominate"):
        solve(zero_prior_edge_graph())


def test_loose_tolerance_breaking_maximum_principle_rejected():
    # one Jacobi-preconditioned CG step on the two unknowns of this chain
    # (candidates 1 and 3) overshoots 1
    p = np.array([0.67, 0.96, 0.93, 0.75])
    graph = CompactGraph(
        edges=np.array([[0, 1], [2, 1], [2, 3]]),
        edge_weights=np.array([0.86, 0.25, 0.14]),
        prior_fg=p ** 2,
        prior_bg=(1.0 - p) ** 2,
    )
    assert solve(graph, tol=1e-12).x.max() < 1.0
    with pytest.raises(ValueError, match="maximum principle"):
        solve(graph, tol=0.5)


def test_system_checks_survive_python_optimize():
    code = (
        "import sys\n"
        "from test_walker import zero_prior_edge_graph\n"
        "from voxwalk.walker import solve\n"
        "try:\n"
        "    solve(zero_prior_edge_graph())\n"
        "except ValueError:\n"
        "    sys.exit(10 + sys.flags.optimize)\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "tests"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 11, out.stderr


def test_empty_candidate_set_is_noop():
    sol = solve(CompactGraph(
        edges=np.zeros((0, 2), dtype=np.int64),
        edge_weights=np.zeros(0),
        prior_fg=np.zeros(0),
        prior_bg=np.zeros(0),
    ))
    assert len(sol.x) == 0 and sol.iterations == 0


def test_assemble_dimension_mismatch_rejected():
    rng = np.random.default_rng(4)
    maps = rng.random((1, 2, 2, 2))
    sel = select(maps, 0.5)
    with pytest.raises(ValueError, match="dims"):
        assemble(sel, maps, rng.random((3, 3, 3)), beta=100.0)
    with pytest.raises(ValueError, match="dims"):
        assemble(sel, rng.random((1, 3, 3, 3)), rng.random((2, 2, 2)), beta=100.0)


def test_assemble_normalizes_intensity():
    rng = np.random.default_rng(5)
    maps = rng.random((1, 2, 2, 2))
    sel = select(maps, 0.0)
    raw = rng.normal(100.0, 25.0, size=(2, 2, 2))
    g1 = assemble(sel, maps, raw, beta=100.0)
    g2 = assemble(sel, maps, (raw - raw.min()) / (raw.max() - raw.min()), beta=100.0)
    assert np.allclose(g1.edge_weights, g2.edge_weights)
    assert g1.edge_weights.min() > 0.0 and g1.edge_weights.max() <= 1.0


def test_assemble_maps_the_intensity_range_onto_the_unit_interval():
    maps = np.full((1, 1, 1, 2), 0.5)
    sel = select(maps, 0.0)
    line = assemble(sel, maps, np.array([[[2.0, 6.0]]]), beta=3.0)
    assert len(line.edge_weights) == 1
    assert math.isclose(line.edge_weights[0], math.exp(-3.0), rel_tol=1e-12)
    flat = assemble(sel, maps, np.full((1, 1, 2), 3.0), beta=3.0)
    assert flat.edge_weights.tolist() == [1.0]


def test_float32_inputs_give_the_float64_graph_of_their_widened_values():
    """Only candidate-sized arrays are widened, so the graph equals the one
    built from float64 copies of the same values, bit for bit."""
    rng = np.random.default_rng(12)
    maps = rng.random((3, 5, 6, 7), dtype=np.float32)
    intensity = rng.normal(0.5, 0.2, (5, 6, 7)).astype(np.float32)
    sel = select(maps, 0.6)
    narrow = assemble(sel, maps, intensity, beta=30.0)
    wide = assemble(sel, maps.astype(np.float64), intensity.astype(np.float64), beta=30.0)
    for name in ("edges", "edge_weights", "prior_fg", "prior_bg", "dirichlet_idx",
                 "dirichlet_labels", "dirichlet_weights"):
        got, want = getattr(narrow, name), getattr(wide, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    for name in ("edge_weights", "prior_fg", "prior_bg", "dirichlet_weights"):
        assert getattr(narrow, name).dtype == np.float64, name
    a, diag, b = dense_system(narrow)
    assert a.dtype == diag.dtype == b.dtype == np.float64


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_refine_holds_x_in_the_dtype_of_the_maps(dtype):
    maps, intensity = small_scene()
    out = refine(maps.astype(dtype), intensity.astype(dtype), 0.5, beta=100.0)
    assert out.x.dtype == dtype and out.labels.dtype == np.uint8
    assert out.candidates > 0


def test_dirichlet_terms_pull_toward_confident_labels():
    # one candidate voxel surrounded by confident foreground in a 3x1x1 line
    maps = np.array([[[[0.95]], [[0.5]], [[0.95]]]])  # middle voxel ambiguous
    sel = select(maps, 2.0 / 3.0)
    assert np.array_equal(sel.candidate_idx, [1])
    intensity = np.full((3, 1, 1), 0.5)
    with_d = refine(maps, intensity, 2.0 / 3.0, beta=100.0)
    assert with_d.labels[1, 0, 0] == 1  # neighbors vote foreground
    without = refine(maps, intensity, 2.0 / 3.0, beta=100.0, include_dirichlet=False)
    # with the boundary terms removed only the 0.5 prior remains: x = 0.5 -> 1
    assert without.x[1, 0, 0] == pytest.approx(0.5, abs=1e-9)
    assert without.labels[1, 0, 0] == 1


def test_refine_theta_one_is_thresholded_mean():
    rng = np.random.default_rng(6)
    maps = rng.random((2, 4, 4, 4))
    intensity = rng.random((4, 4, 4))
    out = refine(maps, intensity, 1.0, beta=100.0)
    want = (maps.mean(axis=0) >= 0.5).astype(np.uint8)
    assert np.array_equal(out.labels, want)


def test_refine_theta_zero_runs_full_lattice():
    rng = np.random.default_rng(7)
    maps = rng.random((1, 3, 3, 3))
    intensity = rng.random((3, 3, 3))
    out = refine(maps, intensity, 0.0, beta=0.0)
    sel = select(maps, 0.0)
    graph = assemble(sel, maps, intensity, beta=0.0)
    assert np.all(graph.edge_weights == 1.0)  # beta 0 makes every edge weight 1
    sol = solve(graph)
    assert np.allclose(out.x.reshape(-1), sol.x)


def test_refine_reports_the_counters_of_its_graph_and_solve():
    rng = np.random.default_rng(9)
    maps = rng.random((2, 4, 4, 4))
    intensity = rng.random((4, 4, 4))
    out = refine(maps, intensity, 0.5, beta=100.0)
    graph = assemble(select(maps, 0.5), maps, intensity, beta=100.0)
    sol = solve(graph)
    assert (out.candidates, out.edges, out.dirichlet) == (
        graph.n_candidates, len(graph.edges), len(graph.dirichlet_idx))
    assert (out.iterations, out.residual) == (sol.iterations, sol.residual)
    assert 0 < out.residual <= 1e-8
    all_confident = refine(maps, intensity, 1.0, beta=100.0)
    assert (all_confident.candidates, all_confident.edges, all_confident.dirichlet,
            all_confident.iterations) == (0, 0, 0, 0)


def test_refine_never_changes_confident_labels():
    rng = np.random.default_rng(8)
    maps = rng.random((2, 4, 4, 4))
    intensity = rng.random((4, 4, 4))
    theta = 0.9
    sel = select(maps, theta)
    out = refine(maps, intensity, theta, beta=100.0)
    assert np.array_equal(out.labels.reshape(-1)[sel.confident_idx],
                          sel.confident_labels)


def test_refine_invariant_to_map_order():
    rng = np.random.default_rng(9)
    maps = rng.random((3, 4, 4, 4))
    intensity = rng.random((4, 4, 4))
    a = refine(maps, intensity, 0.8, beta=100.0)
    b = refine(maps[[2, 0, 1]], intensity, 0.8, beta=100.0)
    assert np.array_equal(a.labels, b.labels)
    assert np.allclose(a.x, b.x, atol=1e-9)


def test_refine_removes_false_positive_blob():
    """An isolated low-confidence false-positive region in one map is erased
    once lattice smoothing and the second map weigh in."""
    dims = (8, 8, 8)
    truth = np.zeros(dims)
    truth[1:4, 1:4, 1:4] = 1.0
    intensity = 0.2 + 0.6 * truth
    good = np.clip(truth * 0.95 + 0.02, 0.0, 1.0)
    bad = good.copy()
    bad[5:7, 5:7, 5:7] = 0.68  # planted blob, low confidence, background intensity
    maps = np.stack([bad, good])
    fused = (maps.mean(axis=0) >= 0.5).astype(np.uint8)
    from voxwalk.metrics import dice

    out = refine(maps, intensity, 0.9, beta=100.0)
    blob = out.labels[5:7, 5:7, 5:7]
    assert blob.sum() == 0
    assert dice(out.labels, truth.astype(np.uint8)) >= dice(fused, truth.astype(np.uint8))


def small_scene():
    """A seeded 4³ scene with two probability maps."""
    rng = np.random.default_rng(10)
    return rng.random((2, 4, 4, 4)), rng.random((4, 4, 4))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_tol_rejected(tol):
    # NaN used to stop PCG at once with x = 0, and a negative tol divided by zero
    with pytest.raises(ValueError, match="tol must be finite and > 0"):
        solve(single_candidate_graph(), tol=tol)
    maps, intensity = small_scene()
    with pytest.raises(ValueError, match="tol"):
        refine(maps, intensity, 0.5, beta=100.0, tol=tol)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
def test_non_finite_beta_rejected(beta):
    with pytest.raises(ValueError, match="beta must be finite"):
        edge_weight(0.3, 0.3, beta)
    maps, intensity = small_scene()
    with pytest.raises(ValueError, match="beta"):
        refine(maps, intensity, 0.5, beta=beta)


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_refine_checks_its_inputs_at_every_theta(theta):
    """At theta 1 no voxel is a candidate; the inputs are checked all the same."""
    maps, intensity = small_scene()
    with pytest.raises(ValueError, match="dims"):
        refine(maps, intensity[:3, :3, :3], theta, beta=100.0)
    nan_intensity = intensity.copy()
    nan_intensity[1, 2, 3] = math.nan
    with pytest.raises(ValueError, match="non-finite"):
        refine(maps, nan_intensity, theta, beta=100.0)
    with pytest.raises(ValueError, match="tol"):
        refine(maps, intensity, theta, beta=100.0, tol=math.nan)
    with pytest.raises(ValueError, match="beta"):
        refine(maps, intensity, theta, beta=math.nan)


@pytest.mark.parametrize("bad, message", [
    (math.nan, "probabilities must be finite, found NaN"),
    (1.4, r"probabilities must lie in \[0,1\]"),
])
@pytest.mark.parametrize("entry", ["node_energies", "select", "refine", "assemble"])
def test_each_entry_point_checks_the_probabilities_it_reads(monkeypatch, entry, bad, message):
    """The range check runs where the maps are read: node_energies checks
    them slab by slab, select and refine through it, and assemble checks
    the probabilities of the candidates it gathers."""
    monkeypatch.setattr(selection, "_SLAB_VOXELS", 1)  # one depth plane per slab
    rng = np.random.default_rng(43)
    maps = rng.random((2, 4, 3, 3))
    intensity = rng.random((4, 3, 3))
    sel = select(maps, 0.5)
    voxel = sel.candidate_idx[-1]
    assert voxel >= 9  # past the first slab
    maps.reshape(2, -1)[1, voxel] = bad
    calls = {
        "node_energies": lambda: node_energies(maps),
        "select": lambda: select(maps, 0.5),
        "refine": lambda: refine(maps, intensity, 0.5, beta=100.0),
        "assemble": lambda: assemble(sel, maps, intensity, beta=100.0),
    }
    with pytest.raises(ValueError, match=message):
        calls[entry]()


def test_refine_accepts_a_zero_voxel_volume():
    out = refine(np.zeros((2, 0, 4, 4)), np.zeros((0, 4, 4)), 0.5, beta=100.0)
    assert out.labels.shape == out.x.shape == (0, 4, 4)
    assert (out.candidates, out.edges, out.dirichlet, out.iterations) == (0, 0, 0, 0)


def graph_with(**overrides):
    """A two-candidate graph with one edge and one Dirichlet term."""
    fields = dict(
        edges=np.array([[0, 1]]),
        edge_weights=np.array([0.5]),
        prior_fg=np.array([0.9, 0.4]) ** 2,
        prior_bg=np.array([0.1, 0.6]) ** 2,
        dirichlet_idx=np.array([1]),
        dirichlet_labels=np.array([1], dtype=np.uint8),
        dirichlet_weights=np.array([0.7]),
    )
    fields.update(overrides)
    return CompactGraph(**fields)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -0.1, 1.5])
def test_graph_rejects_bad_edge_and_dirichlet_weights(bad):
    graph_with()
    with pytest.raises(ValueError, match="edge weights must be finite"):
        graph_with(edge_weights=np.array([bad]))
    with pytest.raises(ValueError, match="edge weights must be finite"):
        graph_with(dirichlet_weights=np.array([bad]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_graph_rejects_non_finite_unary_terms(bad):
    with pytest.raises(ValueError, match="prior weights must be finite"):
        graph_with(prior_fg=np.array([0.81, bad]))
    with pytest.raises(ValueError, match="prior weights must be finite"):
        graph_with(prior_bg=np.array([bad, 0.36]))


def test_graph_rejects_priors_not_one_per_candidate():
    with pytest.raises(ValueError, match=r"one \(fg,bg\) prior weight pair per candidate"):
        graph_with(prior_fg=np.array([[0.81], [0.16]]))
    with pytest.raises(ValueError, match=r"one \(fg,bg\) prior weight pair per candidate"):
        graph_with(prior_bg=np.array([0.01]))


# The system reads a graph's indices in place, so a malformed graph is
# rejected where it is built, by a message that names the field, and not
# deep in the solve by a numpy broadcast or index error.

@pytest.mark.parametrize("edges", [
    np.array([0, 1]), np.array([[0, 1, 1]]), np.array([[[0, 1]]]), np.array([[0.0, 1.0]]),
], ids=["1-D", "three-ends", "3-D", "float"])
def test_graph_rejects_edges_not_e_by_2_integers(edges):
    with pytest.raises(ValueError, match=r"edges must be an \[E,2\] integer array"):
        graph_with(edges=edges)


@pytest.mark.parametrize("edges", [[[0, 2]], [[-1, 1]], [[7, 0]]])
def test_graph_rejects_edges_outside_the_candidates(edges):
    with pytest.raises(ValueError, match=r"edges must index the 2 candidates, in \[0, 2\)"):
        graph_with(edges=np.array(edges))


def test_graph_rejects_edges_that_do_not_2_colour_the_candidates():
    # candidate 1 ends the first edge and starts the second
    with pytest.raises(ValueError, match="edges must 2-colour the candidates"):
        CompactGraph(edges=np.array([[0, 1], [1, 2]]), edge_weights=np.array([0.5, 0.5]),
                     prior_fg=np.full(3, 0.25), prior_bg=np.full(3, 0.25))
    CompactGraph(edges=np.array([[0, 1], [2, 1]]), edge_weights=np.array([0.5, 0.5]),
                 prior_fg=np.full(3, 0.25), prior_bg=np.full(3, 0.25))


@pytest.mark.parametrize("weights", [np.array([0.5, 0.5]), np.zeros(0), np.array([[0.5]])])
def test_graph_rejects_edge_weights_not_one_per_edge(weights):
    with pytest.raises(ValueError, match="edge_weights must hold one weight per edge"):
        graph_with(edge_weights=weights)


@pytest.mark.parametrize("field, value", [
    ("dirichlet_idx", np.array([1, 0])),
    ("dirichlet_labels", np.array([1, 0], dtype=np.uint8)),
    ("dirichlet_weights", np.zeros(0)),
    ("dirichlet_idx", np.array([[1]])),
    ("dirichlet_idx", np.array([1.0])),
])
def test_graph_rejects_dirichlet_arrays_of_unequal_lengths(field, value):
    with pytest.raises(ValueError, match="dirichlet_idx .*, dirichlet_labels and "
                                         "dirichlet_weights must be 1-D of one length"):
        graph_with(**{field: value})


@pytest.mark.parametrize("idx", [2, -1])
def test_graph_rejects_dirichlet_indices_outside_the_candidates(idx):
    with pytest.raises(ValueError, match=r"dirichlet_idx must index the 2 candidates, in \[0, 2\)"):
        graph_with(dirichlet_idx=np.array([idx]))


@pytest.mark.parametrize("label", [np.array([2], dtype=np.uint8), np.array([0.5]),
                                   np.array([-1])])
def test_graph_rejects_dirichlet_labels_other_than_0_or_1(label):
    with pytest.raises(ValueError, match="dirichlet_labels must be 0 or 1"):
        graph_with(dirichlet_labels=label)


@st.composite
def scenes(draw):
    """K = 1-3 probability maps and an intensity volume, all values in
    [0,1], on a lattice of extent 1-5 per axis."""
    dims = draw(st.tuples(*[st.integers(1, 5)] * 3))
    unit = st.floats(0.0, 1.0)
    intensity = draw(hnp.arrays(np.float64, dims, elements=unit))
    maps = draw(hnp.arrays(np.float64, (draw(st.integers(1, 3)),) + dims, elements=unit))
    return maps, intensity


@st.composite
def partitions(draw):
    """A scene whose voxels are split at random into confident voxels with
    hard labels and candidates."""
    maps, intensity = draw(scenes())
    state = draw(hnp.arrays(np.int8, intensity.size, elements=st.integers(-1, 1)))
    return SelectionResult(dims=intensity.shape, state=state), maps, intensity


@settings(max_examples=80, deadline=None)
@given(case=partitions(), beta=st.floats(0.0, 50.0), include_dirichlet=st.booleans())
def test_assemble_matches_neighbor_loop(case, beta, include_dirichlet):
    sel, maps, intensity = case
    graph = assemble(sel, maps, intensity, beta, include_dirichlet=include_dirichlet)
    lo, hi = intensity.min(), intensity.max()
    data = (intensity - lo) / (hi - lo) if hi > lo else np.zeros_like(intensity)
    want_edges, want_dirichlet = assemble_oracle(sel, data, beta, include_dirichlet)
    # each edge runs from its even-parity voxel to its odd one, and the
    # oracle takes a pair from its lower voxel, so pairs compare unordered
    parity = np.sum(np.unravel_index(sel.candidate_idx, sel.dims), axis=0) % 2
    assert not parity[graph.edges[:, 0]].any() and parity[graph.edges[:, 1]].all()
    got_edges = sorted(zip(graph.edges.min(axis=1).tolist(), graph.edges.max(axis=1).tolist(),
                           graph.edge_weights.tolist()))
    got_dirichlet = sorted(zip(graph.dirichlet_idx.tolist(),
                               graph.dirichlet_labels.tolist(),
                               graph.dirichlet_weights.tolist()))
    for got, want in ((got_edges, want_edges), (got_dirichlet, want_dirichlet)):
        assert [g[:2] for g in got] == [w[:2] for w in want]
        assert np.allclose([g[2] for g in got], [w[2] for w in want], rtol=1e-12, atol=0)
    # squares as products: Python's x ** 2 calls libm pow, which misrounds
    # about 1 in 1000 squares by an ulp, where numpy squares exactly rounded
    flat = maps.reshape(len(maps), -1).tolist()
    want_fg = [sum(m[v] * m[v] for m in flat) for v in sel.candidate_idx]
    want_bg = [sum((1.0 - m[v]) * (1.0 - m[v]) for m in flat) for v in sel.candidate_idx]
    assert np.array_equal(graph.prior_fg, np.array(want_fg, dtype=np.float64))
    assert np.array_equal(graph.prior_bg, np.array(want_bg, dtype=np.float64))


@settings(max_examples=80, deadline=None)
@given(scene=scenes(),
       theta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       beta=st.floats(0.0, 50.0), include_dirichlet=st.booleans())
def test_refine_obeys_the_maximum_principle_and_the_selection(
        scene, theta, beta, include_dirichlet):
    maps, intensity = scene
    sel = select(maps, theta)
    out = refine(maps, intensity, theta, beta, include_dirichlet=include_dirichlet)
    x, labels = out.x.reshape(-1), out.labels.reshape(-1)
    assert np.all((x >= 0.0) & (x <= 1.0))
    conf = sel.state >= 0
    assert np.array_equal(labels[conf], sel.state[conf])
    assert np.array_equal(x[conf], sel.state[conf])
    cand = sel.candidate_idx
    assert np.array_equal(labels[cand], x[cand] >= 0.5)


def graph_digest(graph):
    """sha256 of a graph's seven arrays, in their field order.  Only bytes
    are hashed, not dtypes: an empty array hashes the same in any dtype.
    The edges are hashed as [E,2] int32, the bytes of the pins taken when
    assemble stored them so; the intp edges must hold the same values."""
    assert graph.edges.dtype == np.intp and graph.edges.T.flags.c_contiguous
    got = hashlib.sha256(graph.edges.astype(np.int32).tobytes())
    for name in ("edge_weights", "prior_fg", "prior_bg", "dirichlet_idx",
                 "dirichlet_labels", "dirichlet_weights"):
        got.update(getattr(graph, name).tobytes())
    return got.hexdigest()


def refine_digest(out):
    """sha256 of refine's labels, x and five counters."""
    got = hashlib.sha256(out.labels.tobytes() + out.x.tobytes())
    got.update(repr((out.candidates, out.edges, out.dirichlet, out.iterations,
                     float(out.residual).hex())).encode())
    return got.hexdigest()


def seeded_scene(seed, dims):
    """Three float32 maps and an intensity volume of uniform noise."""
    rng = np.random.default_rng(seed)
    maps = rng.random((3,) + dims, dtype=np.float32)
    return maps, rng.random(dims, dtype=np.float32)


@pytest.mark.parametrize("include_dirichlet, digest", [
    (True, "08b71ac3d8f5aed78d84a7da802b0297f933814a924daddfdd7e497921a08430"),
    (False, "31ce6e343a7f98e98f0c54f64c51ddac308ca80227b90fc14df964af4fe2c5eb"),
], ids=["dirichlet", "no-dirichlet"])
def test_assemble_output_bytes_are_pinned(include_dirichlet, digest):
    # Pins the bytes of assemble's seven arrays on the seeded 16³ scene of
    # test_refine_output_bytes_are_pinned, so a change to the order of edges
    # or Dirichlet terms, to an edge's orientation or to one weight bit,
    # shows.
    maps, intensity = seeded_scene(13, (16, 16, 16))
    graph = assemble(select(maps, 0.5), maps, intensity, 100.0,
                     include_dirichlet=include_dirichlet)
    assert graph_digest(graph) == digest


@pytest.mark.parametrize("include_dirichlet, digest", [
    (True, "606c4cc962b62d679b7da8407db41d9b28ca7467ad7a3312364e7c26f8fea7d6"),
    (False, "3e2ff10d5cc680c17d2a87466730b7ab625064336a43c8fdc01bf44848522ab4"),
], ids=["dirichlet", "no-dirichlet"])
def test_refine_output_bytes_are_pinned(include_dirichlet, digest):
    # Pins refine's labels, float32 x and five counters on a seeded 16³
    # scene of three float32 maps at theta 0.5 (2,048 candidates, 7 PCG
    # iterations of the reduced system), so any change to selection,
    # assembly or the solve that moves one output bit shows.
    maps, intensity = seeded_scene(13, (16, 16, 16))
    out = refine(maps, intensity, 0.5, beta=100.0, include_dirichlet=include_dirichlet)
    assert out.x.dtype == np.float32
    assert refine_digest(out) == digest


@pytest.mark.parametrize("include_dirichlet, assemble_sha, refine_sha", [
    (True, "48d6b3f0715b248f2f8d71059bb6544923cf3794feea10aaf5abe81a0d5a25f3",
     "5c9f875eeaec6e4567b0964185f9b8c20ab9ead5fa79c0894fb579991fdcf8b8"),
    (False, "a7d3bc65d034578dafa2dc302459e80447228e4b79aeadaa86595559e23a4689",
     "3103899a6c1362e1ff72a6cb1e9df597876378f71718850c64b0df0e22795b35"),
], ids=["dirichlet", "no-dirichlet"])
def test_output_bytes_are_pinned_on_a_non_cubic_lattice(
        include_dirichlet, assemble_sha, refine_sha):
    # The 16³ pins above cannot see a stride of one axis used for another:
    # on this 10x13x17 scene at theta 0.5 (1,105 candidates, 1,802 edges,
    # 2,095 Dirichlet terms, 7 PCG iterations) every axis has its own
    # stride, padded or not.
    maps, intensity = seeded_scene(29, (10, 13, 17))
    graph = assemble(select(maps, 0.5), maps, intensity, 100.0,
                     include_dirichlet=include_dirichlet)
    assert graph_digest(graph) == assemble_sha
    out = refine(maps, intensity, 0.5, beta=100.0, include_dirichlet=include_dirichlet)
    assert refine_digest(out) == refine_sha


def test_assemble_peak_memory_is_bounded():
    """On a 24x32x40 scene at theta 0.5 (15,360 candidates, 25,512 edges,
    35,370 Dirichlet terms, a 1.25 MiB graph with intp edges) assemble
    peaks at ~1.84 MiB (~125 B per candidate) when it reads the lattice
    through one padded lookup, frees its temporaries as it goes and joins
    the graph's fields one at a time.  Per-direction bounds masks and a
    per-voxel position array peak at ~3.12 MiB (~213 B), and keeping three
    int64 coordinates per candidate alive through the gathers peaks at
    ~2.18 MiB; both fail the bound."""
    maps, intensity = seeded_scene(31, (24, 32, 40))
    sel = select(maps, 0.5)
    tracemalloc.start()
    try:
        assemble(sel, maps, intensity, 100.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * (1 << 20)


def seeded_graph():
    """The graph of test_assemble_peak_memory_is_bounded's scene at theta 0.5."""
    maps, intensity = seeded_scene(31, (24, 32, 40))
    return assemble(select(maps, 0.5), maps, intensity, 100.0)


def test_system_reads_the_assembled_edges_in_place():
    """assemble stores the edges as the transpose of one contiguous intp
    [2,E] array, so build_system's edge rows are views of the graph's
    edges, not a copy; a hand-built int32 or int64 [E,2] array is
    converted and gives the same system."""
    graph = seeded_graph()
    apply = build_system(graph).apply
    cells = [c.cell_contents for c in apply.__closure__]
    rows = [c for c in cells if isinstance(c, np.ndarray) and np.shares_memory(c, graph.edges)]
    assert len(rows) == 2
    small = random_graph(np.random.default_rng(44))
    assert len(small.edges) > 0
    want = dense_system(small)
    for dtype in (np.int32, np.int64):
        small.edges = np.ascontiguousarray(small.edges, dtype=dtype)   # [E,2] rows
        for got, ref in zip(dense_system(small), want):
            assert np.array_equal(got, ref)


def test_solve_peak_memory_is_four_vectors_and_one_apply_above_the_system():
    """Past the built system (whose right-hand side the PCG takes as its
    residual), solve holds x (the system's start vector, counted here as the
    PCG's), p, z and S p, and one apply adds one E-sized gather, scaled in
    place, and one bincount output: on the 15,360 candidates and 25,512
    edges of seeded_graph that is ~0.78 MiB.  A PCG that copies the
    right-hand side (+0.12 MiB) or an apply that holds a gather beside its
    product (+0.19 MiB) fails the bound."""
    graph = seeded_graph()
    n, e = graph.n_candidates, len(graph.edges)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        system = build_system(graph)
        built = tracemalloc.get_traced_memory()[0] - base - system.x.nbytes
        del system
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sol = solve(graph)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sol.iterations > 5
    assert peak - built <= 8 * (4 * n + e + n) + 4096


def test_solve_leaves_the_graph_unchanged():
    """The PCG overwrites the right-hand side that build_system hands it,
    which must be its own array: a second solve of one graph gives the
    same bytes, and every graph array keeps its bytes."""
    graph = seeded_graph()
    names = ("edges", "edge_weights", "prior_fg", "prior_bg", "dirichlet_idx",
             "dirichlet_labels", "dirichlet_weights")
    before = [getattr(graph, name).copy() for name in names]
    first, second = solve(graph), solve(graph)
    assert first.x.tobytes() == second.x.tobytes()
    assert (first.iterations, first.residual) == (second.iterations, second.residual)
    for name, want in zip(names, before):
        got = getattr(graph, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
