import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from voxwalk.selection import SelectionResult, select
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
        dims=(1, 1, 1),
        candidates=np.array([0]),
        edges=np.zeros((0, 2), dtype=np.int64),
        edge_weights=np.zeros(0),
        unary_fg=np.array([[p]]),
        unary_bg=np.array([[1.0 - p]]),
    )


def test_single_candidate_closed_form():
    sol = solve(single_candidate_graph(0.7), tol=1e-12)
    assert abs(sol.x[0] - 0.49 / 0.58) <= 1e-10
    assert sol.labels[0] == 1


def test_three_node_chain_matches_dense_solve():
    graph = CompactGraph(
        dims=(3, 1, 1),
        candidates=np.arange(3),
        edges=np.array([[0, 1], [1, 2]]),
        edge_weights=np.array([0.8, 0.6]),
        unary_fg=np.array([[0.9], [0.5], [0.2]]),
        unary_bg=np.array([[0.1], [0.5], [0.8]]),
    )
    a, b = dense_system_oracle(graph)
    want = np.linalg.solve(a, b)
    sol = solve(graph, tol=1e-13)
    assert np.allclose(sol.x, want, atol=1e-10)


def test_all_foreground_priors_give_ones():
    graph = CompactGraph(
        dims=(2, 2, 1),
        candidates=np.arange(4),
        edges=np.array([[0, 1], [1, 2], [2, 3]]),
        edge_weights=np.array([0.5, 0.9, 0.3]),
        unary_fg=np.ones((4, 2)),
        unary_bg=np.zeros((4, 2)),
    )
    sol = solve(graph, tol=1e-12)
    assert np.allclose(sol.x, 1.0, atol=1e-10)
    assert np.all(sol.labels == 1)


def test_strong_edge_pulls_values_together():
    graph = CompactGraph(
        dims=(2, 1, 1),
        candidates=np.arange(2),
        edges=np.array([[0, 1]]),
        edge_weights=np.array([1.0]),
        unary_fg=np.array([[0.9], [0.1]]),
        unary_bg=np.array([[0.1], [0.9]]),
    )
    strong = solve(graph, tol=1e-12)
    graph.edge_weights = np.array([0.01])
    weak = solve(graph, tol=1e-12)
    assert abs(strong.x[0] - strong.x[1]) < abs(weak.x[0] - weak.x[1])


def random_graph(rng, max_candidates=50):
    """Random selection over a small random scene via the real assembly path."""
    dims = tuple(rng.integers(2, 5, size=3))
    k = int(rng.integers(1, 4))
    maps = rng.random((k,) + dims)
    intensity = rng.random(dims)
    n_vox = int(np.prod(dims))
    theta = 1.0 - min(max_candidates, n_vox - 1) / n_vox
    sel = select(maps, theta)
    return assemble(sel, maps, intensity, beta=float(rng.uniform(0, 150)),
                    include_dirichlet=bool(rng.integers(0, 2)))


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


def test_sparse_system_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        graph = random_graph(rng)
        a, b = build_system(graph)
        a0, b0 = dense_system_oracle(graph)
        assert np.allclose(a.toarray(), a0, atol=1e-12)
        assert np.allclose(b, b0, atol=1e-12)


def test_system_is_m_matrix():
    rng = np.random.default_rng(2)
    for _ in range(20):
        graph = random_graph(rng)
        a, _ = build_system(graph)
        dense = a.toarray()
        assert np.allclose(dense, dense.T)
        off = dense - np.diag(np.diag(dense))
        assert np.all(off <= 0)
        assert np.all(np.diag(dense) - np.abs(off).sum(axis=1) > 0)


def test_solution_is_local_minimum_of_energy():
    rng = np.random.default_rng(3)
    graph = random_graph(rng)
    sol = solve(graph, tol=1e-12)
    base = walker_energy_oracle(graph, sol.x)
    for _ in range(100):
        delta = rng.normal(scale=1e-3, size=len(sol.x))
        assert walker_energy_oracle(graph, sol.x + delta) >= base - 1e-15


def test_solver_error_carries_residual():
    graph = single_candidate_graph(0.7)
    with pytest.raises(SolverError, match="residual"):
        solve(graph, tol=1e-16, max_iters=0)


def zero_prior_edge_graph():
    """Two candidates joined by one full-weight edge and no prior at all: the
    system is singular, so the diagonal dominance check must fail."""
    return CompactGraph(
        dims=(2, 1, 1),
        candidates=np.arange(2),
        edges=np.array([[0, 1]]),
        edge_weights=np.ones(1),
        unary_fg=np.zeros((2, 1)),
        unary_bg=np.zeros((2, 1)),
    )


def test_singular_system_rejected():
    with pytest.raises(ValueError, match="dominate"):
        build_system(zero_prior_edge_graph())
    with pytest.raises(ValueError, match="dominate"):
        solve(zero_prior_edge_graph())


def test_loose_tolerance_breaking_maximum_principle_rejected():
    # one Jacobi-preconditioned CG step overshoots 1 on this chain
    p = np.array([[0.91], [0.61], [0.73]])
    graph = CompactGraph(
        dims=(3, 1, 1),
        candidates=np.arange(3),
        edges=np.array([[0, 1], [1, 2]]),
        edge_weights=np.array([0.54, 0.94]),
        unary_fg=p,
        unary_bg=1.0 - p,
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
        dims=(1, 1, 2),
        candidates=np.zeros(0, dtype=np.int64),
        edges=np.zeros((0, 2), dtype=np.int64),
        edge_weights=np.zeros(0),
        unary_fg=np.zeros((0, 1)),
        unary_bg=np.zeros((0, 1)),
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
    for name in ("edges", "edge_weights", "unary_fg", "unary_bg", "dirichlet_idx",
                 "dirichlet_labels", "dirichlet_weights"):
        got, want = getattr(narrow, name), getattr(wide, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    for name in ("edge_weights", "unary_fg", "unary_bg", "dirichlet_weights"):
        assert getattr(narrow, name).dtype == np.float64, name
    a, b = build_system(narrow)
    assert a.dtype == b.dtype == np.float64


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
    # with the boundary terms removed only the 0.5 unary remains: x = 0.5 -> 1
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


def test_refine_accepts_a_zero_voxel_volume():
    out = refine(np.zeros((2, 0, 4, 4)), np.zeros((0, 4, 4)), 0.5, beta=100.0)
    assert out.labels.shape == out.x.shape == (0, 4, 4)
    assert (out.candidates, out.edges, out.dirichlet, out.iterations) == (0, 0, 0, 0)


def graph_with(**overrides):
    """A two-candidate graph with one edge and one Dirichlet term."""
    fields = dict(
        dims=(3, 1, 1),
        candidates=np.arange(2),
        edges=np.array([[0, 1]]),
        edge_weights=np.array([0.5]),
        unary_fg=np.array([[0.9], [0.4]]),
        unary_bg=np.array([[0.1], [0.6]]),
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
    with pytest.raises(ValueError, match="unary terms must be finite"):
        graph_with(unary_fg=np.array([[0.9], [bad]]))
    with pytest.raises(ValueError, match="unary terms must be finite"):
        graph_with(unary_bg=np.array([[bad], [0.6]]))


@st.composite
def partitions(draw):
    """A lattice of extent 1-5 per axis split at random into confident
    voxels with hard labels and candidates, plus intensities and priors."""
    dims = draw(st.tuples(*[st.integers(1, 5)] * 3))
    is_cand = draw(hnp.arrays(bool, dims)).reshape(-1)
    conf = np.flatnonzero(~is_cand)
    labels = draw(hnp.arrays(np.uint8, len(conf), elements=st.integers(0, 1)))
    sel = SelectionResult(dims=dims, confident_idx=conf, confident_labels=labels,
                          candidate_idx=np.flatnonzero(is_cand))
    unit = st.floats(0.0, 1.0)
    intensity = draw(hnp.arrays(np.float64, dims, elements=unit))
    maps = draw(hnp.arrays(np.float64, (draw(st.integers(1, 3)),) + dims, elements=unit))
    return sel, maps, intensity


@settings(max_examples=80, deadline=None)
@given(case=partitions(), beta=st.floats(0.0, 50.0), include_dirichlet=st.booleans())
def test_assemble_matches_neighbor_loop(case, beta, include_dirichlet):
    sel, maps, intensity = case
    graph = assemble(sel, maps, intensity, beta, include_dirichlet=include_dirichlet)
    lo, hi = intensity.min(), intensity.max()
    data = (intensity - lo) / (hi - lo) if hi > lo else np.zeros_like(intensity)
    want_edges, want_dirichlet = assemble_oracle(sel, data, beta, include_dirichlet)
    got_edges = sorted(zip(*graph.edges.T.tolist(), graph.edge_weights.tolist()))
    got_dirichlet = sorted(zip(graph.dirichlet_idx.tolist(),
                               graph.dirichlet_labels.tolist(),
                               graph.dirichlet_weights.tolist()))
    for got, want in ((got_edges, want_edges), (got_dirichlet, want_dirichlet)):
        assert [g[:2] for g in got] == [w[:2] for w in want]
        assert np.allclose([g[2] for g in got], [w[2] for w in want], rtol=1e-12, atol=0)
    assert np.array_equal(graph.candidates, sel.candidate_idx)
    assert np.array_equal(graph.unary_fg, maps.reshape(len(maps), -1)[:, sel.candidate_idx].T)
