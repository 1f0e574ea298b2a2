import hashlib
import itertools
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from voxwalk import selection, walker
from voxwalk.selection import (
    SelectionResult,
    as_prob_stack,
    check_probs,
    node_energies,
    select,
)

from oracles import node_energy_oracle


def test_node_energy_single_map_all_foreground():
    maps = np.ones((1, 3, 3, 3))
    center = (1, 1, 1)
    assert math.isclose(node_energies(maps)[center], 7.0, rel_tol=1e-12)


def test_node_energy_two_uniform_maps():
    maps = np.full((2, 3, 3, 3), 0.5)
    assert math.isclose(node_energies(maps)[1, 1, 1], 14.0, rel_tol=1e-12)


def test_corner_voxel_has_three_lattice_neighbors():
    maps = np.ones((1, 3, 3, 3))
    # corner: confidence 1 + 3 in-bounds neighbors at cosine 1
    assert math.isclose(node_energies(maps)[0, 0, 0], 4.0, rel_tol=1e-12)


def test_node_energies_match_loop_oracle():
    rng = np.random.default_rng(0)
    for k in (1, 2, 3, 5):
        maps = rng.random((k, 2, 3, 4))
        energies = node_energies(maps)
        for flat in range(maps[0].size):
            want = node_energy_oracle(maps, flat)
            assert math.isclose(energies.reshape(-1)[flat], want, rel_tol=1e-10)


def test_prob_stack_keeps_float32_and_promotes_other_input():
    f32 = np.full((2, 2, 3, 2), 0.25, dtype=np.float32)
    f64 = f32.astype(np.float64)
    for maps in (f32, f64):
        stack = as_prob_stack(maps)
        assert stack.dtype == maps.dtype and np.shares_memory(stack, maps)
    assert as_prob_stack(list(f32)).dtype == np.float32
    for other in (f32.astype(np.float16), f64.astype(np.int64), f64 > 0, f64.tolist()):
        assert as_prob_stack(other).dtype == np.float64


@pytest.mark.parametrize("shape", [(2, 3, 4), (3, 4), (1, 1, 2, 3, 4), (0, 2, 3, 4)],
                         ids=["one-map", "2-D", "5-D", "K=0"])
def test_prob_stack_takes_only_k_maps(shape):
    """Maps come as a [K,D,H,W] stack with K >= 1; one map is a [1,D,H,W] stack."""
    maps = np.full(shape, 0.25)
    intensity = np.zeros((2, 3, 4))
    for call in (lambda: as_prob_stack(maps), lambda: select(maps, 0.5),
                 lambda: walker.refine(maps, intensity, 0.5, beta=100.0)):
        with pytest.raises(ValueError, match=r"\[K,D,H,W\]"):
            call()


def test_float32_node_energies_match_loop_oracle():
    # float32 eps is 1.2e-7; a few dozen rounded terms stay well inside 1e-5
    rng = np.random.default_rng(11)
    for k in (1, 2, 3, 5):
        maps = rng.random((k, 2, 3, 4), dtype=np.float32)
        energies = node_energies(maps)
        assert energies.dtype == np.float32
        wide = maps.astype(np.float64)
        for flat in range(maps[0].size):
            want = node_energy_oracle(wide, flat)
            assert math.isclose(energies.reshape(-1)[flat], want, rel_tol=1e-5)


def test_energy_symmetric_in_network_order():
    rng = np.random.default_rng(1)
    maps = rng.random((3, 3, 3, 3))
    base = node_energies(maps)
    perm = node_energies(maps[[2, 0, 1]])
    assert np.allclose(base, perm, rtol=1e-12)


def test_select_theta_extremes():
    rng = np.random.default_rng(2)
    maps = rng.random((2, 2, 3, 2))
    empty = select(maps, 0.0)
    assert len(empty.confident_idx) == 0
    assert len(empty.candidate_idx) == maps[0].size
    full = select(maps, 1.0)
    assert len(full.candidate_idx) == 0
    assert len(full.confident_idx) == maps[0].size


def test_select_rejects_bad_theta():
    with pytest.raises(ValueError, match="theta"):
        select(np.full((1, 2, 2, 2), 0.5), 1.2)


def test_select_confident_count_is_floor():
    rng = np.random.default_rng(3)
    maps = rng.random((2, 2, 2, 3))
    for theta in (0.25, 0.4, 0.5, 0.75, 0.9):
        sel = select(maps, theta)
        assert len(sel.confident_idx) == int(math.floor(12 * theta))


@pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
def test_select_matches_exhaustive_subset_oracle(theta):
    """The confident set must maximize the summed per-node energy over all
    subsets of the required size (objective is separable per node)."""
    rng = np.random.default_rng(4)
    maps = rng.random((2, 2, 2, 3))
    energies = node_energies(maps).reshape(-1)
    n_conf = int(math.floor(energies.size * theta))
    best_val = -np.inf
    for subset in itertools.combinations(range(energies.size), n_conf):
        val = energies[list(subset)].sum()
        if val > best_val:
            best_val = val
    sel = select(maps, theta)
    got_val = energies[sel.confident_idx].sum()
    assert math.isclose(got_val, best_val, rel_tol=1e-12)


def test_select_monotone_in_theta():
    rng = np.random.default_rng(5)
    maps = rng.random((2, 4, 3, 3))
    prev = set()
    for theta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        cur = set(select(maps, theta).confident_idx.tolist())
        assert prev <= cur
        prev = cur


def test_uniform_maps_tie_break_lexicographic():
    # every voxel of a 2x2x2 volume is a corner, so uniform maps give exactly
    # equal energies and ties resolve to the lowest voxel indices
    maps = np.full((2, 2, 2, 2), 0.3)
    energies = node_energies(maps).reshape(-1)
    assert np.all(energies == energies[0])
    sel = select(maps, 0.5)
    assert np.array_equal(sel.confident_idx, np.arange(4))


def test_confident_labels_threshold_mean_probability():
    maps = np.stack([
        np.full((2, 2, 2), 0.9),
        np.full((2, 2, 2), 0.2),
    ])  # mean 0.55 -> label 1
    sel = select(maps, 1.0)
    assert np.all(sel.confident_labels == 1)
    maps[0] = 0.3  # mean 0.25 -> label 0
    sel = select(maps, 1.0)
    assert np.all(sel.confident_labels == 0)


def test_selection_partition_invariant():
    rng = np.random.default_rng(6)
    maps = rng.random((2, 3, 3, 3))
    sel = select(maps, 0.6)
    together = np.sort(np.concatenate([sel.confident_idx, sel.candidate_idx]))
    assert np.array_equal(together, np.arange(27))
    assert len(np.intersect1d(sel.confident_idx, sel.candidate_idx)) == 0


def test_selection_result_is_built_from_one_state_per_voxel():
    state = np.array([1, -1, 0, 0, -1, 1], dtype=np.int8)
    sel = SelectionResult(dims=(1, 2, 3), state=state)
    assert np.array_equal(sel.candidate_idx, np.flatnonzero(state < 0))
    assert np.array_equal(sel.confident_idx, [0, 2, 3, 5])
    assert np.array_equal(sel.confident_labels, [1, 0, 0, 1])
    for bad in (state[:5], np.append(state, 0), state.reshape(2, 3)):
        with pytest.raises(ValueError, match="one entry per voxel"):
            SelectionResult(dims=(1, 2, 3), state=bad)


def test_probability_range_validated():
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        select(np.full((1, 2, 2, 2), 1.4), 0.5)


def test_nan_probability_rejected():
    # NaN fails every comparison, so a range check alone lets it through
    maps = np.full((2, 2, 2, 2), 0.5)
    maps[1, 0, 1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        check_probs(maps)
    with pytest.raises(ValueError, match="finite"):
        select(maps, 0.5)


@pytest.mark.parametrize("dims", [(1, 3, 4), (2, 3, 4), (3, 2, 5), (7, 3, 2),
                                  (0, 3, 4), (3, 0, 4), (2, 3, 0),
                                  (3, 1, 5), (3, 4, 1), (2, 1, 1)])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_energies_do_not_depend_on_the_slab_size(monkeypatch, dtype, k, dims):
    """A 1-voxel slab holds one depth plane, so every plane border is crossed
    through a halo; two planes leave a shorter last slab at odd depths, and
    a slab larger than the volume scores it in one pass.  In an H=1 or W=1
    plane every in-plane edge of the flat slab leads out of a plane or a
    row; zero extents give empty energies.  A transposed view of the same
    maps, which is not contiguous, gives the same bytes."""
    rng = np.random.default_rng(41)
    maps = rng.random((k,) + dims).astype(dtype)
    strided = np.ascontiguousarray(maps.transpose(0, 3, 2, 1)).transpose(0, 3, 2, 1)
    intensity = rng.random(dims)
    plane = math.prod(dims[1:])
    energies, fused = [], []
    for slab in (1, 2 * plane, math.prod(dims) + 1):
        monkeypatch.setattr(selection, "_SLAB_VOXELS", slab)
        energies.append(node_energies(maps))
        assert node_energies(strided).tobytes() == energies[-1].tobytes()
        out = walker.refine(maps, intensity, 0.5, beta=100.0)
        fused.append(out.labels.tobytes() + out.x.tobytes())
    assert energies[0].dtype == dtype and energies[0].shape == dims
    assert energies[0].tobytes() == energies[1].tobytes() == energies[2].tobytes()
    assert fused[0] == fused[1] == fused[2]


@pytest.mark.parametrize("planes", [None, 1, 3], ids=["default-slab", "1-plane", "3-plane"])
@pytest.mark.parametrize("dtype, digest", [
    (np.float32, "417abe00156ea8334371d7d81f285b0014ba7d9d96da9d4d278655ed9687e03b"),
    (np.float64, "18a69e89e0f0046a5ae8707aa072bf0b3796c46c645fc86057fbea7b06916045"),
], ids=["float32", "float64"])
def test_energy_bytes_are_pinned(monkeypatch, dtype, digest, planes):
    """The energies of a seeded K=3 stack of odd extents keep the bytes of
    the per-slab pass with whole-array temporaries, which scored the halo
    planes in full: an in-plane edge kept across a row or plane border, or
    one add taken in another order, moves them.  Every 4th plane lies on
    {0, 0.5, 1}, where confidences and cosines reach +0 and 1."""
    rng = np.random.default_rng(2025)
    maps = rng.random((3, 19, 23, 37))
    maps[:, ::4] = np.round(2 * maps[:, ::4]) / 2
    if planes:
        monkeypatch.setattr(selection, "_SLAB_VOXELS", planes * 23 * 37)
    energy = node_energies(maps.astype(dtype))
    assert hashlib.sha256(energy.tobytes()).hexdigest() == digest


def test_node_energies_memory_is_set_by_the_slab(monkeypatch):
    """Beyond its output, node_energies holds six flat slab buffers per
    worker, four of which also span the two halo planes; no temporary grows
    with the volume, so at 1, 2 and 3 workers its peak is the same at depth
    16 and at depth 64.  The buffers are allocated before the workers
    start, so the peak does not hang on how their threads interleave."""
    rng = np.random.default_rng(44)
    h = w = 128
    itemsize = np.dtype(np.float32).itemsize
    for workers in (1, 2, 3):
        monkeypatch.setattr(selection, "_worker_count", lambda: workers)
        bound = workers * itemsize * (6 * selection._SLAB_VOXELS + 8 * h * w) + (1 << 16)
        extra = []
        for depth in (16, 64):
            maps = rng.random((2, depth, h, w), dtype=np.float32)
            tracemalloc.start()
            try:
                energy = node_energies(maps)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra.append(peak - energy.nbytes)
        assert max(extra) <= bound, (workers, extra, bound)
        assert abs(extra[1] - extra[0]) <= 1 << 12, (workers, extra)


def test_slab_runs_split_the_slabs_evenly(monkeypatch):
    """One contiguous run of whole slabs per worker, at most one per slab;
    the short last slab ends the last run."""
    monkeypatch.setattr(selection, "_SLAB_VOXELS", 2 * 12)
    for workers, depth, want in [
        (3, 7, (2, [(0, 2), (2, 4), (4, 7)])),
        (2, 7, (2, [(0, 4), (4, 7)])),
        (3, 4, (2, [(0, 2), (2, 4)])),
        (3, 1, (1, [(0, 1)])),
        (3, 0, (1, [(0, 0)])),
        (1, 9, (2, [(0, 9)])),
    ]:
        monkeypatch.setattr(selection, "_worker_count", lambda: workers)
        assert selection._slab_runs(depth, 12) == want, (workers, depth)


@pytest.mark.parametrize("cores, workers", [(6, 6), (None, 1)])
def test_worker_count_falls_back_to_the_core_count(monkeypatch, cores, workers):
    """Where the platform cannot tell the CPU affinity, the machine's core
    count is used, and one worker where that is unknown too."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert selection._worker_count() == workers


@pytest.mark.parametrize("dims, planes", [
    ((1, 5, 6), 1),    # depth 1: one slab, one worker at any count
    ((2, 5, 6), 1),    # two slabs, fewer than three workers
    ((7, 4, 5), 1),    # uneven runs of one-plane slabs
    ((9, 4, 5), 2),    # uneven runs with a short last slab
    ((6, 1, 5), 1),    # H = 1
    ((6, 4, 1), 2),    # W = 1
    ((5, 3, 4), 9),    # one slab holds the whole volume
], ids=["depth-1", "2-slabs", "1-plane-slabs", "short-last-slab", "H=1", "W=1", "one-slab"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_outputs_do_not_depend_on_the_worker_count(monkeypatch, dtype, dims, planes):
    """Energies, selection state and refine's labels and x keep their bytes
    at 1, 2 and 3 workers (more workers than this machine may have cores),
    also for a transposed, non-contiguous view of the maps; a short thread
    switch interval makes the workers interleave often."""
    rng = np.random.default_rng(45)
    maps = rng.random((3,) + dims).astype(dtype)
    maps[:, ::3] = np.round(2 * maps[:, ::3]) / 2  # ties at the cut and at the 0.5 label
    strided = np.ascontiguousarray(maps.transpose(0, 3, 2, 1)).transpose(0, 3, 2, 1)
    intensity = rng.random(dims)
    monkeypatch.setattr(selection, "_SLAB_VOXELS", planes * math.prod(dims[1:]))
    interval = sys.getswitchinterval()
    got = []
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 3):
            monkeypatch.setattr(selection, "_worker_count", lambda: workers)
            for stack in (maps, strided):
                out = walker.refine(stack, intensity, 0.5, beta=100.0)
                got.append((node_energies(stack).tobytes(), select(stack, 0.5).state.tobytes(),
                            out.labels.tobytes(), out.x.tobytes()))
    finally:
        sys.setswitchinterval(interval)
    assert all(g == got[0] for g in got)


@pytest.mark.parametrize("bad_plane", [0, 3])
def test_the_lowest_slab_error_is_raised_at_every_worker_count(monkeypatch, bad_plane):
    """An out-of-range probability in an early slab and a NaN in a late one:
    the early slab's error is raised, as in one pass over the slabs, also
    when a later worker meets the NaN first."""
    maps = np.full((2, 8, 3, 4), 0.5)
    maps[1, bad_plane, 1, 2] = 1.5
    maps[0, 7, 2, 0] = np.nan
    monkeypatch.setattr(selection, "_SLAB_VOXELS", 12)
    for workers in (1, 2, 3):
        monkeypatch.setattr(selection, "_worker_count", lambda: workers)
        for call in (lambda: node_energies(maps), lambda: select(maps, 0.5)):
            with pytest.raises(ValueError, match=r"must lie in \[0,1\]"):
                call()


@st.composite
def quantized_maps(draw):
    """K maps on a few probability levels, so energy ties straddle the cut."""
    k = draw(st.integers(1, 3))
    dims = draw(st.tuples(*[st.integers(1, 5)] * 3))
    levels = draw(st.integers(1, 4))
    q = draw(hnp.arrays(np.int64, (k,) + dims, elements=st.integers(0, levels)))
    return q / levels


@settings(max_examples=100, deadline=None)
@given(maps=quantized_maps(),
       theta=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_select_splits_stable_descending_order(maps, theta):
    sel = select(maps, theta)
    energy = node_energies(maps).reshape(-1)
    n_conf = int(math.floor(energy.size * theta))
    order = np.argsort(-energy, kind="stable")
    assert np.array_equal(sel.confident_idx, np.sort(order[:n_conf]))
    assert np.array_equal(sel.candidate_idx, np.sort(order[n_conf:]))
    assert sel.confident_idx.dtype == sel.candidate_idx.dtype == np.intp
    mean_p = maps.mean(axis=0).reshape(-1)
    assert np.array_equal(sel.confident_labels, mean_p[sel.confident_idx] >= 0.5)
    assert sel.confident_labels.dtype == np.uint8
    assert sel.state.dtype == np.int8
    assert np.array_equal(np.flatnonzero(sel.state == -1), sel.candidate_idx)
    assert np.array_equal(sel.confident_idx, np.flatnonzero(sel.state >= 0))
    assert np.array_equal(sel.confident_labels, sel.state[sel.confident_idx])
