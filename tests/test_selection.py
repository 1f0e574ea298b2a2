import itertools
import math

import numpy as np
import pytest

from voxwalk.selection import (
    SelectionResult,
    as_prob_stack,
    confidence,
    consistency,
    node_energies,
    select,
)

from oracles import node_energy_oracle


def test_confidence_examples():
    assert confidence(0.5) == 0.0
    assert confidence(1.0) == 1.0
    assert confidence(0.0) == 1.0
    assert math.isclose(confidence(0.9), 0.64, rel_tol=1e-12)


def test_confidence_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        confidence(1.5)
    with pytest.raises(ValueError):
        confidence(-0.1)


def test_consistency_examples():
    assert math.isclose(consistency([0.3, 0.7], [0.3, 0.7]), 1.0, rel_tol=1e-12)
    assert abs(consistency([1.0, 0.0], [0.0, 1.0])) < 1e-15
    want = 0.5 / (math.sqrt(0.68) * math.sqrt(0.5))
    assert math.isclose(consistency([0.8, 0.2], [0.5, 0.5]), want, rel_tol=1e-12)
    assert math.isclose(want, 0.85749, rel_tol=1e-5)


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
    for k in (1, 2, 3):
        maps = rng.random((k, 2, 3, 4))
        energies = node_energies(maps)
        for flat in range(maps[0].size):
            want = node_energy_oracle(maps, flat)
            assert math.isclose(energies.reshape(-1)[flat], want, rel_tol=1e-10)


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


def test_probability_range_validated():
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        select(np.full((1, 2, 2, 2), 1.4), 0.5)


def test_nan_probability_rejected():
    # NaN fails every comparison, so a range check alone lets it through
    maps = np.full((2, 2, 2, 2), 0.5)
    maps[1, 0, 1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        as_prob_stack(maps)
    with pytest.raises(ValueError, match="finite"):
        select(maps, 0.5)
