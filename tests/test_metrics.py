import numpy as np
import pytest

from voxwalk.metrics import dice


def test_dice_identical_volumes():
    a = np.zeros((3, 3, 3), dtype=np.uint8)
    a[1, 1, 1] = 1
    assert dice(a, a.copy()) == 1.0


def test_dice_disjoint_volumes():
    a = np.zeros((2, 2, 2), dtype=np.uint8)
    b = np.zeros((2, 2, 2), dtype=np.uint8)
    a[0, 0, 0] = 1
    b[1, 1, 1] = 1
    assert dice(a, b) == 0.0


def test_dice_half_overlap():
    a = np.zeros(16, dtype=np.uint8)
    b = np.zeros(16, dtype=np.uint8)
    a[:4] = 1
    b[2:6] = 1
    # direct count: |A|=4, |B|=4, |A∩B|=2 -> 2*2/8
    assert dice(a.reshape(2, 2, 4), b.reshape(2, 2, 4)) == 0.5


def test_dice_both_empty_is_one():
    z = np.zeros((2, 2, 2), dtype=np.uint8)
    assert dice(z, z.copy()) == 1.0


def test_dice_dim_mismatch_rejected():
    with pytest.raises(ValueError, match="dims"):
        dice(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


def test_dice_symmetry_and_self_identity():
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = (rng.random((3, 4, 2)) > 0.5).astype(np.uint8)
        b = (rng.random((3, 4, 2)) > 0.5).astype(np.uint8)
        assert dice(a, b) == dice(b, a)
        assert dice(a, a) == 1.0


def test_dice_invariant_under_shared_permutation():
    rng = np.random.default_rng(1)
    a = (rng.random(24) > 0.4).astype(np.uint8)
    b = (rng.random(24) > 0.6).astype(np.uint8)
    perm = rng.permutation(24)
    assert dice(a.reshape(2, 3, 4), b.reshape(2, 3, 4)) == pytest.approx(
        dice(a[perm].reshape(2, 3, 4), b[perm].reshape(2, 3, 4)))

