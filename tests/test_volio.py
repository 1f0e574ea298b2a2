import json

import numpy as np
import pytest

from voxwalk.volio import (
    SYNTH_MIDPOINT,
    read_volume,
    sidecar_path,
    synth,
    write_volume,
)


def test_roundtrip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.normal(size=(4, 5, 6)).astype(np.float32).astype(np.float64)
    path = tmp_path / "vol.raw"
    write_volume(path, data, "intensity")
    back, meta = read_volume(path)
    assert np.array_equal(back, data)
    assert meta["dims"] == [4, 5, 6]
    write_volume(tmp_path / "again.raw", back, "intensity")
    assert (tmp_path / "vol.raw").read_bytes() == (tmp_path / "again.raw").read_bytes()


def test_sidecar_contents(tmp_path):
    path = tmp_path / "p.raw"
    write_volume(path, np.full((2, 2, 2), 0.25), "prob")
    meta = json.loads((tmp_path / sidecar_path("p.raw")).read_text())
    assert meta == {"dims": [2, 2, 2], "dtype": "f32", "order": "row-major",
                    "kind": "prob"}


def test_payload_length_validated(tmp_path):
    path = tmp_path / "v.raw"
    write_volume(path, np.zeros((2, 2, 2)), "intensity")
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ValueError, match="bytes"):
        read_volume(path)


@pytest.mark.parametrize("sidecar", ['{"dtype": "f32"}', "[1, 2]", '{"dims": 8}', "{"])
def test_malformed_sidecar_names_path(tmp_path, sidecar):
    path = tmp_path / "v.raw"
    write_volume(path, np.zeros((2, 2, 2)), "intensity")
    (tmp_path / sidecar_path("v.raw")).write_text(sidecar)
    with pytest.raises(ValueError, match="malformed sidecar") as info:
        read_volume(path)
    assert str(path) in str(info.value)


def test_kind_constraints_enforced(tmp_path):
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        write_volume(tmp_path / "bad.raw", np.full((2, 2, 2), 1.5), "prob")
    with pytest.raises(ValueError, match="only 0 and 1"):
        write_volume(tmp_path / "bad.raw", np.full((2, 2, 2), 0.5), "label")
    with pytest.raises(ValueError, match="kind"):
        write_volume(tmp_path / "bad.raw", np.zeros((2, 2, 2)), "mystery")


def test_expected_kind_checked(tmp_path):
    path = tmp_path / "v.raw"
    write_volume(path, np.zeros((2, 2, 2)), "label")
    read_volume(path, expect_kind="label")
    with pytest.raises(ValueError, match="expected"):
        read_volume(path, expect_kind="prob")


def test_non_3d_rejected(tmp_path):
    with pytest.raises(ValueError, match="3-D"):
        write_volume(tmp_path / "x.raw", np.zeros((2, 2)), "intensity")


def test_synth_threshold_recovers_truth_without_noise():
    intensity, label = synth(7, (12, 12, 12), n_blobs=3, noise_sigma=0.0)
    assert np.array_equal((intensity > SYNTH_MIDPOINT).astype(np.uint8), label)


def test_synth_deterministic_per_seed():
    a_i, a_l = synth(42, (10, 10, 10), n_blobs=2, noise_sigma=0.1)
    b_i, b_l = synth(42, (10, 10, 10), n_blobs=2, noise_sigma=0.1)
    assert np.array_equal(a_i, b_i)
    assert np.array_equal(a_l, b_l)
    c_i, _ = synth(43, (10, 10, 10), n_blobs=2, noise_sigma=0.1)
    assert not np.array_equal(a_i, c_i)


def test_synth_zero_blobs_all_background():
    intensity, label = synth(0, (8, 8, 8), n_blobs=0, noise_sigma=0.0)
    assert label.sum() == 0
    assert np.all(intensity == intensity.reshape(-1)[0])


def test_synth_rejects_degenerate_dims():
    with pytest.raises(ValueError, match=">= 8"):
        synth(0, (4, 8, 8))
    with pytest.raises(ValueError, match="n_blobs"):
        synth(0, (8, 8, 8), n_blobs=-1)


def test_synth_labels_nontrivial():
    _, label = synth(1, (16, 16, 16), n_blobs=2)
    frac = label.mean()
    assert 0.01 < frac < 0.6


@pytest.mark.parametrize("kind", ["prob", "intensity"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_rejected_at_write(tmp_path, kind, bad):
    data = np.full((2, 2, 2), 0.5)
    data[1, 0, 1] = bad
    path = tmp_path / "bad.raw"
    with pytest.raises(ValueError, match="non-finite") as info:
        write_volume(path, data, kind)
    assert str(path) in str(info.value)
    assert not path.exists()


@pytest.mark.parametrize("kind", ["prob", "intensity"])
def test_non_finite_values_rejected_at_read(tmp_path, kind):
    path = tmp_path / "v.raw"
    write_volume(path, np.full((2, 2, 2), 0.5), kind)
    payload = np.fromfile(path, dtype="<f4")
    payload[3] = np.nan
    payload.tofile(path)
    with pytest.raises(ValueError, match="non-finite") as info:
        read_volume(path)
    assert str(path) in str(info.value)
