import json
import os
import re
import stat
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from voxwalk.network import NetworkSpec, RandomConnectionNet, save_checkpoint
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


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=oct)
def test_written_files_get_mode_0666_less_the_umask(tmp_path, umask):
    """A volume, its sidecar and a checkpoint are created as open() creates
    a file, with mode 0o666 less the umask, and no temp file is left."""
    old = os.umask(umask)
    try:
        write_volume(tmp_path / "v.raw", np.zeros((2, 2, 2)), "intensity")
        save_checkpoint(tmp_path / "net.ckpt",
                        RandomConnectionNet(NetworkSpec("conv3d", 1, (2, 3))))
    finally:
        os.umask(old)
    names = ["net.ckpt", "v.raw", "v.raw.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == 0o666 & ~umask, name


def test_read_returns_the_payload_as_writable_native_float32(tmp_path):
    path = tmp_path / "v.raw"
    data = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 8
    write_volume(path, data, "intensity")
    back, _ = read_volume(path)
    assert back.dtype == np.float32 and back.dtype.isnative
    assert back.flags.writeable and back.flags.c_contiguous
    assert np.array_equal(back, data)
    back[0, 0, 0] = 5.0  # the caller owns the array


@pytest.mark.parametrize("value", [1e39, -1e39])
def test_value_beyond_float32_range_rejected_at_write(tmp_path, value):
    # finite in float64, inf once stored: the file could never be read back
    path = tmp_path / "big.raw"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite") as info:
            write_volume(path, np.full((2, 2, 2), value), "intensity")
    assert str(path) in str(info.value)
    assert not path.exists() and not (tmp_path / sidecar_path("big.raw")).exists()


def test_failed_write_removes_its_temp_file(tmp_path, monkeypatch):
    # the rename over the target fails: the temp file beside it goes too
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_volume(tmp_path / "v.raw", np.zeros((2, 2, 2)), "intensity")
    assert list(tmp_path.iterdir()) == []


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


def intensity_sidecar(dims):
    return json.dumps({"dims": dims, "dtype": "f32", "order": "row-major",
                       "kind": "intensity"})


def test_payload_length_of_huge_dims_does_not_wrap(tmp_path):
    """2**32 * 2**32 voxels wrap to 0 in int64; the empty payload must not pass."""
    path = tmp_path / "v.raw"
    path.write_bytes(b"")
    (tmp_path / sidecar_path("v.raw")).write_text(intensity_sidecar([2**32, 2**32, 1]))
    with pytest.raises(ValueError, match="bytes") as info:
        read_volume(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("sidecar", [
    '{"dtype": "f32"}', "[1, 2]", '{"dims": 8}', "{",
    # each of these dims fits the 32-byte payload, so only the dims check stops it
    intensity_sidecar([2, 4]),
    intensity_sidecar([2, 2, 2.5]),
    intensity_sidecar([-2, -2, 2]),
    intensity_sidecar([2, 2, 2, 1]),
    intensity_sidecar([True, 2, 4]),
    intensity_sidecar(["2", 2, 2]),
])
def test_malformed_sidecar_names_path(tmp_path, sidecar):
    path = tmp_path / "v.raw"
    write_volume(path, np.zeros((2, 2, 2)), "intensity")
    (tmp_path / sidecar_path("v.raw")).write_text(sidecar)
    with pytest.raises(ValueError, match="malformed sidecar") as info:
        read_volume(path)
    assert str(path) in str(info.value)


@st.composite
def volumes(draw):
    """A volume of any kind with values exactly representable in float32."""
    dims = draw(st.tuples(*[st.integers(0, 4)] * 3))
    kind = draw(st.sampled_from(["intensity", "prob", "label"]))
    elements = {
        "intensity": st.floats(width=32, allow_nan=False, allow_infinity=False),
        "prob": st.floats(0.0, 1.0, width=32),
        "label": st.sampled_from([0.0, 1.0]),
    }[kind]
    return draw(hnp.arrays(np.float32, dims, elements=elements)).astype(np.float64), kind


@settings(max_examples=60, deadline=None)
@given(volume=volumes())
def test_roundtrip_property(tmp_path_factory, volume):
    data, kind = volume
    path = tmp_path_factory.mktemp("roundtrip") / "v.raw"
    write_volume(path, data, kind)
    back, meta = read_volume(path, expect_kind=kind)
    assert back.dtype == np.float32 and back.shape == data.shape
    # bit-identical, -0.0 included
    assert back.tobytes() == data.astype(np.float32).tobytes()
    assert meta["dims"] == list(data.shape)


def test_kind_constraints_enforced(tmp_path):
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        write_volume(tmp_path / "bad.raw", np.full((2, 2, 2), 1.5), "prob")
    with pytest.raises(ValueError, match="only 0 and 1"):
        write_volume(tmp_path / "bad.raw", np.full((2, 2, 2), 0.5), "label")
    with pytest.raises(ValueError, match="kind"):
        write_volume(tmp_path / "bad.raw", np.zeros((2, 2, 2)), "mystery")


@pytest.mark.parametrize("value", [0.0, 1.0, -0.0, 0.5, np.nan, 2.0, np.inf, -np.inf])
def test_label_values_accepted_as_by_isin(tmp_path, value):
    """A label volume is accepted at write and at read exactly when np.isin
    finds each value in (0, 1): -0.0 is 0, and NaN, 0.5, 2 and +-inf are
    rejected."""
    data = np.zeros((2, 2, 2))
    data[1, 0, 1] = value
    path = tmp_path / "v.raw"
    accepted = bool(np.isin(np.float32(value), (0.0, 1.0)))
    if accepted:
        write_volume(path, data, "label")
        assert read_volume(path, expect_kind="label")[0].tobytes() == data.astype("<f4").tobytes()
    else:
        with pytest.raises(ValueError, match="only 0 and 1"):
            write_volume(path, data, "label")
        write_volume(path, np.zeros((2, 2, 2)), "label")
        payload = np.fromfile(path, dtype="<f4")
        payload[5] = value
        payload.tofile(path)
        with pytest.raises(ValueError, match="only 0 and 1"):
            read_volume(path)


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
    with pytest.raises(ValueError, match="seed"):
        synth(-1, (8, 8, 8))


@pytest.mark.parametrize("dims", [(8, 8, 8.7), (8.0, 8, 8), (True, 8, 8)])
def test_synth_rejects_non_integer_dims(dims):
    # int() used to truncate 8.7 to an 8^3 scene
    with pytest.raises(ValueError, match=re.escape(repr(dims))):
        synth(1, dims)
    assert synth(1, (np.int64(8), 8, 8))[1].shape == (8, 8, 8)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1])
def test_synth_rejects_negative_or_non_finite_noise_sigma(sigma):
    # NaN used to pass `noise_sigma > 0` as False and give a noiseless scene
    with pytest.raises(ValueError, match="noise_sigma must be finite and >= 0"):
        synth(0, (8, 8, 8), noise_sigma=sigma)


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
