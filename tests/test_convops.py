import numpy as np
import pytest

from voxwalk import convops
from voxwalk.convops import (
    conv2d_backward,
    conv2d_forward,
    conv3d_backward,
    conv3d_forward,
    pool3d_backward,
    pool3d_forward,
    upsample,
    upsample_backward,
)
from voxwalk.network import Conv3DLayer

from oracles import conv3d_oracle, numeric_grad, pool_oracle, upsample_oracle


def conv3d(x, w, b, stride=(1, 1, 1), padding="valid"):
    return conv3d_forward(x, w, b, stride, padding)[0]


def pool3d(x, window):
    return pool3d_forward(x, window)[0]


def test_conv3d_identity_kernel():
    x = np.ones((1, 3, 3, 3))
    y = conv3d(x, np.ones((1, 1, 1, 1, 1)), np.zeros(1))
    assert np.array_equal(y, x)


def test_conv3d_full_window_sums_to_27():
    x = np.ones((1, 3, 3, 3))
    w = np.ones((1, 1, 3, 3, 3))
    b = np.zeros(1)
    expected = conv3d_oracle(x, w, b)
    assert expected.shape == (1, 1, 1, 1) and expected[0, 0, 0, 0] == 27.0
    y = conv3d(x, w, b)
    assert np.allclose(y, expected, rtol=1e-12, atol=0)


def test_conv3d_relu_clamps_negative_bias():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 4, 4, 4))
    layer = Conv3DLayer(2, 3, 3, 3, rng, activation="relu")
    layer.weights[...] = 0.0
    layer.bias[...] = -1.0
    y, _ = layer.forward(x)
    assert y.shape == (3, 4, 4, 4)
    assert np.array_equal(y, np.zeros_like(y))


def test_conv3d_shape_mismatch_diagnostic():
    x = np.zeros((2, 4, 4, 4))
    with pytest.raises(ValueError, match=r"2.*\(1, 3, 1, 1, 1\)"):
        conv3d(x, np.zeros((1, 3, 1, 1, 1)), np.zeros(1))


def test_conv3d_kernel_too_large_rejected():
    x = np.zeros((1, 2, 2, 2))
    with pytest.raises(ValueError, match="fit"):
        conv3d(x, np.zeros((1, 1, 3, 3, 3)), np.zeros(1), padding="valid")


def test_conv3d_bias_length_checked():
    # a length-1 bias used to broadcast silently over every output map
    for bias in (np.zeros(3), np.zeros(1), np.zeros((2, 1)), np.float64(0.0)):
        with pytest.raises(ValueError, match="output feature map"):
            conv3d_forward(np.zeros((1, 2, 2, 2)), np.zeros((2, 1, 1, 1, 1)), bias)


@pytest.mark.parametrize("stride", [(-1, 1, 1), (1, 0, 1), 0])
def test_conv3d_stride_must_be_positive(stride):
    # a negative stride used to return a wrong output of full shape
    with pytest.raises(ValueError, match="positive"):
        conv3d_forward(np.zeros((1, 4, 4, 4)), np.zeros((1, 1, 2, 2, 2)), np.zeros(1), stride)


def test_conv3d_stride_needs_three_entries():
    with pytest.raises(ValueError, match="3 stride entries"):
        conv3d_forward(np.zeros((1, 4, 4, 4)), np.zeros((1, 1, 2, 2, 2)), np.zeros(1), (1, 1))


def test_conv3d_weights_rank_checked():
    with pytest.raises(ValueError, match="5-D"):
        conv3d_forward(np.zeros((1, 4, 4, 4)), np.zeros((1, 1, 2, 2)), np.zeros(1))


@pytest.mark.parametrize("padding", ["valid", "same"])
def test_conv3d_matches_loop_oracle(padding):
    rng = np.random.default_rng(42)
    for _ in range(25):
        m = rng.integers(1, 4)
        n = rng.integers(1, 4)
        dd, hh, ww = rng.integers(1, 5, size=3)
        kd = rng.integers(1, dd + 1)
        kh = rng.integers(1, hh + 1)
        kw = rng.integers(1, ww + 1)
        x = rng.normal(size=(m, dd, hh, ww))
        w = rng.normal(size=(n, m, kd, kh, kw))
        b = rng.normal(size=n)
        got = conv3d(x, w, b, padding=padding)
        want = conv3d_oracle(x, w, b, padding=padding)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_conv3d_stride_subsamples_unit_stride_output():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 6, 6, 6))
    w = rng.normal(size=(3, 2, 2, 2, 2))
    b = rng.normal(size=3)
    full = conv3d_oracle(x, w, b)
    got = conv3d(x, w, b, stride=(2, 1, 3))
    assert np.allclose(got, full[:, ::2, ::1, ::3], rtol=1e-12)


def test_conv3d_same_padding_preserves_extents():
    x = np.zeros((2, 4, 6, 5))
    y = conv3d(x, np.zeros((3, 2, 3, 3, 3)), np.zeros(3), padding="same")
    assert y.shape == (3, 4, 6, 5)


def test_unit_kernel_same_padding_reuses_input():
    # 1x1x1 kernels need no pad, so the padded input is the input, not a copy
    x = np.random.default_rng(30).normal(size=(2, 3, 4, 5))
    y, xp, pads = conv3d_forward(x, np.ones((1, 2, 1, 1, 1)), None, padding="same")
    assert xp is x and pads == [(0, 0)] * 4
    assert np.allclose(y[0], x.sum(axis=0), rtol=1e-12)
    assert conv3d_forward(x, np.ones((1, 2, 3, 1, 1)), None, padding="same")[1].shape == (2, 5, 4, 5)


def test_conv3d_backward_matches_numeric():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 4, 5, 4))
    w = rng.normal(size=(3, 2, 2, 3, 2))
    b = rng.normal(size=3)
    r = rng.normal(size=(3, 4, 5, 4))  # projection making the output scalar

    def run():
        y, _, _ = conv3d_forward(x, w, b, padding="same")
        return float((y * r).sum())

    y, xp, pads = conv3d_forward(x, w, b, padding="same")
    dx, dw, db = conv3d_backward(r, xp, w, (1, 1, 1), pads)
    assert np.allclose(dx, numeric_grad(run, x), atol=1e-7)
    assert np.allclose(dw, numeric_grad(run, w), atol=1e-7)
    assert np.allclose(db, numeric_grad(run, b), atol=1e-7)


@pytest.fixture
def small_slabs(monkeypatch):
    # a few hundred bytes per im2col buffer: every conv below spans several slabs
    monkeypatch.setattr(convops, "_SLAB_BYTES", 300)


@pytest.mark.parametrize("padding", ["valid", "same"])
def test_conv3d_strided_multi_slab_matches_loop_oracle(small_slabs, padding):
    rng = np.random.default_rng(23)
    x = rng.normal(size=(2, 7, 6, 8))
    w = rng.normal(size=(3, 2, 2, 3, 2))
    b = rng.normal(size=3)
    for stride in ((1, 1, 1), (2, 1, 3)):
        full = conv3d_oracle(x, w, b, padding=padding)
        got = conv3d(x, w, b, stride=stride, padding=padding)
        assert got.shape[1] > 2  # more output planes than fit in one slab
        assert np.allclose(got, full[:, ::stride[0], ::stride[1], ::stride[2]], rtol=1e-12)


@pytest.mark.parametrize("padding", ["valid", "same"])
def test_conv3d_strided_backward_matches_numeric(small_slabs, padding):
    rng = np.random.default_rng(29)
    x = rng.normal(size=(2, 7, 5, 7))
    w = rng.normal(size=(3, 2, 3, 2, 2))
    b = rng.normal(size=3)
    stride = (2, 1, 3)
    y, xp, pads = conv3d_forward(x, w, b, stride, padding)
    r = rng.normal(size=y.shape)

    def run():
        y, _, _ = conv3d_forward(x, w, b, stride, padding)
        return float((y * r).sum())

    dx, dw, db = conv3d_backward(r, xp, w, stride, pads)
    assert dx.shape == x.shape and dw.shape == w.shape and db.shape == b.shape
    assert np.allclose(dx, numeric_grad(run, x), atol=1e-7)
    assert np.allclose(dw, numeric_grad(run, w), atol=1e-7)
    assert np.allclose(db, numeric_grad(run, b), atol=1e-7)


def test_conv_slab_size_does_not_change_results(monkeypatch):
    rng = np.random.default_rng(37)
    x = rng.normal(size=(3, 6, 5, 4))
    w = rng.normal(size=(2, 3, 3, 3, 3))
    g = rng.normal(size=(2, 6, 5, 4))
    xh = rng.normal(size=(3, 5, 4))
    wh = rng.normal(size=(2, 3, 3, 3))
    results = []
    for slab_bytes in (1, 8 << 20):
        monkeypatch.setattr(convops, "_SLAB_BYTES", slab_bytes)
        y, xp, pads = conv3d_forward(x, w, None, padding="same")
        yh, hp, hpads = conv2d_forward(xh, wh)
        results.append((y, *conv3d_backward(g, xp, w, (1, 1, 1), pads),
                        yh, *conv2d_backward(yh, hp, wh, hpads)))
    for a, b in zip(*results):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_conv2d_matches_conv3d_on_singleton_axis():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 5, 4))
    w = rng.normal(size=(3, 2, 3, 3))
    got, _, _ = conv2d_forward(x, w)
    want = conv3d_oracle(x[:, None], w[:, :, None], np.zeros(3), padding="same")[:, 0]
    assert np.allclose(got, want, rtol=1e-12)


def test_conv2d_backward_matches_numeric():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 4, 4))
    w = rng.normal(size=(3, 2, 3, 3))
    r = rng.normal(size=(3, 4, 4))

    def run():
        y, _, _ = conv2d_forward(x, w)
        return float((y * r).sum())

    _, xp, pads = conv2d_forward(x, w)
    dx, dw = conv2d_backward(r, xp, w, pads)
    assert np.allclose(dx, numeric_grad(run, x), atol=1e-7)
    assert np.allclose(dw, numeric_grad(run, w), atol=1e-7)


def test_pool_constant_block():
    x = np.full((1, 2, 2, 2), 5.0)
    y = pool3d(x, (1, 2, 2, 2))
    assert y.shape == (1, 1, 1, 1) and y[0, 0, 0, 0] == 5.0


def test_pool_max_example():
    x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
    assert pool3d(x, (1, 1, 2, 2))[0, 0, 0, 0] == 4.0


def test_pool_rejects_nondivisible_extent():
    with pytest.raises(ValueError, match="divisible"):
        pool3d(np.zeros((1, 3, 4, 4)), (1, 2, 2, 2))


def test_pool_keeps_map_count():
    y = pool3d(np.zeros((5, 4, 4, 4)), (1, 2, 2, 2))
    assert y.shape == (5, 2, 2, 2)


def test_pool_matches_loop_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        dims = tuple(rng.integers(1, 5) * rng.integers(1, 3) for _ in range(4))
        window = tuple(rng.choice([w for w in (1, 2, 4) if dims[i] % w == 0])
                       for i in range(4))
        x = rng.normal(size=dims)
        got = pool3d(x, window)
        assert np.allclose(got, pool_oracle(x, window), rtol=1e-12)


def test_pool_backward_matches_numeric():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(2, 4, 4, 2))
    r = rng.normal(size=(2, 2, 2, 2))

    def run():
        y, _ = pool3d_forward(x, (1, 2, 2, 1))
        return float((y * r).sum())

    _, cache = pool3d_forward(x, (1, 2, 2, 1))
    dx = pool3d_backward(r, cache)
    assert np.allclose(dx, numeric_grad(run, x), atol=1e-7)


def test_upsample_replicates_value():
    y = upsample(np.full((1, 1, 1, 1), 7.0), (1, 1, 2, 2))
    assert y.shape == (1, 1, 2, 2)
    assert np.array_equal(y, np.full((1, 1, 2, 2), 7.0))


def test_upsample_matches_index_map_oracle():
    x = np.array([1.0, 2.0]).reshape(1, 1, 2, 1)
    y = upsample(x, (1, 2, 1, 1))
    assert y.shape == (1, 2, 2, 1)
    assert np.array_equal(y.reshape(-1), np.array([1.0, 2.0, 1.0, 2.0]))
    rng = np.random.default_rng(17)
    for _ in range(10):
        dims = tuple(rng.integers(1, 4, size=4))
        f = tuple(rng.integers(1, 4, size=4))
        x = rng.normal(size=dims)
        assert np.array_equal(upsample(x, f), upsample_oracle(x, f))


def test_upsample_backward_matches_numeric():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(2, 2, 3, 2))
    f = (1, 2, 1, 3)
    r = rng.normal(size=(2, 4, 3, 6))

    def run():
        return float((upsample(x, f) * r).sum())

    dx = upsample_backward(r, f)
    assert np.allclose(dx, numeric_grad(run, x), atol=1e-7)


def test_window_and_factor_rank_checked():
    with pytest.raises(ValueError, match="per tensor axis"):
        pool3d(np.zeros((2, 2, 2, 2)), (2, 2))
    with pytest.raises(ValueError, match="per tensor axis"):
        upsample(np.zeros((2, 2)), (1, 2, 2))
