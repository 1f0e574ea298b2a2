import hashlib
import re
import tracemalloc

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
from test_network import in_one_blas_thread


def conv3d(x, w, b):
    return conv3d_forward(x, w, b)[0]


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
    assert expected.shape == (1, 3, 3, 3) and expected[0, 1, 1, 1] == 27.0
    y = conv3d(x, w, b)
    assert np.allclose(y, expected, rtol=1e-12, atol=0)


def test_conv3d_relu_clamps_negative_bias():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 4, 4, 4))
    layer = Conv3DLayer(2, 3, 3, 3, rng, relu=True)
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
    # 'same' padding widens an empty axis to kd-1 planes, one short of the kernel
    x = np.zeros((1, 0, 2, 2))
    with pytest.raises(ValueError, match="fit"):
        conv3d(x, np.zeros((1, 1, 3, 3, 3)), np.zeros(1))


def test_conv3d_bias_length_checked():
    # a length-1 bias used to broadcast silently over every output map
    for bias in (np.zeros(3), np.zeros(1), np.zeros((2, 1)), np.float64(0.0)):
        with pytest.raises(ValueError, match="output feature map"):
            conv3d_forward(np.zeros((1, 2, 2, 2)), np.zeros((2, 1, 1, 1, 1)), bias)


def test_conv3d_weights_rank_checked():
    with pytest.raises(ValueError, match="5-D"):
        conv3d_forward(np.zeros((1, 4, 4, 4)), np.zeros((1, 1, 2, 2)), np.zeros(1))


def test_conv3d_matches_loop_oracle():
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
        got = conv3d(x, w, b)
        want = conv3d_oracle(x, w, b)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


def test_conv3d_same_padding_preserves_extents():
    x = np.zeros((2, 4, 6, 5))
    y = conv3d(x, np.zeros((3, 2, 3, 3, 3)), np.zeros(3))
    assert y.shape == (3, 4, 6, 5)


def test_unit_kernel_same_padding_reuses_input():
    # 1x1x1 kernels need no pad, so the padded input is the input, not a copy
    x = np.random.default_rng(30).normal(size=(2, 3, 4, 5))
    y, xp, pads = conv3d_forward(x, np.ones((1, 2, 1, 1, 1)), None)
    assert xp is x and pads == [(0, 0)] * 4
    assert np.allclose(y[0], x.sum(axis=0), rtol=1e-12)
    assert conv3d_forward(x, np.ones((1, 2, 3, 1, 1)), None)[1].shape == (2, 5, 4, 5)


def test_conv3d_backward_matches_numeric():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 4, 5, 4))
    w = rng.normal(size=(3, 2, 2, 3, 2))
    b = rng.normal(size=3)
    r = rng.normal(size=(3, 4, 5, 4))  # projection making the output scalar

    def run():
        y, _, _ = conv3d_forward(x, w, b)
        return float((y * r).sum())

    y, xp, pads = conv3d_forward(x, w, b)
    dx, dw, db = conv3d_backward(r, xp, w, (1, 1, 1), pads)
    assert np.allclose(dx, numeric_grad(run, x), atol=1e-7)
    assert np.allclose(dw, numeric_grad(run, w), atol=1e-7)
    assert np.allclose(db, numeric_grad(run, b), atol=1e-7)


def test_conv3d_multi_plane_matches_loop_oracle():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(2, 9, 6, 8))
    b = rng.normal(size=3)
    # depth 3: each output plane stays open across three input planes; depth
    # 5: the frame's head carries 4 open planes
    for w in (rng.normal(size=(3, 2, 2, 3, 2)), rng.normal(size=(3, 2, 3, 3, 2)),
              rng.normal(size=(3, 2, 5, 3, 2))):
        got = conv3d(x, w, b)
        assert np.allclose(got, conv3d_oracle(x, w, b), rtol=1e-12)


def test_conv3d_forward_reads_only_what_its_gemm_writes(monkeypatch):
    """The forward's frame keeps stale values from plane to plane: NaN in
    its last plane and in every other row block of the GEMM's output, put
    there before the GEMM, changes no output.  Only the frame's first kd-1
    planes, the output planes left open by the previous input plane, are
    kept."""
    planes = convops._planes
    rng = np.random.default_rng(24)
    x = rng.normal(size=(2, 7, 6, 8))
    w = rng.normal(size=(3, 2, 2, 3, 2))
    b = rng.normal(size=3)

    def poisoned(*args):
        for item in planes(*args):
            _, frame, _, _, _, shifts = item
            frame[-1] = np.nan  # depth tap 0's rows, past the GEMM's end too
            for _, block in shifts:
                block[...] = np.nan
            yield item

    monkeypatch.setattr(convops, "_planes", poisoned)
    assert np.allclose(conv3d(x, w, b), conv3d_oracle(x, w, b), rtol=1e-12)


def test_conv3d_multi_plane_backward_matches_numeric():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(2, 7, 5, 7))
    b = rng.normal(size=3)
    # depth 5: the frame's head carries 4 gradient planes
    for w in (rng.normal(size=(3, 2, 3, 2, 2)), rng.normal(size=(3, 2, 5, 2, 2))):
        y, xp, pads = conv3d_forward(x, w, b)
        r = rng.normal(size=y.shape)

        def run():
            y, _, _ = conv3d_forward(x, w, b)
            return float((y * r).sum())

        dx, dw, db = conv3d_backward(r, xp, w, (1, 1, 1), pads)
        assert dx.shape == x.shape and dw.shape == w.shape and db.shape == b.shape
        assert np.allclose(dx, numeric_grad(run, x), atol=1e-7)
        assert np.allclose(dw, numeric_grad(run, w), atol=1e-7)
        assert np.allclose(db, numeric_grad(run, b), atol=1e-7)


def forward_digests():
    """sha256 of the float32 outputs of conv3d_forward with a bias and
    depth-3 and depth-5 kernels over 8 planes, of a no-bias conv2d_forward
    and of a 1x1x1 projection."""
    rng = np.random.default_rng(53)
    x = rng.normal(size=(4, 8, 40, 48)).astype(np.float32)
    b = rng.normal(size=5).astype(np.float32)
    kernels = [rng.normal(size=(5, 4, kd, 3, 3)).astype(np.float32) for kd in (3, 5)]
    outs = [conv3d_forward(x, w, b)[0] for w in kernels]
    outs.append(conv2d_forward(x[:, 0], kernels[0][:, :, 0])[0])
    outs.append(conv3d_forward(x, rng.normal(size=(5, 4, 1, 1, 1)).astype(np.float32), b)[0])
    return [hashlib.sha256(y.tobytes()).hexdigest() for y in outs]


def test_conv_forward_bytes_are_pinned():
    # Pins the forward's summation order: each output voxel is its depth
    # taps' GEMM sums added in tap order, then the bias.  So the bytes do
    # not depend on how many input planes one GEMM multiplies; a kernel
    # that multiplied up to 4 (depth 3) and 2 (depth 5) planes per GEMM
    # here gave these digests too.
    assert in_one_blas_thread(forward_digests) == [
        "2838f53ff4e8054663de7deb4cd575b55cc2e967cc1bd9edbed6d132241e7c31",
        "941dd1a920343f489f452976d6ce9407fbf6c0464153c9d3ae0312c3d371bfc9",
        "07f1e63e7138c85a88ffb87601502107126619e7edb977e08c8eb16b7dfd5627",
        "f307b8c42cbb0d278b11247d05ee930d117d16fabb6f609163518e99ce63c243",
    ]


def test_conv3d_peak_memory_is_bounded():
    """Beyond its output and padded input (and the backward beyond the
    input gradient on the padded grid), a conv holds one input plane's
    buffers: m·kh·kw im2col rows and 2kd−1 planes of n maps on the padded
    grid.  A full-volume output, output sum or gradient on the padded grid
    breaks the bounds, for an in-plane kernel and for a 3x3x3 one."""
    rng = np.random.default_rng(41)
    for maps, kernel in ((1, (32, 1, 1, 3, 3)), (8, (8, 8, 3, 3, 3))):
        x = rng.normal(size=(maps, 32, 64, 64)).astype(np.float32)
        w = rng.normal(size=kernel).astype(np.float32)
        b = np.zeros(kernel[0], dtype=np.float32)
        tracemalloc.start()
        try:
            y, xp, pads = conv3d_forward(x, w, b)
            forward_peak = tracemalloc.get_traced_memory()[1]
            g = np.ones_like(y)
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            conv3d_backward(g, xp, w, (1, 1, 1), pads)
            backward_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        n, m, kd, kh, kw = kernel
        buffers = (m * kh * kw + (2 * kd - 1) * n) * xp[0, 0].nbytes + (1 << 20)  # slack
        assert forward_peak <= y.nbytes + xp.nbytes + buffers, kernel
        assert backward_peak <= xp.nbytes + buffers, kernel


def test_conv2d_matches_conv3d_on_singleton_axis():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 5, 4))
    w = rng.normal(size=(3, 2, 3, 3))
    got, _, _ = conv2d_forward(x, w)
    want = conv3d_oracle(x[:, None], w[:, :, None], np.zeros(3))[:, 0]
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


@pytest.mark.parametrize("window, dtype", [((1, 2, 2, 2), np.uint8),
                                           ((1, 1, 2, 2), np.uint8),
                                           ((1, 1, 16, 17), np.uint16)])
def test_pool_caches_the_smallest_unsigned_index(window, dtype):
    rng = np.random.default_rng(33)
    x = rng.normal(size=(2, 2, 32, 34))
    # each block's maximum at its last voxel, index 271 in a 16x17 window
    x[:, window[1] - 1::window[1], window[2] - 1::window[2], window[3] - 1::window[3]] = 10.0
    y, cache = pool3d_forward(x, window)
    assert cache[-1].dtype == dtype
    dx = pool3d_backward(np.ones_like(y), cache)
    assert np.array_equal(dx, (x == 10.0).astype(float))


def test_pool_routes_through_argmax_voxel_with_nan_and_signed_zeros():
    """The pooled value and its cached index are argmax's voxel: a window's
    first NaN, else its first maximum, so of equal zeros the first one's
    sign; the gradient goes to that voxel and every other voxel gets +0."""
    rng = np.random.default_rng(43)
    x = rng.normal(size=(2, 4, 6, 6))
    x *= x > 0  # as after a ReLU: -0.0 where x was negative
    x[0, 2:4, 0:2, 0:2] = -0.0
    x[0, 2, 0, 1] = 0.0
    x[0, 2:4, 2:4, 0:2] = -0.0
    x[0, 2, 2, 0] = 0.0
    x[1, 1, 2:4, 1:5] = np.nan
    y, cache = pool3d_forward(x, (1, 2, 2, 2))
    blocks = x.reshape(2, 2, 2, 3, 2, 3, 2).transpose(0, 1, 3, 5, 2, 4, 6).reshape(2, 2, 3, 3, 8)
    arg = blocks.argmax(axis=-1)
    assert np.array_equal(cache[-1], arg)
    assert y.tobytes() == np.take_along_axis(blocks, arg[..., None], axis=-1).tobytes()
    assert np.signbit(y[0, 1, 0, 0]) and not np.signbit(y[0, 1, 1, 0])
    g = rng.normal(size=y.shape)
    routed = np.zeros(blocks.shape)
    np.put_along_axis(routed, arg[..., None], g[..., None], axis=-1)
    want = routed.reshape(2, 2, 3, 3, 2, 2, 2).transpose(0, 1, 4, 2, 5, 3, 6).reshape(x.shape)
    assert pool3d_backward(g, cache).tobytes() == want.tobytes()


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


def test_backward_rejects_mis_shaped_gradients():
    """A gradient that broadcasts into the output, or a 1-element one, is
    not the output's gradient: each backward names both shapes."""
    rng = np.random.default_rng(43)
    w = rng.normal(size=(3, 2, 3, 3, 3))
    _, xp, pads = conv3d_forward(rng.normal(size=(2, 4, 5, 6)), w, None)
    _, xp2, pads2 = conv2d_forward(rng.normal(size=(2, 5, 6)), w[:, :, 0])
    _, cache = pool3d_forward(rng.normal(size=(3, 4, 4, 6)), (1, 2, 2, 2))
    cases = [
        (lambda g: conv3d_backward(g, xp, w, (1, 1, 1), pads), (3, 4, 5, 6), (3, 4, 1, 6)),
        (lambda g: conv3d_backward(g, xp, w, (1, 1, 1), pads), (3, 4, 5, 6), (1, 4, 5, 6)),
        (lambda g: conv2d_backward(g, xp2, w[:, :, 0], pads2), (3, 5, 6), (3, 1, 6)),
        (lambda g: conv2d_backward(g, xp2, w[:, :, 0], pads2), (3, 5, 6), (1, 5, 6)),
        (lambda g: pool3d_backward(g, cache), (3, 2, 2, 3), (1,)),
        (lambda g: pool3d_backward(g, cache), (3, 2, 2, 3), (3, 2, 2, 1)),
    ]
    for backward, good, bad in cases:
        backward(np.ones(good))
        with pytest.raises(ValueError) as err:
            backward(np.ones(bad))
        assert str(bad) in str(err.value) and str(good) in str(err.value)
    # upsample_backward holds no output shape, only the factor the gradient
    # must fit: one entry per axis, each dividing its extent
    upsample_backward(np.ones((1, 2, 4, 4)), (1, 1, 2, 2))
    for shape, factor, match in [((1, 2, 4, 4), (1, 2, 2), "per tensor axis"),
                                 ((2, 4, 4), (1, 1, 2, 2), "per tensor axis"),
                                 ((1, 3, 4, 4), (1, 2, 2, 2), "extent 3 of axis 1"),
                                 ((1, 2, 4, 4), (1, 1, 0, 2), ">= 1")]:
        with pytest.raises(ValueError, match=match):
            upsample_backward(np.ones(shape), factor)


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


@pytest.mark.parametrize("entry", [2.5, 2.0, True, "2"])
def test_window_and_factor_entries_must_be_integers(entry):
    # int() used to truncate a 2.5 window to 2
    x = np.ones((1, 2, 2, 2))
    for op in (pool3d_forward, upsample, upsample_backward):
        with pytest.raises(ValueError, match=f"got {re.escape(repr(entry))} in"):
            op(x, (1, 1, 1, entry))
    assert pool3d(x, (np.int64(1), 1, 2, 2)).shape == (1, 2, 1, 1)
