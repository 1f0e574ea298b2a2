"""Dense tensor operations: 3D/2D convolution, pooling, upsampling.

Everything works on plain numpy arrays in channels-first layout
([maps, depth, height, width] for volumes).  Each trainable op comes as a
forward/backward pair so the network code can run reverse-mode training
without an autograd framework.

Every convolution runs through one im2col + GEMM kernel (Chellapilla et
al., 2006): the input windows of a slab of output-depth planes are copied,
kernel tap by kernel tap, into a [maps·d·k·k, voxels] column matrix, and one
BLAS matmul per slab gives the output (W @ cols), the weight gradient
(G @ colsᵀ) or the column gradient (Wᵀ @ G, added back into the input one
tap at a time).  The slab is as many planes as fit in `_SLAB_BYTES`, so the
column buffer stays bounded whatever the volume size.  conv2d is the same
kernel at depth 1.

Operations compute in numpy's promoted dtype of their arguments, and the
column buffer takes that dtype too.  The network holds float32 parameters
and casts its inputs to them, so training and inference run in float32,
which halves the bytes every im2col copy and GEMM moves; the gradient
checks promote the parameters and run the same code in float64.
"""

import numpy as np

# upper bound on the bytes of one im2col column buffer; a slab holds as
# many output-depth planes as fit, and at least one
_SLAB_BYTES = 8 << 20


def _as_triple(v):
    if np.isscalar(v):
        return (int(v),) * 3
    t = tuple(int(s) for s in v)
    if len(t) != 3:
        raise ValueError(f"expected 3 stride entries, got {v!r}")
    return t


def _same_pad(k):
    lo = (k - 1) // 2
    return lo, (k - 1) - lo


def _pad_spatial(x, kernel_extents, padding, spatial_axes):
    """Zero-pad the spatial axes for 'same' output extents.  Returns x itself,
    not a copy, when there is nothing to pad ('valid', or 1-voxel kernels)."""
    pads = [(0, 0)] * x.ndim
    if padding == "valid":
        return x, pads
    if padding != "same":
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
    for ax, k in zip(spatial_axes, kernel_extents):
        pads[ax] = _same_pad(k)
    if not any(lo or hi for lo, hi in pads):
        return x, pads
    return np.pad(x, pads), pads


def _slabs(xp, kext, stride, out_shape, dtype):
    """im2col, one slab of output-depth planes at a time.

    Yields (vox, cols, taps) per slab: `vox` slices the slab's voxels out of
    the flattened output, `cols` [m·d·kh·kw, voxels] holds their input
    windows, and `taps` pairs each kernel tap's block of `cols` with the
    window of `xp` it was copied from.  One buffer of at most
    `_SLAB_BYTES` (or one plane) is refilled for every slab.
    """
    m = xp.shape[0]
    do, ho, wo = out_shape
    sd, sh, sw = stride
    rows, plane = m * int(np.prod(kext)), ho * wo
    per = max(1, min(do, _SLAB_BYTES // max(1, rows * plane * np.dtype(dtype).itemsize)))
    buf = np.empty(rows * plane * per, dtype=dtype)
    for z0 in range(0, do, per):
        z1 = min(do, z0 + per)
        cols = buf[:rows * plane * (z1 - z0)].reshape((m,) + kext + (z1 - z0, ho, wo))
        taps = [(cols[:, i, j, l], (slice(None),
                                    slice(sd * z0 + i, sd * (z1 - 1) + i + 1, sd),
                                    slice(j, j + sh * (ho - 1) + 1, sh),
                                    slice(l, l + sw * (wo - 1) + 1, sw)))
                for i, j, l in np.ndindex(*kext)]
        for block, win in taps:
            block[...] = xp[win]
        yield slice(z0 * plane, z1 * plane), cols.reshape(rows, -1), taps


def conv3d_forward(x, weights, bias, stride=(1, 1, 1), padding="valid"):
    """Cross-correlate a [m,D,H,W] volume with [n,m,d,k,k] kernels.

    bias is [n], or None for no bias.  Returns the pre-activation output
    [n,D',H',W'] together with the padded input (needed by
    :func:`conv3d_backward`) and the pad amounts.
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.ndim != 4:
        raise ValueError(f"conv3d input must be 4-D [m,D,H,W], got shape {x.shape}")
    if weights.ndim != 5:
        raise ValueError(f"conv3d weights must be 5-D [n,m,d,k,k], got shape {weights.shape}")
    if x.shape[0] != weights.shape[1]:
        raise ValueError(
            f"input has {x.shape[0]} feature maps but weights {weights.shape} "
            f"expect {weights.shape[1]}")
    if bias is not None:
        bias = np.asarray(bias)
        if bias.shape != weights.shape[:1]:
            raise ValueError(
                f"bias shape {bias.shape} does not match {weights.shape[0]} "
                "output maps (one pair per output feature map)")
    stride = _as_triple(stride)
    if any(s < 1 for s in stride):
        raise ValueError(f"stride entries must be positive, got {stride}")
    kext = weights.shape[2:]
    xp, pads = _pad_spatial(x, kext, padding, spatial_axes=(1, 2, 3))
    if any(xp.shape[1 + i] < kext[i] for i in range(3)):
        raise ValueError(
            f"kernel extents {kext} do not fit inside input extents {x.shape[1:]} "
            f"under {padding!r} padding")
    n = weights.shape[0]
    out_shape = tuple((s - k) // st + 1 for s, k, st in zip(xp.shape[1:], kext, stride))
    dtype = np.result_type(xp, weights)
    w2 = weights.reshape(n, -1)
    y = np.empty((n,) + out_shape, dtype=dtype)
    y2 = y.reshape(n, -1)
    for vox, cols, _ in _slabs(xp, kext, stride, out_shape, dtype):
        np.matmul(w2, cols, out=y2[:, vox])
    if bias is not None:
        y += bias[:, None, None, None]
    return y, xp, pads


def conv3d_backward(grad, xp, weights, stride, pads):
    """Gradients of a conv3d pre-activation w.r.t. input, weights, bias.

    grad: [n,D',H',W'] gradient at the output; xp is the padded input kept
    from the forward pass.  Works for any positive stride.
    """
    n = weights.shape[0]
    dtype = np.result_type(grad, xp, weights)
    w2 = weights.reshape(n, -1)
    g2 = grad.reshape(n, -1)
    dw = np.zeros(w2.shape, dtype=dtype)
    dxp = np.zeros(xp.shape, dtype=dtype)
    for vox, cols, taps in _slabs(xp, weights.shape[2:], _as_triple(stride), grad.shape[1:], dtype):
        g = g2[:, vox]
        dw += g @ cols.T
        np.matmul(w2.T, g, out=cols)  # the tap blocks now hold column gradients
        for block, win in taps:
            dxp[win] += block
    dx = dxp[tuple(slice(lo, dxp.shape[ax] - hi) for ax, (lo, hi) in enumerate(pads))]
    return dx, dw.reshape(weights.shape), grad.sum(axis=(1, 2, 3))


def conv2d_forward(x, weights, bias=None, padding="same"):
    """Cross-correlate [m,H,W] (or [m,L,H,W] time-batched) input with
    [q,m,k,k] kernels at unit stride.  Returns (output, padded input, pads)."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.ndim not in (3, 4):
        raise ValueError(f"conv2d input must be [m,H,W] or [m,L,H,W], got shape {x.shape}")
    if weights.ndim != 4:
        raise ValueError(f"conv2d weights must be 4-D [q,m,k,k], got shape {weights.shape}")
    if x.ndim == 3:
        y, xp, pads = conv3d_forward(x[:, None], weights[:, :, None], bias, padding=padding)
        return y[:, 0], xp[:, 0], [pads[0]] + pads[2:]
    return conv3d_forward(x, weights[:, :, None], bias, padding=padding)


def conv2d_backward(grad, xp, weights, pads, with_bias=True):
    """Gradients of conv2d_forward w.r.t. input, weights and bias."""
    single = grad.ndim == 3
    if single:
        grad, xp, pads = grad[:, None], xp[:, None], [pads[0], (0, 0)] + list(pads[1:])
    dx, dweights, dbias = conv3d_backward(grad, xp, weights[:, :, None], (1, 1, 1), pads)
    return (dx[:, 0] if single else dx), dweights[:, :, 0], (dbias if with_bias else None)


def _check_window(x, window):
    window = tuple(int(w) for w in window)
    if len(window) != x.ndim:
        raise ValueError(
            f"window {window} must have one entry per tensor axis ({x.ndim})")
    if any(w < 1 for w in window):
        raise ValueError(f"window entries must be >= 1, got {window}")
    for ax, (s, w) in enumerate(zip(x.shape, window)):
        if s % w != 0:
            raise ValueError(
                f"extent {s} of axis {ax} is not divisible by window {w}")
    return window


def _pool_view(x, window):
    """Reshape to [out..., window-flat] so reductions run over the last axis."""
    out = tuple(s // w for s, w in zip(x.shape, window))
    inter = []
    for o, w in zip(out, window):
        inter.extend((o, w))
    r = x.ndim
    perm = tuple(range(0, 2 * r, 2)) + tuple(range(1, 2 * r, 2))
    flat = x.reshape(inter).transpose(perm).reshape(out + (-1,))
    return flat, out, perm


def pool3d_forward(x, window, mode):
    """Non-overlapping pooling; window is per-axis and must divide each extent.

    Returns (pooled, cache) where cache feeds :func:`pool3d_backward`.
    """
    x = np.asarray(x)
    window = _check_window(x, window)
    if mode not in ("max", "avg"):
        raise ValueError(f"mode must be 'max' or 'avg', got {mode!r}")
    flat, out, perm = _pool_view(x, window)
    if mode == "max":
        arg = flat.argmax(axis=-1)
        y = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    else:
        arg = None
        y = flat.mean(axis=-1)
    cache = (x.shape, window, mode, out, perm, arg)
    return y, cache


def pool3d_backward(grad, cache):
    shape, window, mode, out, perm, arg = cache
    wflat = int(np.prod(window))
    gflat = np.zeros(out + (wflat,), dtype=grad.dtype)
    if mode == "max":
        np.put_along_axis(gflat, arg[..., None], grad[..., None], axis=-1)
    else:
        gflat += (grad / wflat)[..., None]
    inv = np.argsort(perm)
    gx = gflat.reshape(out + window).transpose(inv).reshape(shape)
    return gx


def upsample(x, factor):
    """Nearest-neighbor replication by an integer factor per axis."""
    x = np.asarray(x)
    factor = tuple(int(f) for f in factor)
    if len(factor) != x.ndim:
        raise ValueError(
            f"factor {factor} must have one entry per tensor axis ({x.ndim})")
    if any(f < 1 for f in factor):
        raise ValueError(f"factors must be >= 1, got {factor}")
    y = x
    for ax, f in enumerate(factor):
        if f > 1:
            y = np.repeat(y, f, axis=ax)
    return y.copy() if y is x else y


def upsample_backward(grad, factor):
    """Adjoint of :func:`upsample`: sums gradients over each replicated block."""
    g = grad
    for ax, f in enumerate(factor):
        if f > 1:
            shape = g.shape[:ax] + (g.shape[ax] // f, f) + g.shape[ax + 1:]
            g = g.reshape(shape).sum(axis=ax + 1)
    return g
