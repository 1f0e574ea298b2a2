"""Dense tensor operations: 3D/2D convolution, max pooling, upsampling.

Everything works on plain numpy arrays in channels-first layout
([maps, depth, height, width] for volumes).  Each trainable op comes as a
forward/backward pair so the network code can run reverse-mode training
without an autograd framework.

Every convolution runs through one im2col + GEMM kernel (Chellapilla et
al., 2006) on the padded grid.  In the flattened padded input, kernel tap
(i, j, l) of every output sits at the fixed offset i·Hp·Wp + j·Wp + l from
that output's position, so the tap's block of the [maps·d·k·k, positions]
column matrix is one contiguous slice of the input per map.  One BLAS
matmul per slab of output-depth planes gives the output (W @ cols), the
weight gradient ((cols @ Gᵀ)ᵀ) or the column gradient (Wᵀ @ G, added back
into the input one contiguous tap slice at a time).  Positions whose window
crosses the pad margin hold no output: the forward drops them, and the
backward gives them a zero gradient.  The slab is as many planes as fit
in `_SLAB_BYTES`, with its output planes on the padded grid, so the buffers
stay bounded whatever the volume size.  A strided conv is the unit-stride
conv subsampled: its gradient is placed onto the unit-stride grid.  conv2d,
the ConvLSTM's per-step state convolution, is the same kernel at depth 1
with 'same' padding and no bias.

Operations compute in numpy's promoted dtype of their arguments, and the
column buffer takes that dtype too.  The network holds float32 parameters
and casts its inputs to them, so training and inference run in float32,
which halves the bytes every im2col copy and GEMM moves; the gradient
checks promote the parameters and run the same code in float64.
"""

import numpy as np

# upper bound on the bytes of one slab's buffers: its im2col columns plus
# its output planes on the padded grid; a slab holds as many output-depth
# planes as fit, and at least one
_SLAB_BYTES = 2 << 20


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
    xp = np.zeros(tuple(s + lo + hi for s, (lo, hi) in zip(x.shape, pads)), dtype=x.dtype)
    xp[tuple(slice(lo, lo + s) for s, (lo, _) in zip(x.shape, pads))] = x
    return xp, pads


def _slabs(xp, kext, stride, n, dtype, zeroed):
    """Padded-grid im2col, one slab of output-depth planes at a time.

    Yields (out, grid, gslab, cols, taps) per slab.  `cols` [m·d·kh·kw, q]
    holds the windows of the slab's q positions on the padded grid, and
    `taps` pairs each kernel tap's block of `cols` with the slice of the
    flattened `xp` it was copied from.  `gslab` [n, q] is a buffer for the
    slab's outputs on the padded grid, and `grid` views the true (strided)
    outputs in it, which are planes `out` of the output.  The backward
    needs `zeroed`, since its GEMM reads the positions `grid` skips; the
    forward's GEMM writes every position that `grid` reads.  One
    pair of buffers, of at most `_SLAB_BYTES` (or one stride period of
    planes), serves every slab.
    """
    m, dp, hp, wp = xp.shape
    du, hu, wu = dp - kext[0] + 1, hp - kext[1] + 1, wp - kext[2] + 1
    sd, sh, sw = stride
    plane = hp * wp
    offs = [i * plane + j * wp + l for i, j, l in np.ndindex(*kext)]
    rows = m * len(offs)
    fit = _SLAB_BYTES // max(1, (rows + n) * plane * np.dtype(dtype).itemsize)
    # whole stride periods, so every slab writes its gradient to the same
    # grid positions and all other positions stay zero
    per = max(sd, min(du, fit - fit % sd))
    xf = xp.reshape(m, -1)
    cbuf = np.empty(rows * per * plane, dtype=dtype)
    gbuf = (np.zeros if zeroed else np.empty)((n, per * plane), dtype=dtype)
    for z0 in range(0, du, per):
        z1 = min(du, z0 + per)
        # q1 ends at the slab's last true output, so no tap reads past xf's end
        q0, q1 = z0 * plane, (z1 - 1) * plane + (hu - 1) * wp + wu
        cols = cbuf[:rows * (q1 - q0)].reshape(m, len(offs), q1 - q0)
        taps = [(cols[:, t], slice(q0 + off, q1 + off)) for t, off in enumerate(offs)]
        for block, win in taps:
            block[...] = xf[:, win]
        grid = gbuf[:, :(z1 - z0) * plane].reshape(n, z1 - z0, hp, wp)
        yield (slice(z0 // sd, -(-z1 // sd)), grid[:, ::sd, :hu:sh, :wu:sw],
               gbuf[:, :q1 - q0], cols.reshape(rows, -1), taps)


def _conv_backward(grad, xp, weights, stride, pads):
    """(dx, dweights) of a convolution; the bias gradient is the caller's."""
    n = weights.shape[0]
    dtype = np.result_type(grad, xp, weights)
    w2 = weights.reshape(n, -1)
    dxp = np.zeros(xp.shape, dtype=dtype)
    dxf = dxp.reshape(xp.shape[0], -1)
    dwt = np.zeros(w2.shape[::-1], dtype=dtype)
    stride = _as_triple(stride)
    for out, grid, gslab, cols, taps in _slabs(xp, weights.shape[2:], stride, n, dtype, True):
        grid[...] = grad[:, out]
        dwt += cols @ gslab.T
        np.matmul(w2.T, gslab, out=cols)  # the tap blocks now hold column gradients
        for block, win in taps:
            dxf[:, win] += block
    dx = dxp[tuple(slice(lo, dxp.shape[ax] - hi) for ax, (lo, hi) in enumerate(pads))]
    return dx, dwt.T.reshape(weights.shape)


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
    for out, grid, gslab, cols, _ in _slabs(xp, kext, stride, n, dtype, False):
        np.matmul(w2, cols, out=gslab)
        if bias is None:
            y[:, out] = grid
        else:
            np.add(grid, bias[:, None, None, None], out=y[:, out])
    return y, xp, pads


def conv3d_backward(grad, xp, weights, stride, pads):
    """Gradients of a conv3d pre-activation w.r.t. input, weights, bias.

    grad: [n,D',H',W'] gradient at the output; xp is the padded input kept
    from the forward pass.  A strided gradient is placed onto the unit-stride
    output grid, whose other outputs get a zero gradient.
    """
    dx, dw = _conv_backward(grad, xp, weights, stride, pads)
    return dx, dw, grad.sum(axis=(1, 2, 3))


def conv2d_forward(x, weights):
    """Cross-correlate a [m,H,W] map with [q,m,k,k] kernels at unit stride,
    'same'-padded and without bias.  Returns (output, padded input, pads)."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.ndim != 3 or weights.ndim != 4:
        raise ValueError(f"conv2d takes [m,H,W] input and [q,m,k,k] weights, "
                         f"got shapes {x.shape} and {weights.shape}")
    y, xp, pads = conv3d_forward(x[:, None], weights[:, :, None], None, padding="same")
    return y[:, 0], xp[:, 0], [pads[0]] + pads[2:]


def conv2d_backward(grad, xp, weights, pads):
    """Gradients (dx, dweights) of :func:`conv2d_forward`."""
    pads = [pads[0], (0, 0)] + list(pads[1:])
    dx, dweights = _conv_backward(grad[:, None], xp[:, None], weights[:, :, None],
                                  (1, 1, 1), pads)
    return dx[:, 0], dweights[:, :, 0]


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


def pool3d_forward(x, window):
    """Non-overlapping max pooling; window is per-axis and must divide each
    extent.  Returns (pooled, cache) where cache feeds :func:`pool3d_backward`.
    """
    x = np.asarray(x)
    window = _check_window(x, window)
    flat, out, perm = _pool_view(x, window)
    arg = flat.argmax(axis=-1)
    y = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    # the cache keeps each block's argmax in the smallest unsigned dtype
    # that holds it: uint8 for the network's 4- and 8-voxel windows
    return y, (x.shape, window, out, perm, arg.astype(np.min_scalar_type(flat.shape[-1] - 1)))


def pool3d_backward(grad, cache):
    """Routes each pooled gradient to the voxel that held its block's maximum."""
    shape, window, out, perm, arg = cache
    gflat = np.zeros(out + (int(np.prod(window)),), dtype=grad.dtype)
    np.put_along_axis(gflat, arg[..., None], grad[..., None], axis=-1)
    inv = np.argsort(perm)
    return gflat.reshape(out + window).transpose(inv).reshape(shape)


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
