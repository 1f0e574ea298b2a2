"""Dense tensor operations: 3D/2D convolution, max pooling, upsampling.

Everything works on plain numpy arrays in channels-first layout
([maps, depth, height, width] for volumes).  Each trainable op comes as a
forward/backward pair so the network code can run reverse-mode training
without an autograd framework.

Every convolution runs through one unit-stride im2col + GEMM kernel
(Chellapilla et al., 2006) on the padded grid, with the kernel's depth taps
on the GEMM's rows and its in-plane taps on its columns (the kn2row side of
the trade-off in Vasudevan et al., ASAP 2017).  The [n, m, kd, kh, kw]
kernel is reordered to a [kd·n, m·kh·kw] matrix, whose row block i is depth
tap i.  In the flattened padded input, in-plane tap (j, l) of every
position sits at the fixed offset j·Wp + l from it, so the tap's block of
the [m·kh·kw, positions] column matrix is one contiguous slice of the input
per map: an input plane is copied kh·kw times, not kd·kh·kw times.  One
BLAS matmul per slab of input planes gives, in row block i, each input
plane's share of output plane p − i.  Both directions hold a frame of
output planes on the padded grid, whose last kd−1 planes are still open
when a slab ends and move to the frame's head for the next one.  The
forward adds the blocks into the frame; a plane is complete once its last
input plane has been multiplied.  The backward writes each output-gradient
plane into the frame once, gathers the kd planes that each input plane
feeds into the GEMM's buffer, accumulates the weight gradient with one GEMM
per slab and adds the column gradient back into the input one contiguous
in-plane tap slice at a time.  Positions whose window crosses the pad
margin hold no output: the forward drops them, and the backward gives them
a zero gradient.  The slab is as many input planes as fit in
`_SLAB_BYTES`, so the buffers stay bounded whatever the volume size.  A
kernel of depth 1 is the same code with one row block and an empty frame
head, which is how conv2d, the ConvLSTM's per-step state convolution, and
the 1×1×1 projections run.

Operations compute in numpy's promoted dtype of their arguments, and the
column buffer takes that dtype too.  The network holds float32 parameters
and casts its inputs to them, so training and inference run in float32,
which halves the bytes every im2col copy and GEMM moves; the gradient
checks promote the parameters and run the same code in float64.
"""

import numpy as np

# upper bound on the bytes of one slab's buffers: its im2col columns plus
# its GEMM output and output frame on the padded grid; a slab holds as many
# input planes as fit, and at least one
_SLAB_BYTES = 2 << 20


def _check_grad(grad, shape):
    if grad.shape != shape:
        raise ValueError(f"gradient shape {grad.shape} does not match output shape {shape}")


def _unit_out(xp, weights):
    """[n, ...] output extents of a unit-stride conv of the padded input xp."""
    return (weights.shape[0],) + tuple(s - k + 1 for s, k in zip(xp.shape[1:], weights.shape[2:]))


def _slabs(xp, kext, n, dtype):
    """Padded-grid im2col of the in-plane taps, one slab of input planes at a time.

    Yields (z0, frame, gslab, cols, taps, shifts) per slab of P input
    planes.  `cols` [m·kh·kw, q] holds the in-plane windows of the slab's q
    positions on the padded grid, and `taps` pairs each in-plane tap's
    block of `cols` with the slice of the flattened `xp` it was copied
    from.  `gslab` [kd·n, q] is the GEMM's output or gradient operand: its
    row block i is depth tap i, so its column of input plane p belongs to
    output plane p − i.  `frame` [n, kd−1+P, Hp, Wp] holds output planes
    z0, z0+1, ... on the padded grid: its last P planes are row block 0,
    and `shifts` pairs each row block i ≥ 1 with the slice of `frame` that
    holds its output planes.  One zeroed buffer, of at most `_SLAB_BYTES`,
    serves every slab.  After each slab its last kd−1 frame planes, the
    output planes still open, move to the frame's head: this carry is the
    only write to the first kd−1 planes, which start at zero.
    """
    m, dp, hp, wp = xp.shape
    kd, kh, kw = kext
    hu, wu = hp - kh + 1, wp - kw + 1
    plane = hp * wp
    lead = (kd - 1) * plane
    offs = [j * wp + l for j, l in np.ndindex(kh, kw)]
    rows = m * len(offs)
    fit = ((_SLAB_BYTES // (plane * np.dtype(dtype).itemsize) - (kd - 1) * kd * n)
           // (rows + kd * n))
    per = max(1, min(dp, fit))
    xf = xp.reshape(m, -1)
    cbuf = np.empty(rows * per * plane, dtype=dtype)
    gbuf = np.zeros((kd * n, lead + per * plane), dtype=dtype)
    for p0 in range(0, dp, per):
        p1 = min(dp, p0 + per)
        # q1 ends at the slab's last true output, so no tap reads past xf's end
        q0, q1 = p0 * plane, (p1 - 1) * plane + (hu - 1) * wp + wu
        cols = cbuf[:rows * (q1 - q0)].reshape(m, len(offs), q1 - q0)
        taps = [(cols[:, t], slice(q0 + off, q1 + off)) for t, off in enumerate(offs)]
        for block, win in taps:
            block[...] = xf[:, win]
        gslab = gbuf[:, lead:lead + q1 - q0]
        shifts = [(gbuf[:n, lead - i * plane:lead - i * plane + q1 - q0],
                   gslab[i * n:(i + 1) * n]) for i in range(1, kd)]
        frame = gbuf[:n, :lead + (p1 - p0) * plane].reshape(n, -1, hp, wp)
        yield p0 - (kd - 1), frame, gslab, cols.reshape(rows, -1), taps, shifts
        frame[:, :kd - 1] = frame[:, p1 - p0:]


def _by_depth_tap(weights):
    """[n, m, kd, kh, kw] kernels as the [kd·n, m·kh·kw] matrix of `_slabs`."""
    return weights.transpose(2, 0, 1, 3, 4).reshape(weights.shape[0] * weights.shape[2], -1)


def _conv_backward(grad, xp, weights, pads):
    """(dx, dweights) of a unit-stride convolution with output gradient
    grad; the bias gradient is the caller's."""
    n, kext = weights.shape[0], weights.shape[2:]
    kd = kext[0]
    hu, wu = grad.shape[2:]
    dtype = np.result_type(grad, xp, weights)
    w2 = _by_depth_tap(weights)
    dxp = np.zeros(xp.shape, dtype=dtype)
    dxf = dxp.reshape(xp.shape[0], -1)
    dwt = np.zeros(w2.shape[::-1], dtype=dtype)
    for z0, frame, gslab, cols, taps, shifts in _slabs(xp, kext, n, dtype):
        # the frame's head came by the carry; its P new planes are outputs
        # p0 ... p1-1, zero past the last output plane
        new = grad[:, z0 + kd - 1:z0 + frame.shape[1]]
        frame[:, kd - 1:kd - 1 + new.shape[1], :hu, :wu] = new
        frame[:, kd - 1 + new.shape[1]:] = 0
        for acc, block in shifts:
            block[...] = acc
        dwt += cols @ gslab.T
        np.matmul(w2.T, gslab, out=cols)  # the tap blocks now hold column gradients
        for block, win in taps:
            dxf[:, win] += block
    dx = dxp[tuple(slice(lo, dxp.shape[ax] - hi) for ax, (lo, hi) in enumerate(pads))]
    dw = dwt.T.reshape((kd, n) + weights.shape[1:2] + weights.shape[3:])
    return dx, dw.transpose(1, 2, 0, 3, 4)


def conv3d_forward(x, weights, bias, padding="same"):
    """Cross-correlate a [m,D,H,W] volume with [n,m,d,k,k] kernels.

    bias is [n], or None for no bias.  Returns the pre-activation output
    [n,D,H,W] together with the padded input (needed by
    :func:`conv3d_backward`) and the pad amounts.  The convolution runs at
    unit stride with 'same' padding: (k−1)//2 zeros before each spatial
    axis and the rest after, and with nothing to pad (1-voxel kernels) the
    padded input is x itself, not a copy.  `padding` takes only 'same',
    which the benchmark passes by name; ROADMAP Open item 11 deletes it.
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
    if padding != "same":
        raise ValueError(f"padding must be 'same', got {padding!r}")
    kext = weights.shape[2:]
    pads = [(0, 0)] + [((k - 1) // 2, k // 2) for k in kext]
    xp = x
    if any(lo or hi for lo, hi in pads):
        xp = np.zeros(tuple(s + lo + hi for s, (lo, hi) in zip(x.shape, pads)), dtype=x.dtype)
        xp[tuple(slice(lo, lo + s) for s, (lo, _) in zip(x.shape, pads))] = x
    # under 'same' padding only an empty axis is narrower than its kernel
    if any(xp.shape[1 + i] < kext[i] for i in range(3)):
        raise ValueError(
            f"kernel extents {kext} do not fit inside input extents {x.shape[1:]}")
    kd = kext[0]
    dtype = np.result_type(xp, weights)
    w2 = _by_depth_tap(weights)
    y = np.empty(_unit_out(xp, weights), dtype=dtype)
    hu, wu = y.shape[2:]
    for z0, frame, gslab, cols, _, shifts in _slabs(xp, kext, y.shape[0], dtype):
        np.matmul(w2, cols, out=gslab)
        for acc, block in shifts:
            acc += block
        # the frame's first P planes have had all kd of their input planes
        lo = max(z0, 0)
        done = frame[:, lo - z0:frame.shape[1] - (kd - 1)]
        if bias is not None:
            done += bias[:, None, None, None]  # whole planes: fewer, longer loops
        y[:, lo:lo + done.shape[1]] = done[:, :, :hu, :wu]
    return y, xp, pads


def conv3d_backward(grad, xp, weights, stride, pads):
    """Gradients of a conv3d pre-activation w.r.t. input, weights, bias.

    grad: [n,D,H,W] gradient at the output; xp and pads are the padded
    input and pad amounts kept from the forward pass.  `stride` takes only
    (1, 1, 1), which the benchmark passes by position; ROADMAP Open item 11
    deletes it.
    """
    if stride != (1, 1, 1):
        raise ValueError(f"stride must be (1, 1, 1), got {stride!r}")
    _check_grad(grad, _unit_out(xp, weights))
    dx, dw = _conv_backward(grad, xp, weights, pads)
    return dx, dw, grad.sum(axis=(1, 2, 3))


def conv2d_forward(x, weights):
    """Cross-correlate a [m,H,W] map with [q,m,k,k] kernels at unit stride,
    'same'-padded and without bias.  Returns (output, padded input, pads)."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.ndim != 3 or weights.ndim != 4:
        raise ValueError(f"conv2d takes [m,H,W] input and [q,m,k,k] weights, "
                         f"got shapes {x.shape} and {weights.shape}")
    y, xp, pads = conv3d_forward(x[:, None], weights[:, :, None], None)
    return y[:, 0], xp[:, 0], [pads[0]] + pads[2:]


def conv2d_backward(grad, xp, weights, pads):
    """Gradients (dx, dweights) of :func:`conv2d_forward`."""
    _check_grad(grad, _unit_out(xp, weights))
    pads = [pads[0], (0, 0)] + list(pads[1:])
    dx, dweights = _conv_backward(grad[:, None], xp[:, None], weights[:, :, None], pads)
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


def _window_views(x, window):
    """One strided view per window offset, in the window's C order: view k
    holds the k-th voxel of every block."""
    return [x[tuple(slice(o, None, w) for o, w in zip(offset, window))]
            for offset in np.ndindex(*window)]


def _voxel_index(shape, window, arg):
    """Flat index, into a C-ordered array of `shape`, of voxel arg of each block."""
    steps = np.cumprod((1,) + shape[:0:-1])[::-1]
    index = np.array([np.dot(offset, steps) for offset in np.ndindex(*window)])[arg]
    for ax, (o, w, s) in enumerate(zip(arg.shape, window, steps)):
        index += (np.arange(o) * (w * s)).reshape((-1,) + (1,) * (arg.ndim - 1 - ax))
    return index


def pool3d_forward(x, window):
    """Non-overlapping max pooling; window is per-axis and must divide each
    extent.  Returns (pooled, cache) where cache feeds :func:`pool3d_backward`.
    """
    x = np.asarray(x)
    window = _check_window(x, window)
    views = _window_views(x, window)
    top = views[0].copy()
    # the cache keeps each block's argmax in the smallest unsigned dtype
    # that holds it: uint8 for the network's 4- and 8-voxel windows
    arg = np.zeros(top.shape, dtype=np.min_scalar_type(len(views) - 1))
    take = np.empty(top.shape, dtype=bool)
    keep = np.empty(top.shape, dtype=bool)
    for k, v in enumerate(views[1:], 1):
        # argmax's choice: the first maximum, NaN being the largest, so view
        # k wins where v > top, or v is NaN and top is not
        np.less_equal(v, top, out=take)
        np.equal(top, top, out=keep)
        np.greater(keep, take, out=take)
        np.maximum(top, v, out=top)
        np.maximum(arg, np.multiply(take, k, dtype=arg.dtype), out=arg)
    # np.maximum may return either of two equal zeros, so the pooled values
    # are read back from the voxels that won
    return np.take(x, _voxel_index(x.shape, window, arg)), (window, arg)


def pool3d_backward(grad, cache):
    """Routes each pooled gradient to the voxel that held its block's maximum."""
    window, arg = cache
    _check_grad(grad, arg.shape)
    dx = np.zeros(tuple(s * w for s, w in zip(arg.shape, window)), dtype=grad.dtype)
    np.put(dx, _voxel_index(dx.shape, window, arg), grad)
    return dx


def upsample(x, factor):
    """Nearest-neighbor replication by an integer factor per axis."""
    x = np.asarray(x)
    factor = tuple(int(f) for f in factor)
    if len(factor) != x.ndim:
        raise ValueError(
            f"factor {factor} must have one entry per tensor axis ({x.ndim})")
    if any(f < 1 for f in factor):
        raise ValueError(f"factors must be >= 1, got {factor}")
    y = np.empty(tuple(s * f for s, f in zip(x.shape, factor)), dtype=x.dtype)
    # one strided copy of x per offset within the replication block
    for view in _window_views(y, factor):
        view[...] = x
    return y


def upsample_backward(grad, factor):
    """Adjoint of :func:`upsample`: sums gradients over each replicated block."""
    g = grad
    for ax, f in enumerate(factor):
        if f > 1:
            shape = g.shape[:ax] + (g.shape[ax] // f, f) + g.shape[ax + 1:]
            g = g.reshape(shape).sum(axis=ax + 1)
    return g
