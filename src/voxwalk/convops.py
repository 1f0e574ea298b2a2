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
BLAS matmul per input plane p gives, in row block i, its share of output
plane p − i.  Both directions hold a frame of output planes p−kd+1 ... p on
the padded grid, whose last kd−1 planes, still open, move to its head for
the next input plane.  The forward adds the blocks into the frame and
writes out its first plane, which has had all kd of its input planes.  The
backward writes each output-gradient plane into the frame once, gathers
the kd planes that each input plane feeds into the GEMM's buffer,
accumulates the weight gradient with one GEMM per plane and adds the
column gradient back into the input one contiguous in-plane tap slice at
a time.  Positions whose window crosses the pad margin hold no output: the
forward drops them, and the backward gives them a zero gradient.  The
buffers span one input plane, so they do not grow with the volume's
depth.  A kernel of depth 1 is the same code with one row block and an
empty frame head, which is how conv2d, the ConvLSTM's per-step state
convolution, and the 1×1×1 projections run.

Operations compute in numpy's promoted dtype of their arguments, and the
column buffer takes that dtype too.  The network holds float32 parameters
and casts its inputs to them, so training and inference run in float32,
which halves the bytes every im2col copy and GEMM moves; the gradient
checks promote the parameters and run the same code in float64.
"""

import numbers

import numpy as np


def _check_grad(grad, shape):
    if grad.shape != shape:
        raise ValueError(f"gradient shape {grad.shape} does not match output shape {shape}")


def _unit_out(xp, weights):
    """[n, ...] output extents of a unit-stride conv of the padded input xp."""
    return (weights.shape[0],) + tuple(s - k + 1 for s, k in zip(xp.shape[1:], weights.shape[2:]))


def _planes(xp, kext, n, dtype):
    """Padded-grid im2col of the in-plane taps, one input plane at a time.

    Yields (p, frame, gslab, cols, taps, shifts) per input plane p.  `cols`
    [m·kh·kw, q] holds the in-plane windows of the plane's first q
    positions on the padded grid, up to its last true output, so no tap
    reads past the plane; `taps` pairs each in-plane tap's block of `cols`
    with the slice of the flattened `xp` it was copied from.  `gslab`
    [kd·n, q] is the GEMM's output or gradient operand: its row block i is
    depth tap i, which belongs to output plane p − i.  `frame`
    [kd, n, Hp, Wp] holds output planes p−kd+1 ... p on the padded grid: its
    last plane is row block 0, and `shifts` pairs each row block i ≥ 1 with
    frame plane kd−1−i.  The buffers are made and zeroed once per call.
    After each plane the frame's last kd−1 planes, the output planes still
    open, move to its head: this carry is the only write to its first kd−1
    planes.
    """
    m, dp, hp, wp = xp.shape
    kd, kh, kw = kext
    plane = hp * wp
    q = (hp - kh) * wp + wp - kw + 1
    offs = [j * wp + l for j, l in np.ndindex(kh, kw)]
    xf = xp.reshape(m, -1)
    cols = np.empty((m, len(offs), q), dtype=dtype)
    # frame planes 0 ... kd-1, then row blocks 1 ... kd-1 of gslab
    buf = np.zeros((2 * kd - 1, n, plane), dtype=dtype)
    gslab = buf[kd - 1:].reshape(kd * n, plane)[:, :q]
    shifts = [(buf[kd - 1 - i, :, :q], gslab[i * n:(i + 1) * n]) for i in range(1, kd)]
    frame = buf[:kd].reshape(kd, n, hp, wp)
    for p in range(dp):
        taps = [(cols[:, t], slice(p * plane + off, p * plane + off + q))
                for t, off in enumerate(offs)]
        for block, win in taps:
            block[...] = xf[:, win]
        yield p, frame, gslab, cols.reshape(-1, q), taps, shifts
        frame[:kd - 1] = frame[1:]


def _by_depth_tap(weights):
    """[n, m, kd, kh, kw] kernels as the [kd·n, m·kh·kw] matrix of `_planes`."""
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
    for p, frame, gslab, cols, taps, shifts in _planes(xp, kext, n, dtype):
        # the frame's head came by the carry; its last plane is output p
        if p < grad.shape[1]:
            frame[-1, :, :hu, :wu] = grad[:, p]
        else:
            frame[-1] = 0
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
    for p, frame, gslab, cols, _, shifts in _planes(xp, kext, y.shape[0], dtype):
        np.matmul(w2, cols, out=gslab)
        for acc, block in shifts:
            acc += block
        # the frame's first plane, output z, has had all kd of its input planes
        z = p - (kd - 1)
        if z >= 0:
            if bias is not None:
                frame[0] += bias[:, None, None]  # whole planes: fewer, longer loops
            y[:, z] = frame[0, :, :hu, :wu]
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


def _entries(x, window, name):
    """window as a tuple of ints, one >= 1 per axis of x."""
    for w in window:
        # bool is an int subclass, and 2.5 is no extent
        if isinstance(w, bool) or not isinstance(w, numbers.Integral):
            raise ValueError(f"{name} entries must be integers, got {w!r} in {tuple(window)}")
    window = tuple(int(w) for w in window)
    if len(window) != x.ndim:
        raise ValueError(
            f"{name} {window} must have one entry per tensor axis ({x.ndim})")
    if any(w < 1 for w in window):
        raise ValueError(f"{name} entries must be >= 1, got {window}")
    return window


def _check_window(x, window, name="window"):
    """window as a tuple of ints, one >= 1 per axis of x that divides its extent."""
    window = _entries(x, window, name)
    for ax, (s, w) in enumerate(zip(x.shape, window)):
        if s % w != 0:
            raise ValueError(
                f"extent {s} of axis {ax} is not divisible by {name} {w}")
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
    factor = _entries(x, factor, "factor")
    y = np.empty(tuple(s * f for s, f in zip(x.shape, factor)), dtype=x.dtype)
    # one strided copy of x per offset within the replication block
    for view in _window_views(y, factor):
        view[...] = x
    return y


def upsample_backward(grad, factor):
    """Adjoint of :func:`upsample`: sums gradients over each replicated block."""
    factor = _check_window(grad, factor, "factor")
    g = grad
    for ax, f in enumerate(factor):
        if f > 1:
            shape = g.shape[:ax] + (g.shape[ax] // f, f) + g.shape[ax + 1:]
            g = g.reshape(shape).sum(axis=ax + 1)
    return g
