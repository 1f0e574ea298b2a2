"""Dense tensor operations: 3D/2D convolution, pooling, upsampling.

Everything works on plain numpy arrays in channels-first layout
([maps, depth, height, width] for volumes).  Each trainable op comes as a
forward/backward pair so the network code can run reverse-mode training
without an autograd framework.  Operations are pure functions of their
inputs and compute in numpy's promoted dtype of their arguments.  The
network casts its input volumes to float64 and draws float64 weights, so
training and inference run in float64.
"""

import numpy as np
from dataclasses import dataclass
from numpy.lib.stride_tricks import sliding_window_view


def relu(x):
    return np.maximum(x, 0.0)


def _as_triple(v):
    if np.isscalar(v):
        return (int(v),) * 3
    t = tuple(int(s) for s in v)
    if len(t) != 3:
        raise ValueError(f"expected 3 stride entries, got {v!r}")
    return t


@dataclass
class Conv3DParams:
    """Weights/bias of one 3D convolution.

    weights: [out_maps, in_maps, t_extent, k, k]
    bias:    [out_maps]
    stride:  positive step per spatial axis (depth, height, width)
    """

    weights: np.ndarray
    bias: np.ndarray
    stride: tuple = (1, 1, 1)

    def __post_init__(self):
        self.weights = np.asarray(self.weights)
        self.bias = np.asarray(self.bias)
        self.stride = _as_triple(self.stride)
        if self.weights.ndim != 5:
            raise ValueError(
                f"conv3d weights must be 5-D [n,m,d,k,k], got shape {self.weights.shape}")
        if self.bias.ndim != 1 or self.bias.shape[0] != self.weights.shape[0]:
            raise ValueError(
                f"bias shape {self.bias.shape} does not match {self.weights.shape[0]} "
                "output maps (one pair per output feature map)")
        if any(s < 1 for s in self.stride):
            raise ValueError(f"stride entries must be positive, got {self.stride}")


def _same_pad(k):
    lo = (k - 1) // 2
    return lo, (k - 1) - lo


def _pad_spatial(x, kernel_extents, padding, spatial_axes):
    """Zero-pad the spatial axes for 'same' output extents; no-op for 'valid'."""
    if padding == "valid":
        pads = [(0, 0)] * x.ndim
        return x, pads
    if padding != "same":
        raise ValueError(f"padding must be 'same' or 'valid', got {padding!r}")
    pads = [(0, 0)] * x.ndim
    for ax, k in zip(spatial_axes, kernel_extents):
        pads[ax] = _same_pad(k)
    return np.pad(x, pads), pads


def conv3d_forward(x, weights, bias, stride=(1, 1, 1), padding="valid"):
    """Cross-correlate a [m,D,H,W] volume with [n,m,d,k,k] kernels.

    Returns the pre-activation output [n,D',H',W'] together with the padded
    input (needed by :func:`conv3d_backward`) and the pad amounts.
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
    stride = _as_triple(stride)
    kext = weights.shape[2:]
    xp, pads = _pad_spatial(x, kext, padding, spatial_axes=(1, 2, 3))
    if any(xp.shape[1 + i] < kext[i] for i in range(3)):
        raise ValueError(
            f"kernel extents {kext} do not fit inside input extents {x.shape[1:]} "
            f"under {padding!r} padding")
    win = sliding_window_view(xp, kext, axis=(1, 2, 3))
    sd, sh, sw = stride
    win = win[:, ::sd, ::sh, ::sw]
    y = np.einsum("mopqijk,nmijk->nopq", win, weights, optimize=True)
    y += np.asarray(bias)[:, None, None, None]
    return y, xp, pads


def conv3d_backward(grad, xp, weights, stride, pads):
    """Gradients of a conv3d pre-activation w.r.t. input, weights, bias.

    grad: [n,D',H',W'] gradient at the output; xp is the padded input kept
    from the forward pass.  Works for any positive stride.
    """
    n, m, d, kh, kw = weights.shape
    do, ho, wo = grad.shape[1:]
    sd, sh, sw = _as_triple(stride)
    dbias = grad.sum(axis=(1, 2, 3))
    dweights = np.empty_like(weights)
    dxp = np.zeros_like(xp)
    for i in range(d):
        for j in range(kh):
            for l in range(kw):
                patch = xp[:, i:i + sd * do:sd, j:j + sh * ho:sh, l:l + sw * wo:sw]
                dweights[:, :, i, j, l] = np.einsum(
                    "nopq,mopq->nm", grad, patch, optimize=True)
                dxp[:, i:i + sd * do:sd, j:j + sh * ho:sh, l:l + sw * wo:sw] += np.einsum(
                    "nopq,nm->mopq", grad, weights[:, :, i, j, l], optimize=True)
    sl = tuple(slice(lo, dxp.shape[ax] - hi if hi else None)
               for ax, (lo, hi) in enumerate(pads))
    return dxp[sl], dweights, dbias


def conv3d(x, params, activation="relu", padding="valid"):
    """3D convolution with an optional ReLU, as used by the network units."""
    if activation not in ("relu", "none"):
        raise ValueError(f"activation must be 'relu' or 'none', got {activation!r}")
    y, _, _ = conv3d_forward(x, params.weights, params.bias, params.stride, padding)
    return relu(y) if activation == "relu" else y


def conv2d_forward(x, weights, bias=None, padding="same"):
    """Cross-correlate [m,H,W] (or [m,L,H,W] time-batched) input with
    [q,m,k,k] kernels at unit stride.  Returns (output, padded input, pads)."""
    x = np.asarray(x)
    weights = np.asarray(weights)
    if x.ndim not in (3, 4):
        raise ValueError(f"conv2d input must be [m,H,W] or [m,L,H,W], got shape {x.shape}")
    if x.shape[0] != weights.shape[1]:
        raise ValueError(
            f"input has {x.shape[0]} feature maps but weights {weights.shape} "
            f"expect {weights.shape[1]}")
    kext = weights.shape[2:]
    axes = (x.ndim - 2, x.ndim - 1)
    xp, pads = _pad_spatial(x, kext, padding, spatial_axes=axes)
    win = sliding_window_view(xp, kext, axis=axes)
    if x.ndim == 3:
        y = np.einsum("mhwij,qmij->qhw", win, weights, optimize=True)
    else:
        y = np.einsum("mlhwij,qmij->qlhw", win, weights, optimize=True)
    if bias is not None:
        y += np.asarray(bias).reshape((-1,) + (1,) * (x.ndim - 1))
    return y, xp, pads


def conv2d_backward(grad, xp, weights, pads, with_bias=True):
    """Gradients of conv2d_forward w.r.t. input, weights and bias."""
    q, m, kh, kw = weights.shape
    batched = grad.ndim == 4
    ho, wo = grad.shape[-2:]
    dbias = grad.sum(axis=tuple(range(1, grad.ndim))) if with_bias else None
    dweights = np.empty_like(weights)
    dxp = np.zeros_like(xp)
    for j in range(kh):
        for l in range(kw):
            patch = xp[..., j:j + ho, l:l + wo]
            if batched:
                dweights[:, :, j, l] = np.einsum("qlhw,mlhw->qm", grad, patch, optimize=True)
                dxp[..., j:j + ho, l:l + wo] += np.einsum(
                    "qlhw,qm->mlhw", grad, weights[:, :, j, l], optimize=True)
            else:
                dweights[:, :, j, l] = np.einsum("qhw,mhw->qm", grad, patch, optimize=True)
                dxp[..., j:j + ho, l:l + wo] += np.einsum(
                    "qhw,qm->mhw", grad, weights[:, :, j, l], optimize=True)
    sl = tuple(slice(lo, dxp.shape[ax] - hi if hi else None)
               for ax, (lo, hi) in enumerate(pads))
    return dxp[sl], dweights, dbias


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


def pool3d(x, window, mode):
    """Spec-level pooling: shrinks pooled extents, leaves map count unchanged
    when the map-axis window is 1."""
    y, _ = pool3d_forward(x, window, mode)
    return y


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
