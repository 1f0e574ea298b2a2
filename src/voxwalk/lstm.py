"""Gate nonlinearities of the LSTM cell (Hochreiter & Schmidhuber; the
convolutional form of Shi et al., arXiv:1506.04214).

The cell's linear transforms are supplied by the caller as stacked
pre-activations, so the same elementwise math serves any layout:
:class:`voxwalk.network.ConvLSTMUnit` feeds it the sum of its input-to-state
and state-to-state convolutions, one [4n,H,W] slice per scanned step.
"""

import numpy as np
from scipy.special import expit


def gate_math_forward(z, c_prev):
    """Apply the gate nonlinearities to stacked pre-activations.

    z: [4n, ...] pre-activations in (input, forget, cell, output) gate order.
    Returns (h, c, cache).
    """
    n = z.shape[0] // 4
    zi, zf, zc, zo = z[:n], z[n:2 * n], z[2 * n:3 * n], z[3 * n:]
    i = expit(zi)
    f = expit(zf)
    g = np.tanh(zc)
    o = expit(zo)
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    cache = (i, f, g, o, tc, c_prev)
    return h, c, cache


def gate_math_backward(dh, dc, cache):
    """Backward of :func:`gate_math_forward`.

    dh, dc: gradients w.r.t. the new hidden/cell values (dc may be zeros).
    Returns (dz [4n,...], dc_prev).
    """
    i, f, g, o, tc, c_prev = cache
    do = dh * tc
    dct = dc + dh * o * (1.0 - tc * tc)
    df = dct * c_prev
    di = dct * g
    dg = dct * i
    dc_prev = dct * f
    dzi = di * i * (1.0 - i)
    dzf = df * f * (1.0 - f)
    dzc = dg * (1.0 - g * g)
    dzo = do * o * (1.0 - o)
    dz = np.concatenate([dzi, dzf, dzc, dzo])
    return dz, dc_prev
