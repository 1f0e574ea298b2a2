"""Brute-force reference implementations used to cross-check the library.

Everything here is written as direct loop transcriptions of the defining
formulas, independent of the vectorized code paths under test.
"""

import math

import numpy as np


def conv3d_oracle(x, weights, bias):
    """Quadruple-loop 3D cross-correlation at unit stride, 'same'-padded."""
    m, dd, hh, ww = x.shape
    n, m2, kd, kh, kw = weights.shape
    assert m == m2
    xp = np.zeros((m, dd + kd - 1, hh + kh - 1, ww + kw - 1))
    xp[:, (kd - 1) // 2:(kd - 1) // 2 + dd,
       (kh - 1) // 2:(kh - 1) // 2 + hh,
       (kw - 1) // 2:(kw - 1) // 2 + ww] = x
    y = np.zeros((n, dd, hh, ww))
    for o in range(n):
        for a in range(dd):
            for b in range(hh):
                for c in range(ww):
                    s = bias[o]
                    for q in range(m):
                        for i in range(kd):
                            for j in range(kh):
                                for l in range(kw):
                                    s += weights[o, q, i, j, l] * xp[q, a + i, b + j, c + l]
                    y[o, a, b, c] = s
    return y


def pool_oracle(x, window):
    """Loop-based non-overlapping max pooling over an arbitrary-rank tensor."""
    out_shape = tuple(s // w for s, w in zip(x.shape, window))
    y = np.zeros(out_shape)
    for idx in np.ndindex(out_shape):
        block = x[tuple(slice(i * w, (i + 1) * w) for i, w in zip(idx, window))]
        y[idx] = block.max()
    return y


def upsample_oracle(x, factor):
    """Index-map upsampling: y[i] = x[i // f]."""
    out_shape = tuple(s * f for s, f in zip(x.shape, factor))
    y = np.zeros(out_shape)
    for idx in np.ndindex(out_shape):
        y[idx] = x[tuple(i // f for i, f in zip(idx, factor))]
    return y


def _sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def lstm_oracle(x, h_prev, c_prev, p):
    """Scalar-loop evaluation of the gated cell update."""
    n, m = p.w_xi.shape

    def lin(wx, wh, b, u):
        s = b[u]
        for a in range(m):
            s += wx[u, a] * x[a]
        for v in range(n):
            s += wh[u, v] * h_prev[v]
        return s

    h = np.zeros(n)
    c = np.zeros(n)
    for u in range(n):
        i = _sig(lin(p.w_xi, p.w_hi, p.b_i, u))
        f = _sig(lin(p.w_xf, p.w_hf, p.b_f, u))
        g = math.tanh(lin(p.w_xc, p.w_hc, p.b_c, u))
        o = _sig(lin(p.w_xo, p.w_ho, p.b_o, u))
        c[u] = f * c_prev[u] + i * g
        h[u] = o * math.tanh(c[u])
    return h, c


def conv2d_same_oracle(x, weights):
    """Loop-based 'same'-padded 2D cross-correlation (no bias)."""
    m, hh, ww = x.shape
    n, m2, kh, kw = weights.shape
    assert m == m2
    xp = np.zeros((m, hh + kh - 1, ww + kw - 1))
    xp[:, (kh - 1) // 2:(kh - 1) // 2 + hh, (kw - 1) // 2:(kw - 1) // 2 + ww] = x
    y = np.zeros((n, hh, ww))
    for o in range(n):
        for a in range(hh):
            for b in range(ww):
                s = 0.0
                for q in range(m):
                    for j in range(kh):
                        for l in range(kw):
                            s += weights[o, q, j, l] * xp[q, a + j, b + l]
                y[o, a, b] = s
    return y


def convlstm_oracle(x_t, h_prev, c_prev, p):
    """Per-pixel evaluation of the convolutional cell update."""
    n = p.w_xi.shape[0]
    zi = conv2d_same_oracle(x_t, p.w_xi) + conv2d_same_oracle(h_prev, p.w_hi) \
        + p.b_i[:, None, None]
    zf = conv2d_same_oracle(x_t, p.w_xf) + conv2d_same_oracle(h_prev, p.w_hf) \
        + p.b_f[:, None, None]
    zc = conv2d_same_oracle(x_t, p.w_xc) + conv2d_same_oracle(h_prev, p.w_hc) \
        + p.b_c[:, None, None]
    zo = conv2d_same_oracle(x_t, p.w_xo) + conv2d_same_oracle(h_prev, p.w_ho) \
        + p.b_o[:, None, None]
    h = np.zeros_like(h_prev)
    c = np.zeros_like(c_prev)
    for u in range(n):
        for a in range(h.shape[1]):
            for b in range(h.shape[2]):
                i = _sig(zi[u, a, b])
                f = _sig(zf[u, a, b])
                g = math.tanh(zc[u, a, b])
                o = _sig(zo[u, a, b])
                c[u, a, b] = f * c_prev[u, a, b] + i * g
                h[u, a, b] = o * math.tanh(c[u, a, b])
    return h, c


def neighbors6(idx, dims):
    """In-bounds 6-connected lattice neighbors of a (d,h,w) triple."""
    out = []
    for ax in range(3):
        for step in (-1, 1):
            cand = list(idx)
            cand[ax] += step
            if 0 <= cand[ax] < dims[ax]:
                out.append(tuple(cand))
    return out


def assemble_oracle(selection, intensity, beta, include_dirichlet=True):
    """Loop-built walker graph of a selection on a [0,1] intensity volume.

    Returns the sorted (i, j, w) edges, each candidate pair once from its
    lower voxel, and the sorted (i, label, w) Dirichlet terms, with i and j
    positions in the candidate ordering.
    """
    dims = selection.dims
    flat = intensity.reshape(-1)
    pos = {int(v): i for i, v in enumerate(selection.candidate_idx)}
    label = dict(zip(selection.confident_idx.tolist(),
                     selection.confident_labels.tolist()))
    edges, dirichlet = [], []
    for v, i in pos.items():
        for nb in neighbors6(np.unravel_index(v, dims), dims):
            u = int(np.ravel_multi_index(nb, dims))
            w = float(np.exp(-beta * (flat[min(u, v)] - flat[max(u, v)]) ** 2))
            if u in pos:
                if v < u:
                    edges.append((i, pos[u], w))
            elif include_dirichlet:
                dirichlet.append((i, label[u], w))
    return sorted(edges), sorted(dirichlet)


def node_energy_oracle(p, voxel):
    """Loop evaluation of one voxel's selection energy over K maps."""
    k_maps = p.shape[0]
    dims = p.shape[1:]
    if np.isscalar(voxel):
        voxel = tuple(int(v) for v in np.unravel_index(voxel, dims))

    def vec(k, at):
        q = p[(k,) + at]
        return np.array([q, 1.0 - q])

    def cos(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    energy = 0.0
    for k in range(k_maps):
        v = vec(k, voxel)
        q = p[(k,) + voxel]
        energy += (1.0 - 2.0 * q) ** 2
        for nb in neighbors6(voxel, dims):
            energy += cos(v, vec(k, nb))
        for k2 in range(k_maps):
            if k2 != k:
                energy += cos(v, vec(k2, voxel))
    return energy


def dense_system_oracle(graph):
    """Loop-built dense stationarity system of the walker energy."""
    n = graph.n_candidates
    a = np.zeros((n, n))
    b = np.zeros(n)
    for i in range(n):
        a[i, i] += graph.prior_fg[i] + graph.prior_bg[i]
        b[i] += graph.prior_fg[i]
    for (i, j), w in zip(graph.edges, graph.edge_weights):
        a[i, i] += w * w
        a[j, j] += w * w
        a[i, j] -= w * w
        a[j, i] -= w * w
    for i, lab, w in zip(graph.dirichlet_idx, graph.dirichlet_labels,
                         graph.dirichlet_weights):
        a[i, i] += w * w
        b[i] += w * w * float(lab)
    return a, b


def walker_energy_oracle(graph, x):
    """Direct evaluation of the walker objective at candidate values x."""
    energy = 0.0
    for i in range(graph.n_candidates):
        energy += graph.prior_fg[i] * (x[i] - 1.0) ** 2
        energy += graph.prior_bg[i] * x[i] ** 2
    for (i, j), w in zip(graph.edges, graph.edge_weights):
        energy += w * w * (x[i] - x[j]) ** 2
    for i, lab, w in zip(graph.dirichlet_idx, graph.dirichlet_labels,
                         graph.dirichlet_weights):
        energy += w * w * (x[i] - float(lab)) ** 2
    return energy


def numeric_grad(f, arr, eps=1e-6):
    """Elementwise central-difference gradient of scalar f at arr."""
    g = np.zeros_like(arr, dtype=np.float64)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = arr[idx]
        arr[idx] = old + eps
        fp = f()
        arr[idx] = old - eps
        fm = f()
        arr[idx] = old
        g[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return g
