import numpy as np
import pytest

from voxwalk.convops import conv3d_backward, conv3d_forward

from gradcheck import grad_check
from test_lstm import random_unit


def test_linear_map_is_exact_to_roundoff():
    rng = np.random.default_rng(0)
    a = rng.normal(size=12)

    def f(p):
        return float(a @ p), a

    point = rng.normal(size=12)
    direction = rng.normal(size=12)
    assert grad_check(f, point, direction, 1e-4) <= 1e-10


def test_shape_mismatch_rejected():
    def f(p):
        return float(p.sum()), np.ones_like(p)

    with pytest.raises(ValueError, match="shape"):
        grad_check(f, np.zeros(3), np.zeros(4), 1e-4)


def test_nonfinite_values_raise():
    def f(p):
        return float("nan"), np.zeros_like(p)

    with pytest.raises(ValueError, match="non-finite"):
        grad_check(f, np.zeros(3), np.ones(3), 1e-4)


def _conv_relu_scalar(x, w, b, r):
    """conv3d+relu projected to a scalar; returns (value, grad wrt w, preacts)."""
    y, xp, pads = conv3d_forward(x, w, b)
    mask = y > 0
    value = float((np.maximum(y, 0.0) * r).sum())
    _, dw, _ = conv3d_backward(r * mask, xp, w, (1, 1, 1), pads)
    return value, dw, y


def test_conv3d_relu_gradient_away_from_kink():
    rng = np.random.default_rng(1)
    checked = 0
    for seed in range(200):
        srng = np.random.default_rng(seed)
        x = srng.normal(size=(2, 3, 4, 4))
        w0 = srng.normal(size=(2, 2, 3, 3, 3))
        b = srng.normal(size=2)
        r = srng.normal(size=(2, 3, 4, 4))
        direction = srng.normal(size=w0.shape)
        direction /= np.abs(direction).max()
        _, _, pre = _conv_relu_scalar(x, w0, b, r)
        if np.abs(pre).min() < 1e-3:  # too close to a ReLU kink: resample
            continue

        def f(w):
            value, dw, _ = _conv_relu_scalar(x, w, b, r)
            return value, dw

        assert grad_check(f, w0, direction, 1e-4) <= 1e-6
        checked += 1
        if checked >= 25:
            break
    assert checked >= 25


def test_convlstm_step_gradient_every_parameter_tensor():
    rng = np.random.default_rng(2)
    n, m, k = 2, 2, 3
    for _ in range(5):
        # moderate parameter scale keeps the gates away from saturation where
        # central differences pick up curvature noise
        unit = random_unit(rng, n, m, k, scale=0.5)
        x = rng.normal(size=(m, 3, 3, 3))  # 3 steps: gradients cross both recurrences
        r = rng.normal(size=(n, 3, 3, 3))
        for key in unit.keys:
            param = getattr(unit, key)
            for gate in range(4):
                rows = slice(gate * n, (gate + 1) * n)
                base = param[rows].copy()

                def f(p):
                    param[rows] = p
                    out, cache = unit.forward(x)
                    _, grads = unit.backward(r, cache)
                    param[rows] = base
                    return float((out * r).sum()), grads[key][rows]

                direction = rng.normal(size=base.shape)
                direction /= np.linalg.norm(direction)
                assert grad_check(f, base, direction, 1e-4) <= 1e-5, (key, gate)
