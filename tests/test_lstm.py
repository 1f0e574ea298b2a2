"""ConvLSTMUnit and the gate math against the loop oracles.

The unit starts every sequence from a zero state, so the oracles are
chained step by step from zeros over the same sequence.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from voxwalk.lstm import gate_math_forward
from voxwalk.network import ConvLSTMUnit

from oracles import convlstm_oracle, lstm_oracle, numeric_grad


def gate_views(unit, tap=None):
    """Per-gate views of a unit's stacked weights under the oracles' field
    names; tap=j keeps only kernel tap (j,j), as [n,m] matrices."""
    n = unit.b.shape[0] // 4
    taps = () if tap is None else (tap, tap)
    views = {}
    for g, gate in enumerate("ifco"):
        rows = (slice(g * n, (g + 1) * n), slice(None)) + taps
        views.update({f"w_x{gate}": unit.wx[rows], f"w_h{gate}": unit.wh[rows],
                      f"b_{gate}": unit.b[rows[0]]})
    return SimpleNamespace(**views)


def random_unit(rng, n, m, k, scale=1.0):
    """ConvLSTMUnit (m -> n maps, k x k kernels) with normal weights and biases."""
    unit = ConvLSTMUnit(m, n, k, rng)
    for key in unit.keys:
        arr = getattr(unit, key)
        arr[...] = scale * rng.normal(size=arr.shape)
    return unit


def chained_oracle(oracle, params, xs):
    """Hidden states of `oracle` run over the [m,...] steps xs from zero state."""
    h = np.zeros((len(params.b_i),) + xs[0].shape[1:])
    c = np.zeros_like(h)
    hs = []
    for x in xs:
        h, c = oracle(x, h, c, params)
        hs.append(h)
    return hs


def test_lstm_zero_parameters_give_zero_state():
    unit = random_unit(np.random.default_rng(0), 3, 2, 1, scale=0.0)
    out, _ = unit.forward(np.ones((2, 3, 1, 1)))
    assert np.array_equal(out, np.zeros((3, 3, 1, 1)))


def test_convlstm_zero_parameters_zero_state():
    unit = random_unit(np.random.default_rng(0), 2, 1, 3, scale=0.0)
    out, _ = unit.forward(np.ones((1, 3, 4, 4)))
    assert np.array_equal(out, np.zeros((2, 3, 4, 4)))


def test_lstm_saturated_forget_gate_keeps_cell():
    rng = np.random.default_rng(1)
    z = np.zeros(12)
    z[3:6] = 40.0  # forget gate ~ 1; input, cell and output pre-activations 0
    c_prev = rng.normal(size=3)
    _, c, _ = gate_math_forward(z, c_prev)
    assert np.allclose(c, c_prev, atol=1e-12)


def test_lstm_gates_stay_in_open_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = rng.normal(scale=6.0, size=(16, 3, 3))
        _, _, (i, f, _, o, _, _) = gate_math_forward(z, rng.normal(size=(4, 3, 3)))
        for gate in (i, f, o):
            assert np.all(gate > 0.0) and np.all(gate < 1.0)


def test_convlstm_cell_growth_bounded():
    rng = np.random.default_rng(7)
    for _ in range(10):
        z = rng.normal(scale=20.0, size=(8, 3, 3))
        c_prev = rng.normal(size=(2, 3, 3))
        _, c, _ = gate_math_forward(z, c_prev)
        assert np.all(np.abs(c) <= np.abs(c_prev) + 1.0 + 1e-12)


def test_convlstm_matches_loop_oracle():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n, m, length = rng.integers(1, 4), rng.integers(1, 4), rng.integers(3, 5)
        k = rng.choice([1, 3])
        hh, ww = rng.integers(2, 5, size=2)
        unit = random_unit(rng, n, m, k)
        x = rng.normal(size=(m, length, hh, ww))
        out, _ = unit.forward(x)
        hs = chained_oracle(convlstm_oracle, gate_views(unit), list(np.moveaxis(x, 1, 0)))
        for t, h0 in enumerate(hs):
            assert np.allclose(out[:, t], h0, rtol=1e-12, atol=1e-14)


def test_lstm_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n, m, length = rng.integers(1, 5), rng.integers(1, 5), rng.integers(3, 5)
        unit = random_unit(rng, n, m, 1)
        x = rng.normal(size=(m, length))
        out, _ = unit.forward(x[:, :, None, None])
        hs = chained_oracle(lstm_oracle, gate_views(unit, tap=0), list(x.T))
        for t, h0 in enumerate(hs):
            assert np.allclose(out[:, t, 0, 0], h0, rtol=1e-12, atol=1e-14)


def test_convlstm_degenerates_to_lstm_at_unit_extent():
    # on a 1x1 extent 'same' padding leaves only the centre tap of a 3x3 kernel
    rng = np.random.default_rng(6)
    for _ in range(25):
        n, m, length = rng.integers(1, 5), rng.integers(1, 5), rng.integers(3, 5)
        unit = random_unit(rng, n, m, 3)
        x = rng.normal(size=(m, length))
        out, _ = unit.forward(x[:, :, None, None])
        hs = chained_oracle(lstm_oracle, gate_views(unit, tap=1), list(x.T))
        for t, h0 in enumerate(hs):
            assert np.allclose(out[:, t, 0, 0], h0, rtol=1e-12, atol=1e-15)


def test_lstm_dimension_mismatch_rejected():
    unit = random_unit(np.random.default_rng(0), 3, 2, 1)
    with pytest.raises(ValueError, match=r"\[m,L,H,W\]"):
        unit.forward(np.zeros((2, 3)))


def test_convlstm_map_count_mismatch_rejected():
    unit = random_unit(np.random.default_rng(0), 2, 3, 3)
    with pytest.raises(ValueError, match="feature maps"):
        unit.forward(np.zeros((1, 3, 4, 4)))


def check_unit_backward(rng, n, m, k, extent, atol):
    """dx and every parameter gradient of a length-3 scan against numeric_grad."""
    unit = random_unit(rng, n, m, k)
    x = rng.normal(size=(m, 3) + extent)
    r = rng.normal(size=(n, 3) + extent)

    def run():
        out, _ = unit.forward(x)
        return float((out * r).sum())

    _, cache = unit.forward(x)
    dx, grads = unit.backward(r, cache)
    assert np.allclose(dx, numeric_grad(run, x), atol=atol)
    for key in unit.keys:
        assert np.allclose(grads[key], numeric_grad(run, getattr(unit, key)), atol=atol), key


def test_lstm_backward_matches_numeric():
    check_unit_backward(np.random.default_rng(4), 3, 2, 1, (1, 1), atol=1e-8)


def test_convlstm_backward_matches_numeric():
    check_unit_backward(np.random.default_rng(8), 2, 2, 3, (3, 4), atol=1e-7)
