import hashlib

import numpy as np
import pytest

from voxwalk import network
from voxwalk.convops import pool3d_forward, upsample
from voxwalk.lstm import sigmoid
from voxwalk.network import (
    NetworkSpec,
    RandomConnectionNet,
    TrainConfig,
    TrainingDiverged,
    infer,
    load_checkpoint,
    sample_mask,
    save_checkpoint,
    train_toy,
)

from gradcheck import grad_check


def fixed_forward(net, volume, keep_skips):
    """Reference composition of the same layers with hard-wired skip usage."""
    x = np.asarray(volume, dtype=net.dtype)[None]
    enc = []
    cur = x
    for i, unit in enumerate(net.encoders):
        if i > 0:
            cur, _ = pool3d_forward(cur, net.pool_window)
        cur, _ = unit.forward(cur)
        enc.append(cur)
    for i in reversed(range(net.spec.depth)):
        cur = upsample(cur, net.pool_window)
        cur, _ = net.upconvs[i].forward(cur)
        if keep_skips[i]:
            cur = cur + enc[i]
        cur, _ = net.decoders[i].forward(cur)
    z, _ = net.head.forward(cur)
    return sigmoid(z[0])


def small_conv_net(seed=0, depth=1, widths=(2, 3)):
    return RandomConnectionNet(
        NetworkSpec("conv3d", depth, widths, kernel=3, temporal_kernel=3,
                    alpha=0.5, rng_seed=seed))


def small_lstm_net(seed=0, depth=1, widths=(2, 3)):
    return RandomConnectionNet(
        NetworkSpec("convlstm", depth, widths, kernel=3, alpha=0.5, rng_seed=seed))


def test_spec_validation():
    with pytest.raises(ValueError, match="unit_type"):
        NetworkSpec("dense", 1, (2, 2))
    with pytest.raises(ValueError, match="depth\\+1"):
        NetworkSpec("conv3d", 2, (2, 2))
    with pytest.raises(ValueError, match="alpha"):
        NetworkSpec("conv3d", 1, (2, 2), alpha=1.5)
    with pytest.raises(ValueError, match=">= 1"):
        NetworkSpec("conv3d", 1, (2, 0))


def test_forward_probabilities_in_open_interval():
    rng = np.random.default_rng(0)
    for net, dims in [(small_conv_net(), (4, 4, 4)), (small_lstm_net(), (3, 4, 4))]:
        vol = rng.normal(0.5, 0.3, dims)
        p = net.forward(vol, mask=np.array([True]))
        assert p.shape == dims
        assert np.all(p > 0.0) and np.all(p < 1.0)


def test_mask_all_true_equals_fixed_connection_network():
    rng = np.random.default_rng(1)
    for net, dims in [(small_conv_net(1, 2, (2, 3, 4)), (8, 8, 8)),
                      (small_lstm_net(1, 2, (2, 3, 4)), (3, 8, 8))]:
        vol = rng.normal(0.5, 0.3, dims)
        got = net.forward(vol, mask=np.ones(2, dtype=bool))
        want = fixed_forward(net, vol, [True, True])
        assert np.array_equal(got, want)


def test_mask_all_false_equals_skipless_network():
    rng = np.random.default_rng(2)
    net = small_conv_net(3, 2, (2, 3, 4))
    vol = rng.normal(0.5, 0.3, (8, 8, 8))
    got = net.forward(vol, mask=np.zeros(2, dtype=bool))
    want = fixed_forward(net, vol, [False, False])
    assert np.array_equal(got, want)


def test_expectation_mode_degenerates_at_alpha_extremes():
    rng = np.random.default_rng(3)
    vol = rng.normal(0.5, 0.3, (4, 4, 4))
    for alpha, mask in [(1.0, np.ones(1, dtype=bool)), (0.0, np.zeros(1, dtype=bool))]:
        spec = NetworkSpec("conv3d", 1, (2, 3), alpha=alpha, rng_seed=4)
        net = RandomConnectionNet(spec)
        assert np.array_equal(net.forward(vol), net.forward(vol, mask=mask))


def test_indivisible_extents_rejected():
    net = small_conv_net(0, 2, (2, 2, 2))
    with pytest.raises(ValueError, match="divisible"):
        net.forward(np.zeros((6, 8, 8)))
    lstm = small_lstm_net(0, 2, (2, 2, 2))
    # the recurrence axis is not pooled, so any length works there
    lstm.forward(np.zeros((3, 4, 4)))
    with pytest.raises(ValueError, match="divisible"):
        lstm.forward(np.zeros((3, 6, 4)))


def test_sample_mask_extremes():
    rng = np.random.default_rng(0)
    assert not sample_mask(0.0, 5, rng).any()
    assert sample_mask(1.0, 5, rng).all()


def test_sample_mask_deterministic_and_calibrated():
    draws = np.stack([sample_mask(0.5, 3, np.random.default_rng(7)) for _ in range(3)])
    assert (draws == draws[0]).all()
    rng = np.random.default_rng(8)
    freq = np.mean([sample_mask(0.3, 4, rng) for _ in range(20000)], axis=0)
    assert np.all(np.abs(freq - 0.3) < 0.02)


def test_depth_three_masks_span_distinct_functions():
    net = small_conv_net(5, 3, (2, 2, 2, 2))
    rng = np.random.default_rng(5)
    vol = rng.normal(0.5, 0.3, (8, 8, 8))
    outputs = []
    for bits in range(8):
        mask = np.array([(bits >> i) & 1 == 1 for i in range(3)])
        outputs.append(net.forward(vol, mask=mask))
    for i in range(8):
        for j in range(i + 1, 8):
            assert np.max(np.abs(outputs[i] - outputs[j])) > 0


def test_feature_map_permutation_equivariance():
    net = small_conv_net(6, 1, (3, 2))
    rng = np.random.default_rng(6)
    vol = rng.normal(0.5, 0.3, (4, 4, 4))
    base = net.forward(vol, mask=np.array([True]))
    perm = np.array([2, 0, 1])
    net.encoders[0].weights[...] = net.encoders[0].weights[perm]
    net.encoders[0].bias[...] = net.encoders[0].bias[perm]
    net.encoders[1].weights[...] = net.encoders[1].weights[:, perm]
    net.upconvs[0].weights[...] = net.upconvs[0].weights[perm]
    net.upconvs[0].bias[...] = net.upconvs[0].bias[perm]
    net.decoders[0].weights[...] = net.decoders[0].weights[perm][:, perm]
    net.decoders[0].bias[...] = net.decoders[0].bias[perm]
    net.head.weights[...] = net.head.weights[:, perm]
    assert np.allclose(net.forward(vol, mask=np.array([True])), base, atol=1e-12)


@pytest.mark.parametrize("make, dims", [(small_conv_net, (8, 8, 8)),
                                        (small_lstm_net, (3, 8, 8))])
def test_network_computes_in_float32_end_to_end(monkeypatch, make, dims):
    # float64 volumes and labels in; a float64 gate scalar or any other
    # float64 operand would promote the arrays reaching the convolutions
    seen = []
    for name in ("conv3d_forward", "conv3d_backward", "conv2d_forward", "conv2d_backward"):
        def record(*args, _original=getattr(network, name), _name=name, **kwargs):
            seen.extend((_name, a.dtype) for a in args + tuple(kwargs.values())
                        if isinstance(a, np.ndarray))
            return _original(*args, **kwargs)
        monkeypatch.setattr(network, name, record)
    net = make(seed=18, depth=2, widths=(2, 3, 4))
    rng = np.random.default_rng(18)
    vol = rng.normal(0.5, 0.3, dims)
    label = (vol > 0.5).astype(np.float64)
    assert {arr.dtype for _, _, arr in net.parameters()} == {np.dtype(np.float32)}
    _, grads = net.loss_and_grads(vol, label, mask=np.array([True, False]))
    assert {d.dtype for g in grads for d in g.values()} == {np.dtype(np.float32)}
    assert net.forward(vol).dtype == np.float32
    assert {n for n, _ in seen} >= {"conv3d_forward", "conv3d_backward"}
    assert [(n, d) for n, d in seen if d != np.float32] == []


def _threshold_dataset(dims=(8, 8, 8), seed=9):
    rng = np.random.default_rng(seed)
    vol = rng.normal(0.5, 0.25, dims)
    label = (vol > 0.5).astype(np.float64)
    return [(vol, label)]


def test_training_halves_bce_on_threshold_task():
    spec = NetworkSpec("conv3d", 1, (2, 3), rng_seed=10)
    config = TrainConfig(learning_rate=0.5, epochs=200)
    net, history = train_toy(spec, config, _threshold_dataset())
    assert history[-1] < 0.5 * history[0]


def test_zero_learning_rate_leaves_parameters_unchanged():
    spec = NetworkSpec("conv3d", 1, (2, 2), rng_seed=11)
    before = [arr.copy() for _, _, arr in RandomConnectionNet(spec).parameters()]
    net, _ = train_toy(spec, TrainConfig(learning_rate=0.0, epochs=3),
                       _threshold_dataset())
    for (_, _, arr), old in zip(net.parameters(), before):
        assert np.array_equal(arr, old)


def test_alpha_one_training_matches_fixed_connection_trace():
    dataset = _threshold_dataset()
    spec = NetworkSpec("conv3d", 1, (2, 2), alpha=1.0, rng_seed=12)
    config = TrainConfig(learning_rate=0.3, epochs=5)
    net_a, hist_a = train_toy(spec, config, dataset, connection_mode="sampled")
    net_b, hist_b = train_toy(spec, config, dataset, connection_mode="all-true")
    assert hist_a == hist_b
    for (_, _, a), (_, _, b) in zip(net_a.parameters(), net_b.parameters()):
        assert np.array_equal(a, b)


def test_training_requires_data_and_consistent_shapes():
    spec = NetworkSpec("conv3d", 1, (2, 2), rng_seed=0)
    with pytest.raises(ValueError, match="empty"):
        train_toy(spec, TrainConfig(), [])
    with pytest.raises(ValueError, match="shape"):
        train_toy(spec, TrainConfig(),
                  [(np.zeros((4, 4, 4)), np.zeros((4, 4, 2)))])


def test_divergence_reports_iteration():
    spec = NetworkSpec("conv3d", 1, (2, 2), rng_seed=13)
    with pytest.raises(TrainingDiverged, match="iteration"):
        train_toy(spec, TrainConfig(learning_rate=1e8, epochs=50),
                  _threshold_dataset())


def test_nonfinite_gradient_with_finite_loss_diverges(monkeypatch):
    original = RandomConnectionNet.loss_and_grads

    def nan_head_bias(self, volume, label, mask=None):
        loss, grads = original(self, volume, label, mask)
        grads[-1]["bias"][...] = np.nan
        return loss, grads

    monkeypatch.setattr(RandomConnectionNet, "loss_and_grads", nan_head_bias)
    spec = NetworkSpec("conv3d", 1, (2, 2), rng_seed=13)
    with pytest.raises(TrainingDiverged, match="iteration 0"):
        train_toy(spec, TrainConfig(learning_rate=0.1), _threshold_dataset())


def test_train_config_validation():
    with pytest.raises(ValueError, match="learning_rate"):
        TrainConfig(learning_rate=-0.1)
    TrainConfig(learning_rate=0.0)  # explicitly allowed


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_train_config_rejects_non_finite_learning_rate(rate):
    with pytest.raises(ValueError, match="learning_rate must be finite"):
        TrainConfig(learning_rate=rate)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    for make, dims in [(small_conv_net, (4, 4, 4)), (small_lstm_net, (3, 4, 4))]:
        net = make(seed=15)
        vol = rng.normal(0.5, 0.3, dims)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, net)
        back = load_checkpoint(path)
        assert back.spec == net.spec
        # the parameters are float32, the dtype the checkpoint stores
        for (_, _, a), (_, _, b) in zip(net.parameters(), back.parameters()):
            assert a.dtype == b.dtype == np.float32 and np.array_equal(a, b)
        assert np.array_equal(net.forward(vol), back.forward(vol))


def test_convlstm_checkpoint_bytes_are_pinned(tmp_path):
    # Pins the initial draws, the gradient routing of 4 SGD steps and the
    # file layout: wx, wh and b are written as the per-gate (i,f,c,o)
    # tensors end to end, the layout of checkpoints written before the
    # weights were gate-stacked, so those still load under version 1.
    # The 4 steps run in float32; their parameters lie within 3.4e-8 of the
    # same steps run in float64, and within 3.7e-9 of the same steps with
    # scipy's expit in place of the tanh-form sigmoid.
    rng = np.random.default_rng(9)
    vol = rng.normal(0.5, 0.25, (4, 8, 8))
    spec = NetworkSpec("convlstm", 1, (2, 3), rng_seed=21)
    net, _ = train_toy(spec, TrainConfig(learning_rate=0.5, epochs=4),
                       [(vol, (vol > 0.5).astype(np.float64))])
    save_checkpoint(tmp_path / "net.ckpt", net)
    digest = hashlib.sha256((tmp_path / "net.ckpt").read_bytes()).hexdigest()
    assert digest == "b966fd0cb8debf7888b36a0b59cb9cdf01233d1a5fc43ae113791988da793684"


def test_checkpoint_corruption_detected(tmp_path):
    net = small_conv_net(seed=16)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    blob = path.read_bytes()
    (tmp_path / "short.ckpt").write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="ends early"):
        load_checkpoint(tmp_path / "short.ckpt")
    (tmp_path / "long.ckpt").write_bytes(blob + b"\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(tmp_path / "long.ckpt")
    (tmp_path / "junk.ckpt").write_bytes(b"\x02\x00\x00\x00{}")
    with pytest.raises(ValueError, match="not a network checkpoint"):
        load_checkpoint(tmp_path / "junk.ckpt")


def test_infer_modes():
    net = small_conv_net(seed=17)
    vol = np.random.default_rng(17).normal(0.5, 0.3, (4, 4, 4))
    assert np.array_equal(infer(net, vol), net.forward(vol))
    assert np.array_equal(infer(net, vol, mode="all-true"),
                          net.forward(vol, mask=np.array([True])))
    with pytest.raises(ValueError, match="mode"):
        infer(net, vol, mode="sampled")


def flatten_params(net):
    return np.concatenate([arr.reshape(-1) for _, _, arr in net.parameters()])


def scatter_params(net, vec):
    offset = 0
    for _, _, arr in net.parameters():
        arr[...] = vec[offset:offset + arr.size].reshape(arr.shape)
        offset += arr.size


def promote_to_float64(net):
    """Hold every parameter in float64, so the net computes in float64 and
    central differences resolve the gradient."""
    for layer in net._layers:
        for key in layer.keys:
            setattr(layer, key, getattr(layer, key).astype(np.float64))
    return net


def stability_signature(net, vol):
    """ReLU masks and pool argmax routes; equal signatures on both sides of a
    perturbation mean no kink was crossed."""
    gates = net._gates(None)
    _, caches = net._forward_full(vol, gates)
    enc_outs, enc_caches, pool_caches, dec_caches, hc = caches
    sig = []
    for c in enc_caches:
        if isinstance(c, tuple) and len(c) == 3 and c[2] is not None:
            sig.append(c[2].copy())
    for pc in pool_caches:
        sig.append(pc[4].copy())
    for upc, dc in dec_caches:
        if upc[2] is not None:
            sig.append(upc[2].copy())
        if isinstance(dc, tuple) and len(dc) == 3 and dc[2] is not None:
            sig.append(dc[2].copy())
    return sig


def network_loss_grad_check(unit_type, seed, epsilon=1e-4):
    """Directional derivative of the full training loss over all parameters.

    Returns the grad_check relative error, or None if the seed lands too
    close to a ReLU/pooling kink and should be resampled.
    """
    rng = np.random.default_rng(seed)
    if unit_type == "conv3d":
        net = promote_to_float64(small_conv_net(seed=seed))
        dims = (4, 4, 4)
    else:
        net = promote_to_float64(small_lstm_net(seed=seed))
        dims = (3, 4, 4)
    vol = rng.normal(0.5, 0.25, dims)
    label = (rng.random(dims) > 0.5).astype(np.float64)
    base = flatten_params(net)
    direction = rng.normal(size=base.size)
    direction /= np.linalg.norm(direction)

    def f(vec):
        scatter_params(net, vec)
        loss, grads = net.loss_and_grads(vol, label)
        flat = np.concatenate([
            np.concatenate([g[key].reshape(-1) for key in layer.keys])
            for layer, g in zip(net._layers, grads)])
        scatter_params(net, base)
        return loss, flat

    if unit_type == "conv3d":
        scatter_params(net, base + epsilon * direction)
        sig_plus = stability_signature(net, vol)
        scatter_params(net, base - epsilon * direction)
        sig_minus = stability_signature(net, vol)
        scatter_params(net, base)
        if any(not np.array_equal(a, b) for a, b in zip(sig_plus, sig_minus)):
            return None
    return grad_check(f, base, direction, epsilon)


@pytest.mark.parametrize("unit_type", ["conv3d", "convlstm"])
def test_full_network_loss_gradient(unit_type):
    checked = 0
    for seed in range(60):
        err = network_loss_grad_check(unit_type, seed)
        if err is None:
            continue
        assert err <= 1e-4, f"seed {seed}: {err}"
        checked += 1
        if checked >= 20:
            break
    assert checked >= 20
