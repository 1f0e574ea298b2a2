import ast
import hashlib
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from voxwalk import convops, network
from voxwalk.convops import pool3d_forward, upsample
from voxwalk.network import (
    NetworkSpec,
    RandomConnectionNet,
    TrainConfig,
    TrainingDiverged,
    infer,
    load_checkpoint,
    sample_mask,
    save_checkpoint,
    sigmoid,
    train_toy,
)

from gradcheck import grad_check


def fixed_forward(net, volume, keep_skips):
    """Reference composition of the same layers with hard-wired skip usage.

    It upsamples before the 1×1×1 projection, where the network projects on
    the coarse grid and upsamples after, so the array_equal tests against it
    also check that the two orders commute bit for bit."""
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
    # a checkpoint header may hold any JSON value: no bool, and no fraction
    for field, value in [("depth", True), ("depth", 1.0), ("kernel", 3.5),
                         ("temporal_kernel", True), ("rng_seed", True), ("rng_seed", 0.5),
                         ("rng_seed", -1)]:
        with pytest.raises(ValueError, match=field):
            NetworkSpec(**{"unit_type": "conv3d", "depth": 1, "widths": (2, 2), field: value})
    for widths in [(2.9, 3), (2, 3.5), (True, 2)]:
        with pytest.raises(ValueError, match="widths"):
            NetworkSpec("conv3d", 1, widths)
    for alpha in [True, "0.5", None]:
        with pytest.raises(ValueError, match="alpha"):
            NetworkSpec("conv3d", 1, (2, 2), alpha=alpha)
    spec = NetworkSpec("conv3d", np.int64(1), (np.int64(2), np.int32(3)), alpha=np.float32(0.5))
    assert spec.widths == (2, 3) and all(type(w) is int for w in spec.widths)


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
    assert net.params.dtype == np.float32
    _, grad = net.loss_and_grads(vol, label, mask=np.array([True, False]))
    assert grad.dtype == np.float32 and grad.shape == net.params.shape
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
    before = RandomConnectionNet(spec).params.copy()
    net, _ = train_toy(spec, TrainConfig(learning_rate=0.0, epochs=3),
                       _threshold_dataset())
    assert np.array_equal(net.params, before)


def test_alpha_one_trains_and_infers_the_fixed_connection_network(monkeypatch):
    masks = []
    original = RandomConnectionNet.loss_and_grads

    def record_mask(self, volume, label, mask=None):
        masks.append(mask)
        return original(self, volume, label, mask)

    monkeypatch.setattr(RandomConnectionNet, "loss_and_grads", record_mask)
    dataset = _threshold_dataset()
    spec = NetworkSpec("conv3d", 2, (2, 2, 2), alpha=1.0, rng_seed=12)
    net, _ = train_toy(spec, TrainConfig(learning_rate=0.3, epochs=5), dataset)
    assert len(masks) == 5
    for mask in masks:
        assert isinstance(mask, np.ndarray) and mask.dtype == np.bool_
        assert mask.shape == (2,) and mask.all()
    vol = dataset[0][0]
    assert np.array_equal(infer(net, vol), net.forward(vol, mask=np.ones(2, dtype=bool)))


def test_training_requires_data_and_consistent_shapes():
    spec = NetworkSpec("conv3d", 1, (2, 2), rng_seed=0)
    with pytest.raises(ValueError, match="empty"):
        train_toy(spec, TrainConfig(learning_rate=0.1, epochs=1), [])
    with pytest.raises(ValueError, match="shape"):
        train_toy(spec, TrainConfig(learning_rate=0.1, epochs=1),
                  [(np.zeros((4, 4, 4)), np.zeros((4, 4, 2)))])


def test_divergence_reports_iteration():
    spec = NetworkSpec("conv3d", 1, (2, 2), rng_seed=13)
    with pytest.raises(TrainingDiverged, match="iteration"):
        train_toy(spec, TrainConfig(learning_rate=1e8, epochs=50),
                  _threshold_dataset())


def test_nonfinite_gradient_with_finite_loss_diverges(monkeypatch):
    original = RandomConnectionNet.loss_and_grads

    def nan_head_bias(self, volume, label, mask=None):
        loss, grad = original(self, volume, label, mask)
        grad[-1] = np.nan  # the head bias, the last parameter
        return loss, grad

    monkeypatch.setattr(RandomConnectionNet, "loss_and_grads", nan_head_bias)
    spec = NetworkSpec("conv3d", 1, (2, 2), rng_seed=13)
    with pytest.raises(TrainingDiverged, match="iteration 0"):
        train_toy(spec, TrainConfig(learning_rate=0.1, epochs=1), _threshold_dataset())


def test_train_config_validation():
    for rate in (-0.1, True, "0.1"):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate, epochs=1)
    TrainConfig(learning_rate=0.0, epochs=1)  # explicitly allowed
    for epochs in (2.5, True):
        with pytest.raises(ValueError, match="epochs must be an integer"):
            TrainConfig(learning_rate=0.1, epochs=epochs)
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        TrainConfig(learning_rate=0.1, epochs=0)
    assert TrainConfig(learning_rate=0.1, epochs=np.int64(2)).epochs == 2


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
def test_train_config_rejects_non_finite_learning_rate(rate):
    with pytest.raises(ValueError, match="learning_rate must be finite"):
        TrainConfig(learning_rate=rate, epochs=1)


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
        assert back.params.dtype == np.float32 and np.array_equal(net.params, back.params)
        assert np.array_equal(net.forward(vol), back.forward(vol))


def in_one_blas_thread(fn, *args):
    """fn(*args), computed in a child process under OPENBLAS_NUM_THREADS=1,
    the benchmark's setting.  OpenBLAS's sgemm sums in an order that depends
    on its thread count, so a byte pin holds at one count only, and the
    child fixes it whatever count this process runs at.  (OpenBLAS built
    with DYNAMIC_ARCH also picks its kernels per CPU, which may still move
    the bytes on another CPU model.)  fn is a function of this module; its
    result comes back through repr."""
    tests = Path(__file__).parent
    path = os.pathsep.join(filter(None, [str(tests.parent / "src"), str(tests),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    code = f"import test_network; print(repr(test_network.{fn.__name__}(*{args!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return ast.literal_eval(out.stdout)


def checkpoint_digest(path, unit_type, depth, widths, rng_seed):
    """sha256 of the checkpoint after 4 SGD steps on one 4x8x8 volume."""
    rng = np.random.default_rng(9)
    vol = rng.normal(0.5, 0.25, (4, 8, 8))
    spec = NetworkSpec(unit_type, depth, widths, rng_seed=rng_seed)
    net, _ = train_toy(spec, TrainConfig(learning_rate=0.5, epochs=4),
                       [(vol, (vol > 0.5).astype(np.float64))])
    save_checkpoint(path, net)
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_convlstm_checkpoint_bytes_are_pinned(tmp_path):
    # Pins the initial draws, the gradient routing of 4 SGD steps and the
    # file layout: wx, wh and b are written as the per-gate (i,f,c,o)
    # tensors end to end, the layout of checkpoints written before the
    # weights were gate-stacked, so those still load under version 1.
    # The 4 steps run in float32.  Run from the float64 promotion of the same
    # initial float32 parameters with the same masks, they end at most 4.1e-8
    # from these parameters (the largest absolute difference); run in float32
    # with scipy's expit in place of the tanh-form sigmoid, at most 3.7e-9.
    digest = in_one_blas_thread(checkpoint_digest, str(tmp_path / "net.ckpt"),
                                "convlstm", 1, (2, 3), 21)
    assert digest == "239e8c6657e1d5ab1c9b11a0f333d1bab5cbc3eb81b9f3d044a474f09968ce82"


@pytest.mark.parametrize("unit_type, digest", [
    ("conv3d", "fa433e1b816edabc159e13c36e0eda1ebeaf2e705e0e1ce08e09e8e8ffaa6892"),
    ("convlstm", "4d1df6f4b58bc550f6850a31b108235a649af1173e70ff5c7622e27cb7e78e26"),
], ids=["conv3d", "convlstm"])
def test_depth2_checkpoint_bytes_are_pinned(tmp_path, unit_type, digest):
    # Pins the gradient routing through two levels: the 4 SGD steps pass
    # through both pools and the bridge, and the sampled masks open each
    # skip in one step and close it in the other three.  Run from the
    # float64 promotion of the same initial float32 parameters with the same
    # masks, the 4 steps end at most 6.5e-8 (conv3d) and 3.1e-8 (convlstm)
    # from these float32 parameters (the largest absolute difference).
    assert in_one_blas_thread(checkpoint_digest, str(tmp_path / "net.ckpt"),
                              unit_type, 2, (2, 3, 4), 22) == digest


def depth2_net_and_volume(unit_type):
    """A seeded depth-2 net (widths 4,8,16) and a 16x32x32 volume (16,384
    voxels), where the level-0 convolutions span several slabs."""
    net = RandomConnectionNet(NetworkSpec(unit_type, 2, (4, 8, 16), rng_seed=5))
    return net, np.random.default_rng(5).normal(0.5, 0.25, (16, 32, 32))


def multi_slab_gradient_digest(unit_type):
    """(most slabs in one conv call, sha256 of the float32 gradient of one
    loss_and_grads at 16x32x32)."""
    slabs_per_call = []
    slabs = convops._slabs

    def count(*args):
        slabs_per_call.append(0)
        for item in slabs(*args):
            slabs_per_call[-1] += 1
            yield item

    convops._slabs = count
    try:
        net, vol = depth2_net_and_volume(unit_type)
        _, grad = net.loss_and_grads(vol, (vol > 0.5).astype(np.float64),
                                     mask=np.array([True, False]))
    finally:
        convops._slabs = slabs
    return max(slabs_per_call), hashlib.sha256(grad.tobytes()).hexdigest()


@pytest.mark.parametrize("unit_type, digest", [
    ("conv3d", "7a77d8cff812b60f1d15216876845bb90370e036a7d0d754aaa25c5bbd18e65d"),
    ("convlstm", "2ba449c1217059b45ff0a242b861e845eaf9d37eee7ccf9c9927da6cfb4abe1a"),
], ids=["conv3d", "convlstm"])
def test_multi_slab_gradient_bytes_are_pinned(unit_type, digest):
    # Pins the float32 gradient of one loss_and_grads at 16x32x32, where the
    # level-0 convolutions span several slabs; the checkpoint pins above
    # train on 4x8x8 volumes, where every convolution fits in one slab.
    # The float64 promotion of the same parameters gives a gradient at most
    # 1.0e-9 (conv3d) and 2.7e-10 (convlstm) from this one (the largest
    # absolute difference).
    slabs, got = in_one_blas_thread(multi_slab_gradient_digest, unit_type)
    assert slabs > 1
    assert got == digest


def infer_digest(unit_type):
    """sha256 of the float32 output of infer on depth2_net_and_volume."""
    return hashlib.sha256(infer(*depth2_net_and_volume(unit_type)).tobytes()).hexdigest()


@pytest.mark.parametrize("unit_type, digest", [
    ("conv3d", "6ccfb1694312adc7e0c8841221842397a7e1908bdb79548acbb080028a9f7698"),
    ("convlstm", "887cefd1edbd921105099f20a1a661cae3e67c357b28da9a6dcbff3a01ee1b7f"),
], ids=["conv3d", "convlstm"])
def test_infer_bytes_are_pinned(unit_type, digest):
    # Pins the output of the inference forward, which pushes its caches onto
    # a sink that keeps nothing, where the level-0 convolutions span several
    # slabs; the training pins above never run that sink.
    assert in_one_blas_thread(infer_digest, unit_type) == digest


def traced_peak(fn, *args):
    """tracemalloc peak in bytes of fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def training_step_peak(unit_type):
    """Peak of one loss_and_grads on depth2_net_and_volume with every skip open."""
    net, vol = depth2_net_and_volume(unit_type)
    label = (vol > 0.5).astype(np.float64)
    return traced_peak(net.loss_and_grads, vol, label, np.ones(2, dtype=bool))


def test_convlstm_training_step_peak_memory_is_bounded():
    """The ConvLSTM step peaks at ~7.64 MiB (~489 B per voxel) when the unit
    caches only its gates and cell sequence, each level frees its caches as
    the backward uses them, and each expanding level projects on the coarse
    grid and merges into its skip's buffer.  Projecting at full resolution
    peaks at ~8.20 MiB, and caching every step's activations, tanh(c) and
    padded hidden state at ~12.4 MiB; both fail the bound."""
    assert training_step_peak("convlstm") <= 7.9 * (1 << 20)


def test_conv3d_training_step_peak_memory_is_bounded():
    """The conv3d step peaks at ~3.82 MiB (~245 B per voxel) when each
    expanding level projects on the coarse grid and merges into its skip's
    buffer; projecting at full resolution peaks at ~4.54 MiB and fails."""
    assert training_step_peak("conv3d") <= 4.2 * (1 << 20)


def test_convlstm_infer_peak_memory_is_bounded():
    """ConvLSTM inference peaks at ~3.59 MiB (~230 B per voxel) when each
    layer's cache is freed as the layer returns; keeping the training
    caches until the forward ends peaks at ~7.00 MiB and fails."""
    assert traced_peak(infer, *depth2_net_and_volume("convlstm")) <= 4.2 * (1 << 20)


def test_conv3d_infer_peak_memory_is_bounded():
    """conv3d inference peaks at ~2.79 MiB (~179 B per voxel) when each
    layer's cache is freed as the layer returns; keeping the training
    caches until the forward ends peaks at ~3.23 MiB and fails."""
    assert traced_peak(infer, *depth2_net_and_volume("conv3d")) <= 3.0 * (1 << 20)


@pytest.mark.parametrize("make, dims", [(small_conv_net, (4, 4, 4)),
                                        (small_lstm_net, (3, 4, 4))])
def test_backward_uses_up_the_caches(make, dims):
    net = make(seed=20)
    vol = np.random.default_rng(20).normal(0.5, 0.3, dims)
    gates = net._gates(np.array([True]))
    caches = []
    z = net._forward_full(vol, gates, caches)
    net._backward_full(np.ones_like(z), caches, gates)
    with pytest.raises(ValueError, match="cache is used up"):
        net._backward_full(np.ones_like(z), caches, gates)


def test_checkpoint_corruption_detected(tmp_path):
    net = small_conv_net(seed=16)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net)
    blob = path.read_bytes()
    # whole and partial float32 words
    for cut in (8, 1):
        (tmp_path / "short.ckpt").write_bytes(blob[:-cut])
        with pytest.raises(ValueError, match="ends early"):
            load_checkpoint(tmp_path / "short.ckpt")
    for pad in (4, 1):
        (tmp_path / "long.ckpt").write_bytes(blob + b"\x00" * pad)
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(tmp_path / "long.ckpt")
    (tmp_path / "junk.ckpt").write_bytes(b"\x02\x00\x00\x00{}")
    with pytest.raises(ValueError, match="not a network checkpoint"):
        load_checkpoint(tmp_path / "junk.ckpt")


@pytest.mark.parametrize("make, dims", [(small_conv_net, (8, 8, 8)),
                                        (small_lstm_net, (3, 8, 8))])
def test_layer_arrays_are_views_of_params(tmp_path, make, dims):
    def assert_views_in_declaration_order(net):
        offset = 0
        for layer in net._layers:
            for key in layer.keys:
                arr = getattr(layer, key)
                assert arr.dtype == net.params.dtype and np.shares_memory(arr, net.params)
                assert arr.ctypes.data == net.params.ctypes.data + offset * arr.itemsize
                offset += arr.size
        assert offset == net.params.size

    net = make(seed=19, depth=2, widths=(2, 3, 4))
    vol = np.random.default_rng(19).normal(0.5, 0.3, dims)
    assert_views_in_declaration_order(net)
    save_checkpoint(tmp_path / "net.ckpt", net)
    blob = (tmp_path / "net.ckpt").read_bytes()
    (hlen,) = struct.unpack("<I", blob[:4])
    assert net.params.size * 4 == len(blob) - 4 - hlen
    assert not np.all(net.forward(vol) == 0.5)
    # all-zero parameters make every unit output 0, so z = 0
    net.params[...] = 0.0
    assert np.all(net.forward(vol) == 0.5)
    net._bind(net.params.astype(np.float64))
    assert_views_in_declaration_order(net)
    net.params[-1] = 2.0  # the head bias
    p = net.forward(vol)
    assert p.dtype == np.float64 and np.all(p == sigmoid(np.float64(2.0)))


@pytest.mark.parametrize("name", ["padding", "stride", "mode"])
def test_benchmark_pinned_names_take_only_the_value_it_passes(name):
    """`padding`, `stride` and `mode` stay only because the benchmark passes
    them: at that value each call runs the one path, and any other value
    raises an error that names the parameter."""
    rng = np.random.default_rng(17)
    x, w = rng.normal(size=(2, 4, 5, 6)), rng.normal(size=(3, 2, 3, 3, 3))
    y, xp, pads = convops.conv3d_forward(x, w, None)
    net = small_conv_net(seed=17)
    vol = rng.normal(0.5, 0.3, (4, 4, 4))
    call, want, good, bad = {
        "padding": (lambda v: convops.conv3d_forward(x, w, None, padding=v)[0], y,
                    "same", "valid"),
        "stride": (lambda v: convops.conv3d_backward(y, xp, w, v, pads)[0],
                   convops._conv_backward(y, xp, w, pads)[0], (1, 1, 1), (2, 1, 3)),
        "mode": (lambda v: infer(net, vol, mode=v), net.forward(vol), "expectation", "all-true"),
    }[name]
    assert np.array_equal(call(good), want)
    with pytest.raises(ValueError, match=name):
        call(bad)


def stability_signature(net, vol, mask=None):
    """ReLU masks and pool argmax routes of a conv3d net; equal signatures on
    both sides of a perturbation mean no kink was crossed."""
    caches = []
    net._forward_full(vol, net._gates(mask), caches)
    # a conv cache is (xp, pads, ReLU mask), a pool cache (window, argmax)
    masks = [c[2] for c in caches if len(c) == 3 and c[2] is not None]
    routes = [c[1] for c in caches if len(c) == 2]
    # a ReLU in every encoder and decoder, none in the projections and the
    # head, and one route per pool
    assert len(masks) == 2 * net.spec.depth + 1 and len(routes) == net.spec.depth
    assert len(caches) == len(masks) + len(routes) + net.spec.depth + 1
    assert all(m.dtype == np.bool_ for m in masks)
    return [a.copy() for a in masks + routes]


def network_loss_grad_check(unit_type, seed, epsilon=1e-4, mask=None):
    """Directional derivative of the full training loss over all parameters.

    mask None checks a depth-1 net in expectation mode; a boolean mask
    checks a depth-2 net under that mask.  Returns the grad_check relative
    error, or None if the seed lands too close to a ReLU/pooling kink and
    should be resampled.
    """
    rng = np.random.default_rng(seed)
    depth, widths, planes = (1, (2, 3), 4) if mask is None else (2, (2, 3, 4), 8)
    if unit_type == "conv3d":
        net, dims = small_conv_net(seed, depth, widths), (4, planes, planes)
    else:
        net, dims = small_lstm_net(seed, depth, widths), (3, planes, planes)
    # float64 parameters, so the net computes in float64 and central
    # differences resolve the gradient
    net._bind(net.params.astype(np.float64))
    if mask is not None:
        # the biases start at 0, so a closed top skip can leave the top
        # decoder a window of zero input and its output on the ReLU kink
        net.params += 0.1 * rng.normal(size=net.params.size)
    vol = rng.normal(0.5, 0.25, dims)
    label = (rng.random(dims) > 0.5).astype(np.float64)
    base = net.params.copy()
    direction = rng.normal(size=base.size)
    direction /= np.linalg.norm(direction)

    def f(vec):
        net.params[...] = vec
        loss, grad = net.loss_and_grads(vol, label, mask=mask)
        net.params[...] = base
        return loss, grad

    if unit_type == "conv3d":
        net.params[...] = base + epsilon * direction
        sig_plus = stability_signature(net, vol, mask)
        net.params[...] = base - epsilon * direction
        sig_minus = stability_signature(net, vol, mask)
        net.params[...] = base
        if any(not np.array_equal(a, b) for a, b in zip(sig_plus, sig_minus)):
            return None
    return grad_check(f, base, direction, epsilon)


def assert_network_gradient(unit_type, mask=None):
    """20 seeds of network_loss_grad_check pass, of at most 60 tried."""
    checked = 0
    for seed in range(60):
        err = network_loss_grad_check(unit_type, seed, mask=mask)
        if err is None:
            continue
        assert err <= 1e-4, f"seed {seed}: {err}"
        checked += 1
        if checked >= 20:
            break
    assert checked >= 20


@pytest.mark.parametrize("unit_type", ["conv3d", "convlstm"])
def test_full_network_loss_gradient(unit_type):
    assert_network_gradient(unit_type)


@pytest.mark.parametrize("mask", [(True, False), (False, True)], ids=["open-closed", "closed-open"])
@pytest.mark.parametrize("unit_type", ["conv3d", "convlstm"])
def test_depth2_network_loss_gradient(unit_type, mask):
    """The gradient through two expanding levels under a training mask that
    closes one skip."""
    assert_network_gradient(unit_type, np.array(mask))
