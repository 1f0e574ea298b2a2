"""Symmetric contracting/expanding segmentation network with randomized
skip connections, plus a toy-scale SGD trainer.

Architecture: `depth` pooling levels with one network unit (3D convolution
or ConvLSTM) per level on each path.  Along the expansive path, level i
computes  upsample-then-project(previous) + gate_i * (matching contracting
output),  where gate_i is a Bernoulli(alpha) draw per training iteration
(so 2^depth computation graphs are sampled) or the constant alpha when
running in expectation mode at inference.

The ConvLSTM variant treats the first volume axis as time and pools only
the two spatial axes, so the recurrence length is preserved; the 3D
convolution variant pools all three axes.
"""

import json
import os
import struct
import tempfile

import numpy as np
from dataclasses import dataclass, asdict

from .convops import (
    conv3d_forward,
    conv3d_backward,
    pool3d_forward,
    pool3d_backward,
    upsample,
    upsample_backward,
    conv2d_forward,
    conv2d_backward,
)
from .lstm import gate_math_forward, gate_math_backward, sigmoid

UNIT_TYPES = ("conv3d", "convlstm")


class TrainingDiverged(RuntimeError):
    """Raised when the training loss or a gradient turns non-finite."""

    def __init__(self, iteration, loss):
        super().__init__(
            f"non-finite loss or gradient (loss {loss!r}) at iteration {iteration}")
        self.iteration = iteration


@dataclass
class NetworkSpec:
    """Static architecture description.

    widths has depth+1 entries: feature-map counts from full resolution down
    to the bridge level.  alpha is the skip-connection keep probability.
    """

    unit_type: str
    depth: int
    widths: tuple
    kernel: int = 3
    temporal_kernel: int = 3
    alpha: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if self.unit_type not in UNIT_TYPES:
            raise ValueError(f"unit_type must be one of {UNIT_TYPES}, got {self.unit_type!r}")
        self.widths = tuple(int(w) for w in self.widths)
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if len(self.widths) != self.depth + 1:
            raise ValueError(
                f"widths needs depth+1={self.depth + 1} entries, got {len(self.widths)}")
        if any(w < 1 for w in self.widths):
            raise ValueError(f"widths must all be >= 1, got {self.widths}")
        if self.kernel < 1 or self.temporal_kernel < 1:
            raise ValueError("kernel extents must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0,1], got {self.alpha}")


@dataclass
class TrainConfig:
    """Toy trainer settings: plain SGD on voxelwise binary cross-entropy,
    one step per training sample."""

    learning_rate: float = 1e-4
    epochs: int = 1

    def __post_init__(self):
        # learning_rate 0 is allowed so a no-op training run can be tested
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def sample_mask(alpha, depth, rng):
    """Draw one boolean per skip connection, independently Bernoulli(alpha)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    return rng.random(depth) < alpha


class Conv3DLayer:
    """'same'-padded 3D convolution with optional ReLU.

    Weights start uniform in [-s, s] with s = sqrt(1 / fan_in); biases at 0.
    """

    keys = ("weights", "bias")

    def __init__(self, in_maps, out_maps, tkernel, kernel, rng, activation="relu"):
        fan_in = in_maps * tkernel * kernel * kernel
        s = np.sqrt(1.0 / fan_in)
        self.weights = rng.uniform(-s, s, size=(out_maps, in_maps, tkernel, kernel, kernel))
        self.bias = np.zeros(out_maps)
        self.activation = activation

    def forward(self, x):
        y, xp, pads = conv3d_forward(x, self.weights, self.bias, padding="same")
        if self.activation == "relu":
            mask = y > 0
            y = y * mask
        else:
            mask = None
        return y, (xp, pads, mask)

    def backward(self, dy, cache):
        xp, pads, mask = cache
        if mask is not None:
            dy = dy * mask
        dx, dw, db = conv3d_backward(dy, xp, self.weights, (1, 1, 1), pads)
        return dx, {"weights": dw, "bias": db}


class ConvLSTMUnit:
    """ConvLSTM scanned along the first volume axis.

    Takes [m, L, H, W], returns the hidden-state sequence [n, L, H, W].
    Weights are gate-stacked in (i,f,c,o) order: input-to-state kernels
    wx [4n,m,k,k], state-to-state kernels wh [4n,n,k,k], biases b [4n].
    The input-to-state convolutions for all steps run as one batched
    convolution; the state-to-state convolution runs per step.
    """

    keys = ("wx", "wh", "b")

    def __init__(self, in_maps, out_maps, kernel, rng):
        sx = np.sqrt(1.0 / (in_maps * kernel * kernel))
        sh = np.sqrt(1.0 / (out_maps * kernel * kernel))
        self.wx = rng.uniform(-sx, sx, size=(4 * out_maps, in_maps, kernel, kernel))
        self.wh = rng.uniform(-sh, sh, size=(4 * out_maps, out_maps, kernel, kernel))
        self.b = np.zeros(4 * out_maps)

    def forward(self, x):
        if x.ndim != 4:
            raise ValueError(f"ConvLSTM unit expects [m,L,H,W], got shape {x.shape}")
        n = self.b.shape[0] // 4
        length = x.shape[1]
        xterm, xp, xpads = conv3d_forward(x, self.wx[:, :, None], self.b, padding="same")
        h = np.zeros((n,) + x.shape[2:], dtype=x.dtype)
        c = np.zeros_like(h)
        outs = np.empty((n, length) + x.shape[2:], dtype=x.dtype)
        steps = []
        for t in range(length):
            hterm, hp, hpads = conv2d_forward(h, self.wh)
            h, c, gcache = gate_math_forward(xterm[:, t] + hterm, c)
            outs[:, t] = h
            steps.append((hp, hpads, gcache))
        return outs, (xp, xpads, steps)

    def backward(self, dy, cache):
        xp, xpads, steps = cache
        length = dy.shape[1]
        dxterm = np.empty((self.wx.shape[0], length) + dy.shape[2:], dtype=dy.dtype)
        dwh = np.zeros_like(self.wh)
        dh_next = np.zeros(dy.shape[:1] + dy.shape[2:], dtype=dy.dtype)
        dc_next = np.zeros_like(dh_next)
        for t in reversed(range(length)):
            hp, hpads, gcache = steps[t]
            dz, dc_prev = gate_math_backward(dy[:, t] + dh_next, dc_next, gcache)
            dxterm[:, t] = dz
            dh_prev, dwh_t = conv2d_backward(dz, hp, self.wh, hpads)
            dwh += dwh_t
            dh_next = dh_prev
            dc_next = dc_prev
        dx, dwx, db = conv3d_backward(dxterm, xp, self.wx[:, :, None], (1, 1, 1), xpads)
        return dx, {"wx": dwx[:, :, 0], "wh": dwh, "b": db}


class RandomConnectionNet:
    """Network object: spec plus parameters plus the forward/backward rules.

    The parameters are float32, the dtype checkpoints store, so a loaded
    net is the saved one bit for bit.  The net computes in the dtype of its
    parameters: volumes, labels and skip gates are cast to it, since under
    NEP 50 a float64 gate scalar would promote every skip sum to float64.
    Promote every parameter to float64 and the same code runs in float64.
    """

    def __init__(self, spec, rng=None):
        self.spec = spec
        if rng is None:
            rng = np.random.default_rng(np.random.SeedSequence(spec.rng_seed).spawn(2)[0])
        w = spec.widths
        k = spec.kernel
        if spec.unit_type == "conv3d":
            self.pool_window = (1, 2, 2, 2)
            def unit(m, n):
                return Conv3DLayer(m, n, spec.temporal_kernel, k, rng, activation="relu")
        else:
            self.pool_window = (1, 1, 2, 2)
            def unit(m, n):
                return ConvLSTMUnit(m, n, k, rng)
        self.encoders = [unit(1 if i == 0 else w[i - 1], w[i]) for i in range(spec.depth + 1)]
        self.upconvs = [Conv3DLayer(w[i + 1], w[i], 1, 1, rng, activation="none")
                        for i in range(spec.depth)]
        self.decoders = [unit(w[i], w[i]) for i in range(spec.depth)]
        self.head = Conv3DLayer(w[0], 1, 1, 1, rng, activation="none")
        # checkpoint declaration order: encoders top-down, then per expansive
        # level bottom-up its projection and unit, then the head
        self._layers = list(self.encoders)
        for i in reversed(range(spec.depth)):
            self._layers.append(self.upconvs[i])
            self._layers.append(self.decoders[i])
        self._layers.append(self.head)
        self._slot = {id(l): j for j, l in enumerate(self._layers)}
        # cast after drawing, so the draws and their order stay those of the layers
        for layer in self._layers:
            for key in layer.keys:
                setattr(layer, key, getattr(layer, key).astype(np.float32))

    @property
    def dtype(self):
        """The dtype of the parameters, in which the net computes."""
        return self.head.weights.dtype

    def parameters(self):
        """Parameter arrays as (layer_index, key, array), in declaration order."""
        out = []
        for j, layer in enumerate(self._layers):
            for key in layer.keys:
                out.append((j, key, getattr(layer, key)))
        return out

    def _check_volume(self, volume):
        volume = np.asarray(volume, dtype=self.dtype)
        if volume.ndim != 3:
            raise ValueError(f"expected a 3-D volume, got shape {volume.shape}")
        factor = 2 ** self.spec.depth
        pooled = (0, 1, 2) if self.spec.unit_type == "conv3d" else (1, 2)
        for ax in pooled:
            if volume.shape[ax] % factor != 0:
                raise ValueError(
                    f"volume extent {volume.shape[ax]} on axis {ax} is not divisible "
                    f"by 2^depth={factor}")
        return volume

    def _gates(self, mask):
        depth = self.spec.depth
        if mask is None:
            return np.full(depth, self.spec.alpha, dtype=self.dtype)
        mask = np.asarray(mask)
        if mask.shape != (depth,):
            raise ValueError(f"mask must have {depth} entries, got shape {mask.shape}")
        if mask.dtype != np.bool_:
            raise ValueError("mask must be boolean; pass mask=None for expectation mode")
        return mask.astype(self.dtype)

    def _forward_full(self, volume, gates):
        x = self._check_volume(volume)[None]
        up_factor = self.pool_window
        enc_outs = []
        enc_caches = []
        pool_caches = []
        cur = x
        for i, enc in enumerate(self.encoders):
            if i > 0:
                cur, pc = pool3d_forward(cur, self.pool_window)
                pool_caches.append(pc)
            cur, uc = enc.forward(cur)
            enc_outs.append(cur)
            enc_caches.append(uc)
        dec_caches = [None] * self.spec.depth
        for i in reversed(range(self.spec.depth)):
            cur = upsample(cur, up_factor)
            cur, upc = self.upconvs[i].forward(cur)
            cur = cur + gates[i] * enc_outs[i]
            cur, dc = self.decoders[i].forward(cur)
            dec_caches[i] = (upc, dc)
        z, hc = self.head.forward(cur)
        caches = (enc_outs, enc_caches, pool_caches, dec_caches, hc)
        return z, caches

    def _backward_full(self, dz, caches, gates):
        enc_outs, enc_caches, pool_caches, dec_caches, hc = caches
        grads = [None] * len(self._layers)

        def put(layer, g):
            grads[self._slot[id(layer)]] = g

        dcur, g = self.head.backward(dz, hc)
        put(self.head, g)
        dskip = [None] * self.spec.depth
        for i in range(self.spec.depth):
            upc, dc = dec_caches[i]
            dmerge, g = self.decoders[i].backward(dcur, dc)
            put(self.decoders[i], g)
            dskip[i] = gates[i] * dmerge
            dup, g = self.upconvs[i].backward(dmerge, upc)
            put(self.upconvs[i], g)
            dcur = upsample_backward(dup, self.pool_window)
        carry = dcur  # gradient w.r.t. the bridge output
        for i in reversed(range(self.spec.depth + 1)):
            if i <= self.spec.depth - 1:
                carry = carry + dskip[i]
            dunit_in, g = self.encoders[i].backward(carry, enc_caches[i])
            put(self.encoders[i], g)
            if i > 0:
                carry = pool3d_backward(dunit_in, pool_caches[i - 1])
        return grads

    def forward(self, volume, mask=None):
        """Per-voxel foreground probabilities in (0,1), shape = volume shape.

        mask: boolean gate per skip connection; None runs expectation mode
        (each skip scaled by alpha).
        """
        gates = self._gates(mask)
        z, _ = self._forward_full(volume, gates)
        return sigmoid(z[0])

    def loss_and_grads(self, volume, label, mask=None):
        """Voxelwise binary cross-entropy and its gradients.

        Returns (loss, grads) where grads is a per-layer list of dicts
        aligned with the layer order used by :meth:`parameters`.
        """
        gates = self._gates(mask)
        z, caches = self._forward_full(volume, gates)
        y = np.asarray(label, dtype=self.dtype)[None]
        if y.shape != z.shape:
            raise ValueError(f"label shape {np.shape(label)} does not match volume")
        with np.errstate(over="ignore", invalid="ignore"):
            loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
            dz = (sigmoid(z) - y) / z.size
        grads = self._backward_full(dz, caches, gates)
        return loss, grads

    def apply_gradients(self, grads, lr):
        for layer, g in zip(self._layers, grads):
            for key, dval in g.items():
                getattr(layer, key)[...] -= lr * dval


def infer(net, volume, mode="expectation"):
    """Deterministic inference.

    mode 'expectation' scales every skip by alpha; 'all-true' keeps every
    skip (ablation switch).
    """
    if mode == "expectation":
        return net.forward(volume, mask=None)
    if mode == "all-true":
        return net.forward(volume, mask=np.ones(net.spec.depth, dtype=bool))
    raise ValueError(f"mode must be 'expectation' or 'all-true', got {mode!r}")


def train_toy(spec, config, dataset, connection_mode="sampled"):
    """SGD training, one step per sample, with a freshly sampled connection
    mask every step.

    dataset: sequence of (volume, binary label volume) pairs.
    connection_mode 'all-true' trains the fixed-connection network instead.
    Returns (net, per-epoch mean loss history).
    """
    if len(dataset) == 0:
        raise ValueError("dataset must not be empty")
    if connection_mode not in ("sampled", "all-true"):
        raise ValueError(f"unknown connection_mode {connection_mode!r}")
    for vol, lab in dataset:
        if np.shape(vol) != np.shape(lab):
            raise ValueError(
                f"volume shape {np.shape(vol)} != label shape {np.shape(lab)}")
    init_ss, mask_ss = np.random.SeedSequence(spec.rng_seed).spawn(2)
    net = RandomConnectionNet(spec, rng=np.random.default_rng(init_ss))
    mask_rng = np.random.default_rng(mask_ss)
    all_true = np.ones(spec.depth, dtype=bool)
    history = []
    iteration = 0
    for _ in range(config.epochs):
        epoch_losses = []
        for vol, lab in dataset:
            if connection_mode == "sampled":
                mask = sample_mask(spec.alpha, spec.depth, mask_rng)
            else:
                mask = all_true
            # overflow on the way to divergence is reported by the finiteness
            # check below, not as numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = net.loss_and_grads(vol, lab, mask=mask)
            finite = np.isfinite(loss) and all(
                np.isfinite(d).all() for g in grads for d in g.values())
            if not finite:
                raise TrainingDiverged(iteration, loss)
            net.apply_gradients(grads, config.learning_rate)
            epoch_losses.append(loss)
            iteration += 1
        history.append(float(np.mean(epoch_losses)))
    return net, history


CHECKPOINT_FORMAT = "rcnet-checkpoint"


def save_checkpoint(path, net):
    """Write spec + parameters: a length-prefixed UTF-8 JSON header followed
    by each parameter tensor as little-endian float32 in declaration order."""
    header = {"format": CHECKPOINT_FORMAT, "version": 1, "spec": asdict(net.spec)}
    blob = json.dumps(header).encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for _, _, arr in net.parameters():
                fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Rebuild a network from :func:`save_checkpoint` output."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise ValueError(f"checkpoint {path} is truncated")
    (hlen,) = struct.unpack("<I", raw[:4])
    if len(raw) < 4 + hlen:
        raise ValueError(f"checkpoint {path} header is truncated")
    try:
        header = json.loads(raw[4:4 + hlen].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"checkpoint {path} header is not UTF-8 JSON ({exc})") from None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path} is not a network checkpoint")
    if header.get("version") != 1:
        raise ValueError(
            f"checkpoint {path} has version {header.get('version')!r}; only 1 is supported")
    if not isinstance(header.get("spec"), dict):
        raise ValueError(f"checkpoint {path} header has no \"spec\" object")
    try:
        net = RandomConnectionNet(NetworkSpec(**header["spec"]))
    except (TypeError, ValueError) as exc:  # unknown, missing or ill-typed keys
        raise ValueError(f"checkpoint {path} has an invalid spec: {exc}") from None
    offset = 4 + hlen
    for _, key, arr in net.parameters():
        nbytes = arr.size * 4
        chunk = raw[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise ValueError(f"checkpoint {path} ends early in tensor {key!r}")
        arr[...] = np.frombuffer(chunk, dtype="<f4").reshape(arr.shape)
        offset += nbytes
    if offset != len(raw):
        raise ValueError(f"checkpoint {path} has {len(raw) - offset} trailing bytes")
    return net
