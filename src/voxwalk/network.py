"""Symmetric contracting/expanding segmentation network with randomized
skip connections, plus a toy-scale SGD trainer.

Architecture: `depth` pooling levels with one network unit (3D convolution
or ConvLSTM) per level on each path, run as one recursive level: level i
applies its contracting unit and, above the bridge, pools, recurses,
projects with a 1×1×1 conv and then upsamples (the two commute), adds that
in place to gate_i * (its contracting output) and applies its expanding
unit.  Backward recurses the same way, so a skip tensor lives only as long
as its level.  gate_i is a Bernoulli(alpha) draw per training iteration
(so 2^depth computation graphs are sampled) or the constant alpha in
expectation mode at inference.

The caches live on one stack.  The forward pushes each layer's cache as
the layer returns, and the backward, which visits the layers in exactly
the reverse order, pops each one as it uses it: a level's decoder and
projection caches are freed before the level below runs, and a ConvLSTM
unit's backward overwrites its cached gates with their gradients.  A
second backward on the same stack raises ValueError.  Inference pushes
onto a sink that keeps nothing, so each cache is freed as soon as its
layer returns.

The ConvLSTM variant treats the first volume axis as time and pools only
the two spatial axes, so the recurrence length is preserved; the 3D
convolution variant pools all three axes.
"""

import json
import numbers
import struct
from collections import deque

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
from .config import PipelineConfig
from .volio import _atomic_write

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
    temporal_kernel is the depth extent of a conv3d unit's kernels; a
    ConvLSTM unit convolves each step in 2D and ignores it.  The fields are
    checked by type too, since a checkpoint header may hold any JSON value.
    """

    unit_type: str
    depth: int
    widths: tuple
    kernel: int = 3
    temporal_kernel: int = 3
    alpha: float = PipelineConfig.alpha
    rng_seed: int = 0

    def __post_init__(self):
        if self.unit_type not in UNIT_TYPES:
            raise ValueError(f"unit_type must be one of {UNIT_TYPES}, got {self.unit_type!r}")
        for name in ("depth", "kernel", "temporal_kernel", "rng_seed"):
            _check_integer(name, getattr(self, name))
        for w in self.widths:
            _check_integer("widths", w)
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
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if isinstance(self.alpha, bool) or not isinstance(self.alpha, numbers.Real):
            raise ValueError(f"alpha must be a number, got {self.alpha!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0,1], got {self.alpha}")


def _check_integer(name, value):
    # bool is an int subclass, and 2.9 is no count
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class TrainConfig:
    """Toy trainer settings: plain SGD on voxelwise binary cross-entropy,
    one step per training sample, for a whole number of epochs.  Both
    fields are required; the default learning rate is PipelineConfig's."""

    learning_rate: float
    epochs: int

    def __post_init__(self):
        lr = self.learning_rate
        if isinstance(lr, bool) or not isinstance(lr, numbers.Real):
            raise ValueError(f"learning_rate must be a number, got {lr!r}")
        # learning_rate 0 is allowed so a no-op training run can be tested
        if not 0 <= lr < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {lr}")
        _check_integer("epochs", self.epochs)
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

    def __init__(self, in_maps, out_maps, tkernel, kernel, rng, relu=True):
        fan_in = in_maps * tkernel * kernel * kernel
        s = np.sqrt(1.0 / fan_in)
        self.weights = rng.uniform(-s, s, size=(out_maps, in_maps, tkernel, kernel, kernel))
        self.bias = np.zeros(out_maps)
        self.relu = relu

    def forward(self, x):
        y, xp, pads = conv3d_forward(x, self.weights, self.bias)
        mask = y > 0 if self.relu else None
        if mask is not None:
            y *= mask
        return y, (xp, pads, mask)

    def backward(self, dy, cache):
        xp, pads, mask = cache
        if mask is not None:
            dy = dy * mask
        dx, dw, db = conv3d_backward(dy, xp, self.weights, (1, 1, 1), pads)
        return dx, {"weights": dw, "bias": db}


def sigmoid(x):
    """Logistic function 1 / (1 + e^-x), in the dtype of x.

    Written as 0.5 + 0.5·tanh(x/2), which cannot overflow at any x, and
    whose absolute error stays within one machine epsilon of the dtype.
    """
    return 0.5 + 0.5 * np.tanh(0.5 * x)


def gate_math_forward(z, c_prev, c, h):
    """Apply the LSTM gate nonlinearities in place.

    z: [4n, ...] pre-activations in (input, forget, cell, output) gate
    order, overwritten by the gate activations (i, f, g, o).  Writes the new
    cell f·c_prev + i·g into c and the hidden state o·tanh(c) into h.
    The sigmoids are :func:`sigmoid`'s operations, in its order.
    """
    n = z.shape[0] // 4
    sig = (z[:2 * n], z[3 * n:])
    for s in sig:
        s *= 0.5
    np.tanh(z, out=z)
    for s in sig:
        s *= 0.5
        s += 0.5
    i, f, g, o = z[:n], z[n:2 * n], z[2 * n:3 * n], z[3 * n:]
    np.multiply(f, c_prev, out=c)
    np.multiply(i, g, out=h)
    c += h
    np.tanh(c, out=h)
    h *= o


def gate_math_backward(dh, dc, z, tc, c_prev):
    """Backward of :func:`gate_math_forward`, in place.

    dh, dc: gradients w.r.t. the new hidden/cell values (dc may be zeros).
    z holds the step's gate activations and is overwritten by their
    pre-activation gradients dz; tc is tanh of the new cell.  Returns
    dc_prev, written over dc.
    """
    n = z.shape[0] // 4
    i, f, g, o = z[:n], z[n:2 * n], z[2 * n:3 * n], z[3 * n:]
    # each formula in the comments runs left to right, one rounding per
    # operation, and each gate is read for the last time on the line that
    # overwrites it
    dct = np.multiply(tc, tc)          # dct = dc + dh·o·(1 − tc²)
    np.subtract(1.0, dct, out=dct)
    tmp = np.multiply(dh, o)
    dct *= tmp
    np.add(dc, dct, out=dct)
    np.multiply(dh, tc, out=tmp)       # do·o·(1 − o), do = dh·tc
    tmp *= o
    np.subtract(1.0, o, out=o)
    o *= tmp
    np.multiply(dct, c_prev, out=tmp)  # df·f·(1 − f), df = dct·c_prev
    tmp *= f
    dc_prev = np.multiply(dct, f, out=dc)
    np.subtract(1.0, f, out=f)
    f *= tmp
    np.multiply(dct, g, out=tmp)       # di·i·(1 − i), di = dct·g
    tmp *= i
    dct *= i                           # dg·(1 − g²), dg = dct·i
    np.subtract(1.0, i, out=i)
    i *= tmp
    np.multiply(g, g, out=g)
    np.subtract(1.0, g, out=g)
    g *= dct
    return dc_prev


class ConvLSTMUnit:
    """ConvLSTM (Hochreiter & Schmidhuber; the convolutional form of Shi et
    al., arXiv:1506.04214) scanned along the first volume axis.

    Takes [m, L, H, W], returns the hidden-state sequence [n, L, H, W].
    Weights are gate-stacked in (i,f,c,o) order: input-to-state kernels
    wx [4n,m,k,k], state-to-state kernels wh [4n,n,k,k], biases b [4n].
    The input-to-state convolutions for all steps run as one batched
    convolution; the state-to-state convolution runs per step, from the
    second on, since the initial state is 0.

    The forward writes each step's gate activations over that step's input
    terms, and caches only them, the cell sequence c_0..c_L (c_0 = 0) and
    the padded input.  The backward recomputes tanh(c_t) and the previous
    hidden state o_{t-1}·tanh(c_{t-1}) from these, one step at a time, and
    writes each step's gate gradients over its gates, so the cache holds
    the input terms' gradient once the scan ends.  The backward therefore
    uses up its cache: a second backward on it raises ValueError.
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
        z, xp, xpads = conv3d_forward(x, self.wx[:, :, None], self.b)
        cells = np.zeros((n, length + 1) + x.shape[2:], dtype=x.dtype)
        outs = np.empty((n, length) + x.shape[2:], dtype=x.dtype)
        # a 1-step scan runs no state convolution and keeps these unused pads
        hpads = [(0, 0)] * 3
        for t in range(length):
            if t:
                hterm, _, hpads = conv2d_forward(outs[:, t - 1], self.wh)
                z[:, t] += hterm
            gate_math_forward(z[:, t], cells[:, t], cells[:, t + 1], outs[:, t])
        return outs, [xp, xpads, z, cells, hpads]

    def backward(self, dy, cache):
        if not cache:
            raise ValueError("ConvLSTM cache is used up: backward runs once per forward")
        xp, xpads, z, cells, hpads = cache
        cache.clear()
        n, length = dy.shape[:2]
        dwh = np.zeros_like(self.wh)
        dh_next = np.zeros((n,) + dy.shape[2:], dtype=dy.dtype)
        dc_next = np.zeros_like(dh_next)
        # one padded buffer for the previous hidden state, the state-to-state
        # convolution's input
        hp = np.pad(np.zeros_like(dh_next), hpads)
        h_prev = hp[tuple(slice(lo, hp.shape[ax] - hi) for ax, (lo, hi) in enumerate(hpads))]
        tc = np.tanh(cells[:, length])
        for t in reversed(range(length)):
            dc_next = gate_math_backward(dy[:, t] + dh_next, dc_next, z[:, t], tc, cells[:, t])
            if t:
                tc = np.tanh(cells[:, t])
                np.multiply(z[3 * n:, t - 1], tc, out=h_prev)
                dh_next, dwh_t = conv2d_backward(z[:, t], hp, self.wh, hpads)
                dwh += dwh_t
        dx, dwx, db = conv3d_backward(z, xp, self.wx[:, :, None], (1, 1, 1), xpads)
        return dx, {"wx": dwx[:, :, 0], "wh": dwh, "b": db}


def _push(caches, out_cache):
    """Push a layer's cache onto caches and return the layer's output."""
    caches.append(out_cache[1])
    return out_cache[0]


class RandomConnectionNet:
    """Network object: spec plus parameters plus the forward/backward rules.

    The parameters are one flat float32 vector, params, in declaration
    order, and each layer array is a view of it.  float32 is the dtype
    checkpoints store, so a loaded net is the saved one bit for bit.  The
    net computes in the dtype of its parameters: volumes, labels and skip
    gates are cast to it, since under NEP 50 a float64 gate scalar would
    promote every skip sum to float64.  Rebind a float64 copy of params
    with _bind and the same code runs in float64.
    """

    def __init__(self, spec):
        self.spec = spec
        # the first of the seed's two child streams; train_toy draws its
        # connection masks from the second
        rng = np.random.default_rng(np.random.SeedSequence(spec.rng_seed).spawn(2)[0])
        w = spec.widths
        k = spec.kernel
        if spec.unit_type == "conv3d":
            self.pool_window = (1, 2, 2, 2)
            def unit(m, n):
                return Conv3DLayer(m, n, spec.temporal_kernel, k, rng)
        else:
            self.pool_window = (1, 1, 2, 2)
            def unit(m, n):
                return ConvLSTMUnit(m, n, k, rng)
        self.encoders = [unit(1 if i == 0 else w[i - 1], w[i]) for i in range(spec.depth + 1)]
        self.upconvs = [Conv3DLayer(w[i + 1], w[i], 1, 1, rng, relu=False)
                        for i in range(spec.depth)]
        self.decoders = [unit(w[i], w[i]) for i in range(spec.depth)]
        self.head = Conv3DLayer(w[0], 1, 1, 1, rng, relu=False)
        # checkpoint declaration order: encoders top-down, then per expansive
        # level bottom-up its projection and unit, then the head
        self._layers = list(self.encoders)
        for i in reversed(range(spec.depth)):
            self._layers.append(self.upconvs[i])
            self._layers.append(self.decoders[i])
        self._layers.append(self.head)
        # cast after drawing, so the draws and their order stay those of the layers
        self._bind(np.concatenate([getattr(layer, key) for layer in self._layers
                                   for key in layer.keys], axis=None).astype(np.float32))

    def _bind(self, params):
        """Hold the parameters in the flat vector params, each layer array a view of it."""
        self.params = params
        offset = 0
        for layer in self._layers:
            for key in layer.keys:
                arr = getattr(layer, key)
                setattr(layer, key, params[offset:offset + arr.size].reshape(arr.shape))
                offset += arr.size

    @property
    def dtype(self):
        """The dtype of the parameters, in which the net computes."""
        return self.params.dtype

    def _check_volume(self, volume):
        volume = np.asarray(volume, dtype=self.dtype)
        if volume.ndim != 3:
            raise ValueError(f"expected a 3-D volume, got shape {volume.shape}")
        # pool_window[0] is the feature axis; the volume axes follow it
        for ax, w in enumerate(self.pool_window[1:]):
            factor = w ** self.spec.depth
            if volume.shape[ax] % factor != 0:
                raise ValueError(
                    f"volume extent {volume.shape[ax]} on axis {ax} is not divisible "
                    f"by {w}^depth={factor}")
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

    def _forward_level(self, i, x, gates, caches):
        """Level i on input x.  Pushes each layer's cache onto caches as the
        layer returns (encoder, pool, level i+1's, projection, decoder) and
        returns the level's output; no cache holds the encoder output, so the
        merge overwrites it."""
        skip = _push(caches, self.encoders[i].forward(x))
        if i == self.spec.depth:
            return skip
        pooled = _push(caches, pool3d_forward(skip, self.pool_window))
        # no name holds the level below's output, so it is freed once projected
        up = _push(caches, self.upconvs[i].forward(
            self._forward_level(i + 1, pooled, gates, caches)))
        skip *= gates[i]
        skip += upsample(up, self.pool_window)
        # at inference no cache holds these, so the decoder runs without them
        del pooled, up
        return _push(caches, self.decoders[i].forward(skip))

    def _backward_level(self, i, dout, caches, gates, grads):
        """Backward of :meth:`_forward_level`: pops the level's caches in
        reverse, stores each of its gradient dicts in grads under its layer
        and returns the input's gradient.  The decoder and projection caches
        are freed before the level below runs."""
        if i < self.spec.depth:
            dmerge, grads[self.decoders[i]] = self.decoders[i].backward(dout, caches.pop())
            dbelow, grads[self.upconvs[i]] = self.upconvs[i].backward(
                upsample_backward(dmerge, self.pool_window), caches.pop())
            dpooled = self._backward_level(i + 1, dbelow, caches, gates, grads)
            dout = pool3d_backward(dpooled, caches.pop()) + gates[i] * dmerge
        dx, grads[self.encoders[i]] = self.encoders[i].backward(dout, caches.pop())
        return dx

    def _forward_full(self, volume, gates, caches):
        """The logits of volume; pushes every layer's cache onto caches."""
        x = self._check_volume(volume)[None]
        return _push(caches, self.head.forward(self._forward_level(0, x, gates, caches)))

    def _backward_full(self, dz, caches, gates):
        """Backward of :meth:`_forward_full`; uses up its caches."""
        if not caches:
            raise ValueError("network cache is used up: backward runs once per forward")
        grads = {}
        dy, grads[self.head] = self.head.backward(dz, caches.pop())
        self._backward_level(0, dy, caches, gates, grads)
        # in _layers order, the order in which _bind lays out params
        return np.concatenate([grads[layer][key] for layer in self._layers
                               for key in layer.keys], axis=None)

    def forward(self, volume, mask=None):
        """Per-voxel foreground probabilities in (0,1), shape = volume shape.

        mask: boolean gate per skip connection; None runs expectation mode
        (each skip scaled by alpha).
        """
        # a sink that keeps nothing, so each cache is freed as its layer returns
        z = self._forward_full(volume, self._gates(mask), deque(maxlen=0))
        return sigmoid(z[0])

    def loss_and_grads(self, volume, label, mask=None):
        """Voxelwise binary cross-entropy and its gradient.

        Returns (loss, grad) where grad is one flat vector in the dtype and
        element order of :attr:`params`.
        """
        gates = self._gates(mask)
        caches = []
        z = self._forward_full(volume, gates, caches)
        y = np.asarray(label, dtype=self.dtype)[None]
        if y.shape != z.shape:
            raise ValueError(f"label shape {np.shape(label)} does not match volume")
        with np.errstate(over="ignore", invalid="ignore"):
            loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
            dz = (sigmoid(z) - y) / z.size
        return loss, self._backward_full(dz, caches, gates)

    def apply_gradients(self, grad, lr):
        self.params -= lr * grad


def infer(net, volume, mode="expectation"):
    """Deterministic inference: the expectation over the random skip
    connections, every skip scaled by alpha.

    `mode` takes only 'expectation', which the benchmark passes by name;
    ROADMAP Open item 11 deletes it.
    """
    if mode != "expectation":
        raise ValueError(f"mode must be 'expectation', got {mode!r}")
    return net.forward(volume)


def train_toy(spec, config, dataset):
    """SGD training, one step per sample, with a fresh Bernoulli(spec.alpha)
    connection mask every step.

    A spec with alpha 1 draws all-true masks, so it trains the
    fixed-connection network, and expectation-mode :func:`infer` of the
    result keeps every skip.
    dataset: sequence of (volume, binary label volume) pairs.
    Returns (net, per-epoch mean loss history).
    """
    if len(dataset) == 0:
        raise ValueError("dataset must not be empty")
    for vol, lab in dataset:
        if np.shape(vol) != np.shape(lab):
            raise ValueError(
                f"volume shape {np.shape(vol)} != label shape {np.shape(lab)}")
    net = RandomConnectionNet(spec)
    mask_rng = np.random.default_rng(np.random.SeedSequence(spec.rng_seed).spawn(2)[1])
    history = []
    iteration = 0
    for _ in range(config.epochs):
        epoch_losses = []
        for vol, lab in dataset:
            mask = sample_mask(spec.alpha, spec.depth, mask_rng)
            # overflow on the way to divergence is reported by the finiteness
            # check below, not as numpy warnings
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grad = net.loss_and_grads(vol, lab, mask=mask)
            if not (np.isfinite(loss) and np.isfinite(grad).all()):
                raise TrainingDiverged(iteration, loss)
            net.apply_gradients(grad, config.learning_rate)
            epoch_losses.append(loss)
            iteration += 1
        history.append(float(np.mean(epoch_losses)))
    return net, history


CHECKPOINT_FORMAT = "rcnet-checkpoint"


def save_checkpoint(path, net):
    """Write spec + parameters: a length-prefixed UTF-8 JSON header followed
    by the flat parameter vector as one little-endian float32 block, each
    tensor in declaration order."""
    header = {"format": CHECKPOINT_FORMAT, "version": 1, "spec": asdict(net.spec)}
    blob = json.dumps(header).encode("utf-8")
    _atomic_write(path, b"".join([struct.pack("<I", len(blob)), blob,
                                  net.params.astype("<f4").tobytes()]))


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
    # the JSON integer 1: true and 1.0 compare equal to it
    if header.get("version") != 1 or type(header["version"]) is not int:
        raise ValueError(
            f"checkpoint {path} has version {header.get('version')!r}; only 1 is supported")
    if not isinstance(header.get("spec"), dict):
        raise ValueError(f"checkpoint {path} header has no \"spec\" object")
    try:
        net = RandomConnectionNet(NetworkSpec(**header["spec"]))
    except (TypeError, ValueError) as exc:  # unknown, missing or ill-typed keys
        raise ValueError(f"checkpoint {path} has an invalid spec: {exc}") from None
    extra = len(raw) - 4 - hlen - net.params.size * 4
    if extra < 0:
        raise ValueError(f"checkpoint {path} ends early: {-extra} parameter bytes missing")
    if extra > 0:
        raise ValueError(f"checkpoint {path} has {extra} trailing bytes")
    net.params[...] = np.frombuffer(raw, dtype="<f4", offset=4 + hlen)
    return net
