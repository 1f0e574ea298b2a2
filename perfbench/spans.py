"""In-memory span tracer for the voxwalk benchmark, and the per-layer
metrics computed from its spans.

The tracer patches the names each caller actually looks up.  `from .x
import f` binds a second name in the importing module, so patching `x.f`
would miss the call; the targets below are therefore the bindings in the
calling modules (`voxwalk.network.conv3d_forward`, `voxwalk.walker.select`,
...) and the methods on `RandomConnectionNet`.  Leaving
:meth:`Tracer.installed` puts every original object back, so an untraced
run measures unwrapped code.

A span records its name, start, end, parent span and an operation id.  An
operation is one SGD step (started by `network.loss_and_grads`), one
inference (`network.forward`) or one refine (`cli.refine`, opened by the
benchmark around `voxwalk refine`).  A span with no parent that is not an
operation root (`network.apply_gradients`) joins the current operation.
"""

import contextlib
import functools
import importlib
import inspect
import json
from time import perf_counter

import numpy as np


def _conv_flop(weights, out_shape, passes):
    """2·n·m·(kernel volume)·(output voxels) per pass; backward is 2 passes."""
    w = np.shape(weights)
    return 2.0 * passes * w[0] * w[1] * float(np.prod(w[2:])) * float(np.prod(out_shape[1:]))


def _count_conv_fwd(bound, result):
    return {"flop": _conv_flop(bound["weights"], result[0].shape, 1)}


def _count_conv_bwd(bound, result):
    return {"flop": _conv_flop(bound["weights"], np.shape(bound["grad"]), 2)}


def _count_select(bound, result):
    return {"candidates": len(result.candidate_idx), "confident": len(result.confident_idx)}


def _count_assemble(bound, result):
    return {"edges": len(result.edges), "dirichlet": len(result.dirichlet_idx)}


def _count_solve(bound, result):
    return {"pcg_iters": result.iterations, "pcg_residual": result.residual}


def _count_read(bound, result):
    return {"bytes": 4 * result[0].size}


def _count_write(bound, result):
    return {"bytes": 4 * np.size(bound["data"])}


# (module, attribute, span name, counter, starts an operation)
TARGETS = (
    ("voxwalk.network", "conv3d_forward", "convops.conv3d_fwd", _count_conv_fwd, False),
    ("voxwalk.network", "conv3d_backward", "convops.conv3d_bwd", _count_conv_bwd, False),
    ("voxwalk.network", "conv2d_forward", "convops.conv2d_fwd", _count_conv_fwd, False),
    ("voxwalk.network", "conv2d_backward", "convops.conv2d_bwd", _count_conv_bwd, False),
    ("voxwalk.network", "pool3d_forward", "convops.pool", None, False),
    ("voxwalk.network", "pool3d_backward", "convops.pool", None, False),
    ("voxwalk.network", "upsample", "convops.upsample", None, False),
    ("voxwalk.network", "upsample_backward", "convops.upsample", None, False),
    ("voxwalk.network", "gate_math_forward", "lstm.gate_fwd", None, False),
    ("voxwalk.network", "gate_math_backward", "lstm.gate_bwd", None, False),
    ("voxwalk.network.RandomConnectionNet", "loss_and_grads", "network.loss_and_grads", None, True),
    ("voxwalk.network.RandomConnectionNet", "forward", "network.forward", None, True),
    ("voxwalk.network.RandomConnectionNet", "apply_gradients", "network.apply_gradients", None, False),
    ("voxwalk.selection", "node_energies", "selection.node_energies", None, False),
    ("voxwalk.walker", "select", "selection.select", _count_select, False),
    ("voxwalk.walker", "refine", "walker.refine", None, False),
    ("voxwalk.walker", "assemble", "walker.assemble", _count_assemble, False),
    ("voxwalk.walker", "build_system", "walker.build_system", None, False),
    ("voxwalk.walker", "solve", "walker.solve", _count_solve, False),
    ("voxwalk.volio", "read_volume", "volio.read", _count_read, False),
    ("voxwalk.volio", "write_volume", "volio.write", _count_write, False),
)


def _owner(path):
    """Module or class named by a dotted path such as `voxwalk.network.RandomConnectionNet`."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []      # dicts: name, start, end, parent, op, counts
        self.op_roots = {}   # operation id -> name of the span that started it
        self._stack = []
        self._op = 0
        self._saved = []     # (owner, attribute, original object)
        self._paused = False

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then put each
        original object back, also when the block raises."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for path, attr, name, count, root in TARGETS:
                owner = _owner(path)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, count, root))
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved = []

    def _open(self, name, root):
        if root and not self._stack:
            self._op += 1
            self.op_roots[self._op] = name
        index = len(self.spans)
        self.spans.append({"name": name, "start": perf_counter(), "end": None,
                           "parent": self._stack[-1] if self._stack else -1,
                           "op": self._op, "counts": None})
        self._stack.append(index)
        return index

    def _close(self, index):
        self._stack.pop()
        self.spans[index]["end"] = perf_counter()

    @contextlib.contextmanager
    def span(self, name, root=False):
        """A span opened by the benchmark itself, e.g. around `voxwalk refine`."""
        index = self._open(name, root)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside record no spans, e.g. the benchmark's own checks."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, fn, name, count, root):
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = self._open(name, root)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                bound = signature.bind(*args, **kwargs).arguments
                self.spans[index]["counts"] = count(bound, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "op_roots": self.op_roots}, fh)


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "convops.conv3d_fwd.s": ("convops.conv3d_fwd",),
    "convops.conv3d_bwd.s": ("convops.conv3d_bwd",),
    "convops.conv2d_fwd.s": ("convops.conv2d_fwd",),
    "convops.conv2d_bwd.s": ("convops.conv2d_bwd",),
    "convops.pool.s": ("convops.pool",),
    "convops.upsample.s": ("convops.upsample",),
    "lstm.gate_fwd.s": ("lstm.gate_fwd",),
    "lstm.gate_bwd.s": ("lstm.gate_bwd",),
    "network.self_s": ("network.loss_and_grads", "network.forward", "network.apply_gradients"),
    "network.apply_gradients.s": ("network.apply_gradients",),
    "selection.node_energies.s": ("selection.node_energies",),
    "selection.select.self_s": ("selection.select",),
    "walker.refine.self_s": ("walker.refine",),
    "walker.assemble.s": ("walker.assemble",),
    "walker.build_system.s": ("walker.build_system",),
    "walker.solve.self_s": ("walker.solve",),
    "volio.read.s": ("volio.read",),
    "volio.write.s": ("volio.write",),
    "cli.refine.self_s": ("cli.refine",),
}

# per-layer metric -> (span name, counter), summed per operation
COUNT_METRICS = {
    "selection.candidates": ("selection.select", "candidates"),
    "selection.confident": ("selection.select", "confident"),
    "walker.edges": ("walker.assemble", "edges"),
    "walker.dirichlet": ("walker.assemble", "dirichlet"),
    "walker.pcg_iters": ("walker.solve", "pcg_iters"),
    "volio.read.bytes": ("volio.read", "bytes"),
    "volio.write.bytes": ("volio.write", "bytes"),
}

CONV_SPANS = ("convops.conv3d_fwd", "convops.conv3d_bwd",
              "convops.conv2d_fwd", "convops.conv2d_bwd")


def layer_metrics(tracer, unit_root):
    """Per-layer metrics, each a mean per operation started by `unit_root`.

    Means, not medians, so that the layers' self times add up to the
    operation's traced wall time.  `walker.pcg_residual` is the worst
    residual seen.
    """
    ops = {op for op, root in tracer.op_roots.items() if root == unit_root}
    n_ops = max(len(ops), 1)
    own = self_times(tracer.spans)
    self_s = {}
    counts = {}
    calls = {}
    residual = 0.0
    for span, t in zip(tracer.spans, own):
        if span["op"] not in ops:
            continue
        name = span["name"]
        self_s[name] = self_s.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        for key, value in (span["counts"] or {}).items():
            if key == "pcg_residual":
                residual = max(residual, value)
            else:
                counts[(name, key)] = counts.get((name, key), 0) + value
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(self_s.get(n, 0.0) for n in names) / n_ops
    for metric, key in COUNT_METRICS.items():
        out[metric] = counts.get(key, 0) / n_ops
    conv_s = sum(self_s.get(n, 0.0) for n in CONV_SPANS)
    flop = sum(counts.get((n, "flop"), 0) for n in CONV_SPANS)
    out["convops.conv.calls"] = sum(calls.get(n, 0) for n in CONV_SPANS) / n_ops
    out["convops.conv.gflop"] = flop / 1e9 / n_ops
    out["convops.conv.gflop_per_s"] = flop / 1e9 / conv_s if conv_s > 0 else 0.0
    out["lstm.gate.calls"] = (calls.get("lstm.gate_fwd", 0) + calls.get("lstm.gate_bwd", 0)) / n_ops
    out["walker.pcg_residual"] = residual
    out["trace.ops"] = len(ops)
    out["trace.spans_per_op"] = sum(1 for s in tracer.spans if s["op"] in ops) / n_ops
    return out


def unit_of(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("gflop_per_s"):
        return "GFLOP/s"
    if metric.endswith("gflop"):
        return "GFLOP"
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith(("_frac", "_residual")):
        return "1"
    return "count"
