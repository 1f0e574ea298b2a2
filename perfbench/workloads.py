"""The benchmark's workloads: `train`, `fuse-dense` and `fuse-paper`.

Each workload builds its inputs from the seed in `setup`, runs one
operation per `run_op` call through the calls a user makes, and checks the
outputs of every operation.  `verify` makes the checks that need a second,
untimed computation.  Why each workload exists is in README.md.
"""

import contextlib
import io
import math
import os
import statistics
import traceback
from time import perf_counter

import numpy as np
from scipy.special import expit

from voxwalk import cli, metrics, network, selection, volio, walker
from voxwalk.config import PipelineConfig


def child_seeds(seed, n):
    """n independent integer seeds derived from the workload seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def tail(samples):
    """Highest percentile with at least ten samples beyond it: (value, percentile),
    or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


class Outcome:
    """One operation: wall time of each timed call, attempted and failed calls."""

    def __init__(self):
        self.calls = {}   # call kind -> wall seconds
        self.attempted = 0
        self.failed = 0
        self.errors = []


@contextlib.contextmanager
def _attempt(outcome, what):
    """Count one sub-operation; an exception or failed check marks it failed."""
    outcome.attempted += 1
    try:
        yield
    except Exception:  # the measuring loop must go on and report the failure
        outcome.failed += 1
        outcome.errors.append(f"{what}: {traceback.format_exc(limit=3)}")


class TrainWorkload:
    """Train one conv3d and one ConvLSTM network, then infer on a second scene."""

    unit_root = "network.loss_and_grads"   # per-layer numbers are per SGD step
    steps = 1

    def __init__(self, seed, workdir, dims=(32, 64, 64), widths=(8, 16, 32)):
        self.seed = seed
        self.dims = tuple(dims)
        defaults = PipelineConfig()
        self.specs = {
            unit: network.NetworkSpec(unit_type=unit, depth=2, widths=widths, kernel=3,
                                      temporal_kernel=3, alpha=defaults.alpha,
                                      rng_seed=seed)
            for unit in network.UNIT_TYPES
        }
        self.config = network.TrainConfig(learning_rate=defaults.learning_rate,
                                          epochs=self.steps)
        self.first = {}   # outputs of the first operation, which later ones must repeat

    def setup(self):
        train_seed, infer_seed = child_seeds(self.seed, 2)
        volume, label = volio.synth(train_seed, self.dims)
        self.dataset = [(volume, label)]
        self.infer_volume, _ = volio.synth(infer_seed, self.dims)
        for spec in self.specs.values():
            net = network.RandomConnectionNet(spec)
            net.loss_and_grads(volume, label, mask=np.ones(spec.depth, dtype=bool))

    def run_op(self, tracer=None):
        out = Outcome()
        for unit, spec in self.specs.items():
            net = None
            with _attempt(out, f"train {unit}"):
                t0 = perf_counter()
                net, history = network.train_toy(spec, self.config, self.dataset)
                out.calls[f"train_s.{unit}"] = perf_counter() - t0
                self._check_repeats(f"train_loss.{unit}", history[-1])
                if not all(math.isfinite(h) for h in history):
                    raise ValueError(f"non-finite loss history {history}")
            with _attempt(out, f"infer {unit}"):
                if net is None:
                    raise RuntimeError("no trained network to infer with")
                t0 = perf_counter()
                prob = network.infer(net, self.infer_volume, mode="expectation")
                out.calls[f"infer_s.{unit}"] = perf_counter() - t0
                if prob.shape != self.dims or not np.all(np.isfinite(prob)):
                    raise ValueError("infer output has the wrong shape or non-finite values")
                if prob.min() < 0.0 or prob.max() > 1.0:
                    raise ValueError("infer output leaves [0,1]")
                self._check_repeats(f"infer.{unit}", prob)
        return out

    def _check_repeats(self, key, value):
        first = self.first.setdefault(key, value)
        if not np.array_equal(first, value):
            raise ValueError(f"{key} differs from the first operation with the same seed")

    def verify(self):
        return Outcome()

    def report(self, calls):
        """Rows (name, value, unit, note) of the workload's own metrics, from
        the untraced calls' wall times."""
        vox = float(np.prod(self.dims))
        rows = []
        for unit in network.UNIT_TYPES:
            train_s = calls.get(f"train_s.{unit}")
            if train_s:
                rows.append((f"train_vox_per_s.{unit}",
                             self.steps * vox / statistics.median(train_s), "vox/s",
                             f"median of {len(train_s)} train_toy calls of {self.steps} SGD step(s)"))
        for unit in network.UNIT_TYPES:
            infer_s = calls.get(f"infer_s.{unit}")
            if infer_s:
                rows.append((f"infer_s.{unit}", statistics.median(infer_s), "s",
                             f"median of {len(infer_s)}"))
        for unit in network.UNIT_TYPES:
            if f"train_loss.{unit}" in self.first:
                rows.append((f"train_loss.{unit}", float(self.first[f"train_loss.{unit}"]),
                             "nats", f"after {self.steps} SGD step(s)"))
        return rows


class FuseWorkload:
    """Refine K seeded synthetic probability maps with `voxwalk refine`."""

    unit_root = "cli.refine"   # per-layer numbers are per refine
    beta = 100.0
    tol = 1e-8
    noise_sigma = 1.5

    def __init__(self, seed, workdir, dims, n_maps, theta):
        self.seed = seed
        self.dims = tuple(dims)
        self.n_maps = n_maps
        self.theta = theta
        self.intensity_path = os.path.join(workdir, "intensity.f32")
        self.map_paths = [os.path.join(workdir, f"prob{k}.f32") for k in range(n_maps)]
        self.out_path = os.path.join(workdir, "fused.f32")
        self.first = None   # (labels, dice) of the first refine
        self.input_dice = []

    def setup(self):
        scene_seed, *map_seeds = child_seeds(self.seed, 1 + self.n_maps)
        intensity, truth = volio.synth(scene_seed, self.dims)
        self.truth = truth
        volio.write_volume(self.intensity_path, intensity, "intensity")
        for path, map_seed in zip(self.map_paths, map_seeds):
            noise = np.random.default_rng(map_seed).normal(0.0, self.noise_sigma, self.dims)
            volio.write_volume(path, expit(4.0 * (truth - 0.5) + noise), "prob")

    def argv(self):
        return ["refine", "--probs", *self.map_paths, "--intensity", self.intensity_path,
                "--theta", repr(self.theta), "--beta", repr(self.beta),
                "--tol", repr(self.tol), "--out", self.out_path]

    def run_op(self, tracer=None):
        out = Outcome()
        with _attempt(out, "refine"):
            log = io.StringIO()
            span = tracer.span("cli.refine", root=True) if tracer else contextlib.nullcontext()
            t0 = perf_counter()
            with contextlib.redirect_stderr(log), span:
                code = cli.main(self.argv())
            out.calls["refine_s"] = perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"voxwalk refine exited {code}: {log.getvalue().strip()}")
            with tracer.paused() if tracer else contextlib.nullcontext():
                labels, _ = volio.read_volume(self.out_path, expect_kind="label")
            dice = metrics.dice(self.truth, labels)
            if self.first is None:
                self.first = (labels, dice)
            elif dice != self.first[1] or not np.array_equal(labels, self.first[0]):
                raise ValueError(f"refine output changed between repeats (Dice {dice})")
        return out

    def verify(self):
        """Solve the refine's walker system through the library once more:
        the PCG residual must meet the tolerance and the labels must equal
        the CLI's, and the fused labels must beat every input map."""
        out = Outcome()
        with _attempt(out, "verify"):
            if self.first is None:
                raise RuntimeError("no refine completed")
            maps = np.stack([volio.read_volume(p, expect_kind="prob")[0] for p in self.map_paths])
            intensity, _ = volio.read_volume(self.intensity_path, expect_kind="intensity")
            sel = selection.select(maps, self.theta)
            labels = np.zeros(int(np.prod(self.dims)), dtype=np.uint8)
            labels[sel.confident_idx] = sel.confident_labels
            if len(sel.candidate_idx):
                graph = walker.assemble(sel, maps, intensity, self.beta)
                sol = walker.solve(graph, tol=self.tol)
                if not sol.residual <= self.tol:
                    raise ValueError(f"PCG residual {sol.residual} exceeds tol {self.tol}")
                labels[sel.candidate_idx] = sol.labels
            if not np.array_equal(labels.reshape(self.dims), self.first[0]):
                raise ValueError("CLI labels differ from the library's select/assemble/solve")
            self.input_dice = [metrics.dice(self.truth, m >= 0.5) for m in maps]
            if not self.first[1] > max(self.input_dice):
                raise ValueError(f"fused Dice {self.first[1]} does not beat the input "
                                 f"maps {self.input_dice}")
        return out

    def report(self, calls):
        rows = []
        samples = calls.get("refine_s")
        if samples:
            rows.append(("refine_s", statistics.median(samples), "s",
                         f"median of {len(samples)}"))
            t = tail(samples)
            if t is not None:
                rows.append(("refine_tail_s", t[0], "s",
                             f"p{t[1]:.1f} of {len(samples)} samples, 10 beyond it"))
        if self.first is not None:
            note = "inputs " + ", ".join(f"{d:.4f}" for d in self.input_dice)
            rows.append(("dice_fused", self.first[1], "Dice", note))
        return rows


def make(name, seed, workdir):
    if name == "train":
        return TrainWorkload(seed, workdir)
    if name == "fuse-dense":
        return FuseWorkload(seed, workdir, dims=(64, 64, 64), n_maps=3, theta=0.5)
    if name == "fuse-paper":
        return FuseWorkload(seed, workdir, dims=(64, 128, 128), n_maps=5, theta=0.999)
    raise ValueError(f"unknown workload {name!r}")
