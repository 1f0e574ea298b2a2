"""Self-tests of the benchmark: span coverage per layer, restoration of the
wrapped names, output checks that count as failures, and the refusals.

Run with `python -m pytest perfbench`.  The workloads run here at toy sizes.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from voxwalk import network  # noqa: E402


def small_train(tmp_path):
    return workloads.TrainWorkload(seed=3, workdir=str(tmp_path), dims=(8, 16, 16),
                                   widths=(2, 3, 4))


def small_fuse(tmp_path):
    return workloads.FuseWorkload(seed=3, workdir=str(tmp_path), dims=(16, 16, 16),
                                  n_maps=3, theta=0.5)


def traced_layers(workload):
    workload.setup()
    tracer = spans.Tracer()
    with tracer.installed():
        outcome = workload.run_op(tracer)
    assert outcome.failed == 0, outcome.errors
    return spans.layer_metrics(tracer, workload.unit_root)


def test_train_records_spans_in_every_network_layer(tmp_path):
    m = traced_layers(small_train(tmp_path))
    for name in ("convops.conv3d_fwd.s", "convops.conv3d_bwd.s", "convops.conv2d_fwd.s",
                 "convops.conv2d_bwd.s", "convops.pool.s", "convops.upsample.s",
                 "lstm.gate_fwd.s", "lstm.gate_bwd.s", "network.self_s",
                 "network.apply_gradients.s", "convops.conv.calls", "convops.conv.gflop",
                 "convops.conv.gflop_per_s", "lstm.gate.calls"):
        assert m[name] > 0, name
    assert m["trace.ops"] == 2 * workloads.TrainWorkload.steps
    assert m["selection.node_energies.s"] == 0 and m["walker.pcg_iters"] == 0


def test_fuse_records_spans_in_every_fusion_layer(tmp_path):
    m = traced_layers(small_fuse(tmp_path))
    for name in ("selection.node_energies.s", "selection.select.self_s",
                 "selection.candidates", "selection.confident", "walker.refine.self_s",
                 "walker.assemble.s", "walker.build_system.s", "walker.solve.self_s",
                 "walker.edges", "walker.dirichlet", "walker.pcg_iters",
                 "walker.pcg_residual", "volio.read.s", "volio.read.bytes",
                 "volio.write.s", "volio.write.bytes", "cli.refine.self_s"):
        assert m[name] > 0, name
    assert m["walker.pcg_residual"] <= workloads.FuseWorkload.tol
    assert m["selection.candidates"] + m["selection.confident"] == 16 ** 3
    assert m["volio.read.bytes"] == 4 * 4 * 16 ** 3   # three maps and the intensity
    assert m["convops.conv.calls"] == 0 and m["lstm.gate.calls"] == 0


def test_conv_gflop_follows_the_same_padding_formula():
    tracer = spans.Tracer()
    x = np.ones((2, 4, 5, 6))
    w = np.ones((3, 2, 3, 3, 3))
    with tracer.installed():
        with tracer.span("op", root=True):
            y, xp, pads = network.conv3d_forward(x, w, np.zeros(3), padding="same")
            network.conv3d_backward(y, xp, w, (1, 1, 1), pads)
    fwd, bwd = (s["counts"]["flop"] for s in tracer.spans[1:])
    assert fwd == 2 * 3 * 2 * 27 * 4 * 5 * 6
    assert bwd == 2 * fwd


def test_tracer_restores_every_wrapped_name(tmp_path):
    originals = [(spans._owner(path), attr) for path, attr, *_ in spans.TARGETS]
    before = [owner.__dict__[attr] for owner, attr in originals]
    tracer = spans.Tracer()
    try:
        with tracer.installed():
            assert all(owner.__dict__[attr] is not fn
                       for (owner, attr), fn in zip(originals, before))
            raise KeyError("interrupted operation")
    except KeyError:
        pass
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(originals, before))
    small_fuse(tmp_path).setup()
    assert tracer.spans == []   # nothing records once restored


def test_layer_metrics_match_benchmark_json(tmp_path):
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    produced = set(traced_layers(small_fuse(tmp_path)))
    assert declared == produced | {"trace.overhead_s", "trace.overhead_frac"}


def test_failed_refine_and_changed_output_count_as_failures(tmp_path):
    fuse = small_fuse(tmp_path)
    fuse.setup()
    assert fuse.run_op().failed == 0
    os.unlink(fuse.map_paths[0])
    broken = fuse.run_op()
    assert (broken.attempted, broken.failed) == (1, 1)
    assert "exited 1" in broken.errors[0]
    fuse.setup()
    fuse.first = (1 - fuse.first[0], fuse.first[1])
    changed = fuse.run_op()
    assert changed.failed == 1 and "changed between repeats" in changed.errors[0]


def test_verify_checks_residual_and_fusion_gain(tmp_path):
    fuse = small_fuse(tmp_path)
    fuse.setup()
    fuse.run_op()
    assert fuse.verify().failed == 0
    assert fuse.first[1] > max(fuse.input_dice)


def run_bench(cwd, *flags):
    return subprocess.run([sys.executable, *flags, "perfbench/run.py", "--workload", "fuse-dense",
                           "--seed", "0", "--seconds", "1"],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_refuses_python_optimize():
    out = run_bench(ROOT, "-O")
    assert out.returncode == 2 and out.stdout == ""
    assert "python -O" in out.stderr


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = run_bench(tmp_path)
    assert out.returncode == 1 and out.stdout == ""
    assert "cannot import voxwalk" in out.stderr
