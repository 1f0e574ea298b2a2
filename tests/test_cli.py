"""The command-line contract: exit 0 with results on stdout and logs on
stderr, exit 1 with one `voxwalk: error:` line, exit 2 on usage errors."""

import json
import os
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from voxwalk import network, walker
from voxwalk.config import PipelineConfig
from voxwalk.volio import read_volume, sidecar_path, write_volume

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "voxwalk.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def assert_one_error_line(out):
    assert out.returncode == 1
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("voxwalk: error:"), out.stderr
    assert "Traceback" not in out.stderr


@pytest.fixture
def labels(tmp_path):
    a, b = tmp_path / "a.raw", tmp_path / "b.raw"
    write_volume(a, np.array([1, 1, 0, 0, 1, 0, 0, 0], float).reshape(2, 2, 2), "label")
    write_volume(b, np.array([1, 0, 0, 0, 1, 1, 0, 0], float).reshape(2, 2, 2), "label")
    return a, b


def test_success_writes_results_to_stdout_and_logs_to_stderr(tmp_path, labels):
    out = run_cli("synth", "--dims", 8, 8, 8, "--out-intensity", tmp_path / "i.raw",
                  "--out-label", tmp_path / "l.raw")
    assert out.returncode == 0, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith("synth: wrote")
    out = run_cli("dice", *labels)
    assert out.returncode == 0, out.stderr
    assert out.stdout == f"{2 * 2 / 6:.6f}\n"
    assert out.stderr == ""


def test_missing_file_exits_1(tmp_path, labels):
    assert_one_error_line(run_cli("dice", labels[0], tmp_path / "absent.raw"))


@pytest.mark.parametrize("sidecar", ['{"dtype": "f32"}', "[1, 2]"])
def test_malformed_sidecar_exits_1(labels, sidecar):
    Path(sidecar_path(labels[1])).write_text(sidecar)
    out = run_cli("dice", *labels)
    assert_one_error_line(out)
    assert str(labels[1]) in out.stderr


def test_usage_error_exits_2(labels):
    out = run_cli("dice", labels[0])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("usage: voxwalk dice")


@pytest.fixture
def scene(tmp_path):
    """An 8³ intensity volume and two probability maps near its truth."""
    out = run_cli("synth", "--dims", 8, 8, 8, "--out-intensity", tmp_path / "i.raw",
                  "--out-label", tmp_path / "l.raw")
    assert out.returncode == 0, out.stderr
    truth = np.fromfile(tmp_path / "l.raw", dtype="<f4").reshape(8, 8, 8)
    probs = []
    for k, shift in enumerate((0.3, 0.2)):
        path = tmp_path / f"p{k}.raw"
        write_volume(path, np.clip(truth * 0.9 + shift * (1 - truth), 0, 1), "prob")
        probs.append(path)
    return tmp_path / "i.raw", probs


@pytest.mark.parametrize("option", [["--tol", "nan"], ["--tol", "inf"], ["--beta", "nan"]])
def test_refine_rejects_non_finite_settings(tmp_path, scene, option):
    intensity, probs = scene
    out = run_cli("refine", "--probs", *probs, "--intensity", intensity,
                  "--out", tmp_path / "o.raw", *option)
    assert_one_error_line(out)
    assert ("solver_tol" if option[0] == "--tol" else "beta") in out.stderr
    assert not (tmp_path / "o.raw").exists()


def test_refine_rejects_nan_probability_file(tmp_path, scene):
    intensity, probs = scene
    payload = bytearray(probs[1].read_bytes())
    payload[8:12] = np.array([np.nan], dtype="<f4").tobytes()
    probs[1].write_bytes(bytes(payload))
    out = run_cli("refine", "--probs", *probs, "--intensity", intensity,
                  "--out", tmp_path / "o.raw")
    assert_one_error_line(out)
    assert str(probs[1]) in out.stderr and "non-finite" in out.stderr


def write_checkpoint(path, header):
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<I", len(blob)) + blob)


SPEC = {"unit_type": "conv3d", "depth": 1, "widths": [2, 3]}


@pytest.mark.parametrize("header, words", [
    ({"format": "rcnet-checkpoint", "version": 1}, '"spec"'),
    (["rcnet-checkpoint", 1], "not a network checkpoint"),
    ({"format": "rcnet-checkpoint", "version": 1, "spec": dict(SPEC, gamma=1)}, "gamma"),
    ({"format": "rcnet-checkpoint", "version": 9, "spec": SPEC}, "version 9"),
])
def test_infer_rejects_malformed_checkpoint(tmp_path, header, words):
    ckpt, volume = tmp_path / "net.ckpt", tmp_path / "v.raw"
    write_checkpoint(ckpt, header)
    write_volume(volume, np.zeros((4, 4, 4)), "intensity")
    out = run_cli("infer", "--checkpoint", ckpt, "--volume", volume, "--out", tmp_path / "o.raw")
    assert_one_error_line(out)
    assert str(ckpt) in out.stderr and words in out.stderr
    assert not (tmp_path / "o.raw").exists()


@pytest.mark.parametrize("header", [b"\xff\xfe{}", b"not json"])
def test_infer_rejects_checkpoint_header_that_is_not_utf8_json(tmp_path, header):
    ckpt, volume = tmp_path / "net.ckpt", tmp_path / "v.raw"
    ckpt.write_bytes(struct.pack("<I", len(header)) + header)
    write_volume(volume, np.zeros((4, 4, 4)), "intensity")
    out = run_cli("infer", "--checkpoint", ckpt, "--volume", volume, "--out", tmp_path / "o.raw")
    assert_one_error_line(out)
    assert str(ckpt) in out.stderr and "not UTF-8 JSON" in out.stderr
    assert not (tmp_path / "o.raw").exists()


def test_refine_rejects_two_dimensional_prob_sidecars(tmp_path):
    """Two 8x8 maps must not be fused as one 2x8x8 map."""
    intensity = tmp_path / "i.raw"
    write_volume(intensity, np.random.default_rng(0).random((2, 8, 8)), "intensity")
    probs = []
    for k in range(2):
        path = tmp_path / f"p{k}.raw"
        write_volume(path, np.full((1, 8, 8), 0.3 + 0.4 * k), "prob")
        Path(sidecar_path(path)).write_text(json.dumps(
            {"dims": [8, 8], "dtype": "f32", "order": "row-major", "kind": "prob"}))
        probs.append(path)
    out = run_cli("refine", "--probs", *probs, "--intensity", intensity,
                  "--out", tmp_path / "o.raw")
    assert_one_error_line(out)
    assert str(probs[0]) in out.stderr and "dims" in out.stderr
    assert not (tmp_path / "o.raw").exists()


def test_refine_rejects_maps_of_different_dims(tmp_path, scene):
    intensity, probs = scene
    odd = tmp_path / "odd.raw"
    write_volume(odd, np.full((8, 8, 4), 0.4), "prob")
    out = run_cli("refine", "--probs", *probs, odd, "--intensity", intensity,
                  "--out", tmp_path / "o.raw")
    assert_one_error_line(out)
    assert str(odd) in out.stderr and "dims" in out.stderr
    assert not (tmp_path / "o.raw").exists()


@pytest.mark.parametrize("theta", ["0.5", "1"])
def test_refine_rejects_intensity_of_other_dims_at_every_theta(tmp_path, theta):
    """At theta 1 no voxel is a candidate; the intensity is checked all the same."""
    intensity, prob = tmp_path / "i.raw", tmp_path / "p.raw"
    write_volume(intensity, np.zeros((3, 3, 3)), "intensity")
    write_volume(prob, np.full((4, 4, 4), 0.3), "prob")
    out = run_cli("refine", "--probs", prob, "--intensity", intensity, "--theta", theta,
                  "--out", tmp_path / "o.raw")
    assert_one_error_line(out)
    assert "dims" in out.stderr
    assert not (tmp_path / "o.raw").exists()


def test_refine_of_a_zero_voxel_volume_succeeds(tmp_path):
    intensity, prob = tmp_path / "i.raw", tmp_path / "p.raw"
    write_volume(intensity, np.zeros((0, 4, 4)), "intensity")
    write_volume(prob, np.zeros((0, 4, 4)), "prob")
    out = run_cli("refine", "--probs", prob, "--intensity", intensity,
                  "--out", tmp_path / "o.raw")
    assert out.returncode == 0, out.stderr
    assert read_volume(tmp_path / "o.raw")[0].shape == (0, 4, 4)


def test_refine_logs_its_counters(tmp_path, scene):
    intensity, probs = scene
    out = run_cli("refine", "--probs", *probs, "--intensity", intensity, "--theta", "0.5",
                  "--out", tmp_path / "o.raw")
    assert out.returncode == 0, out.stderr
    assert out.stdout == ""
    line, = out.stderr.splitlines()
    got = re.search(r"\((\d+) candidates, (\d+) edges, (\d+) Dirichlet terms, "
                    r"(\d+) PCG iterations, residual (\S+)\)$", line)
    assert got, line
    maps = np.stack([read_volume(p)[0] for p in probs])
    cfg = PipelineConfig()
    want = walker.refine(maps, read_volume(intensity)[0], 0.5, cfg.beta, tol=cfg.solver_tol)
    assert [int(v) for v in got.groups()[:4]] == [
        want.candidates, want.edges, want.dirichlet, want.iterations]
    assert want.candidates > 0 and want.iterations > 0
    assert got.group(5) == f"{want.residual:.3e}"


def test_refine_labels_equal_the_library_on_the_read_arrays(tmp_path, scene):
    """The CLI fuses the float32 arrays read_volume returns, nothing wider."""
    intensity, probs = scene
    out = run_cli("refine", "--probs", *probs, "--intensity", intensity, "--theta", "0.5",
                  "--out", tmp_path / "o.raw", "--out-x", tmp_path / "x.raw")
    assert out.returncode == 0, out.stderr
    maps = np.stack([read_volume(p)[0] for p in probs])
    assert maps.dtype == np.float32
    cfg = PipelineConfig()
    want = walker.refine(maps, read_volume(intensity)[0], 0.5, cfg.beta, tol=cfg.solver_tol)
    assert want.candidates > 0
    assert read_volume(tmp_path / "o.raw")[0].tobytes() == \
        want.labels.astype(np.float32).tobytes()
    assert read_volume(tmp_path / "x.raw")[0].tobytes() == want.x.tobytes()


def test_train_infer_and_refine_log_their_wall_time(tmp_path, scene):
    """train, infer and refine each log one line with the command's wall
    time; train's line ends with it, after the loss of every epoch."""
    intensity, probs = scene
    label = tmp_path / "l.raw"
    ckpt = tmp_path / "net.ckpt"
    args = {
        "train": ["--unit", "conv3d", "--volume", intensity, "--label", label,
                  "--depth", 1, "--widths", "2,3", "--learning-rate", 0.5, "--epochs", 3,
                  "--seed", 4, "--out", ckpt],
        "infer": ["--checkpoint", ckpt, "--volume", intensity, "--out", tmp_path / "p.raw"],
        "refine": ["--probs", *probs, "--intensity", intensity, "--theta", "0.5",
                   "--out", tmp_path / "o.raw"],
    }
    lines = {}
    for command, argv in args.items():
        t0 = time.perf_counter()
        out = run_cli(command, *argv)
        elapsed = time.perf_counter() - t0
        assert out.returncode == 0, out.stderr
        line, = out.stderr.splitlines()
        end = r" \(" if command == "refine" else "$"  # refine's counters close its line
        wall = re.search(r" in (\d+\.\d{3}) s" + end, line)
        assert line.startswith(command + ":") and wall, line
        assert 0.0 <= float(wall.group(1)) <= elapsed
        lines[command] = line
    spec = network.NetworkSpec("conv3d", 1, (2, 3), alpha=PipelineConfig().alpha, rng_seed=4)
    _, history = network.train_toy(spec, network.TrainConfig(learning_rate=0.5, epochs=3),
                                   [(read_volume(intensity)[0], read_volume(label)[0])])
    losses = ", ".join(f"{loss:.6f}" for loss in history)
    assert f"epoch losses [{losses}], saved {ckpt}" in lines["train"]


def test_whole_pipeline_runs_and_infer_matches_the_library(tmp_path):
    """synth -> train (both units) -> infer -> refine -> dice at toy size.
    The float32 checkpoint holds the trained parameters exactly, so the
    CLI's inferred map equals a net trained in memory on the same volumes."""
    for seed, name in ((1, "train"), (2, "test")):
        out = run_cli("synth", "--seed", seed, "--dims", 8, 8, 8,
                      "--out-intensity", tmp_path / f"{name}_i.raw",
                      "--out-label", tmp_path / f"{name}_l.raw")
        assert out.returncode == 0, out.stderr
    dataset = [(read_volume(tmp_path / "train_i.raw")[0],
                read_volume(tmp_path / "train_l.raw")[0])]
    test_volume = read_volume(tmp_path / "test_i.raw")[0]
    probs = []
    for seed, unit in enumerate(network.UNIT_TYPES, start=3):
        ckpt, prob = tmp_path / f"{unit}.ckpt", tmp_path / f"{unit}_p.raw"
        out = run_cli("train", "--unit", unit, "--volume", tmp_path / "train_i.raw",
                      "--label", tmp_path / "train_l.raw", "--depth", 2, "--widths", "2,3,4",
                      "--learning-rate", 0.5, "--epochs", 3, "--seed", seed, "--out", ckpt)
        assert out.returncode == 0, out.stderr
        out = run_cli("infer", "--checkpoint", ckpt, "--volume", tmp_path / "test_i.raw",
                      "--out", prob)
        assert out.returncode == 0, out.stderr
        probs.append(prob)
        spec = network.NetworkSpec(unit, 2, (2, 3, 4), alpha=PipelineConfig().alpha,
                                   rng_seed=seed)
        net, _ = network.train_toy(spec, network.TrainConfig(learning_rate=0.5, epochs=3),
                                   dataset)
        assert np.array_equal(read_volume(prob)[0], network.infer(net, test_volume))
    out = run_cli("refine", "--probs", *probs, "--intensity", tmp_path / "test_i.raw",
                  "--out", tmp_path / "fused.raw")
    assert out.returncode == 0, out.stderr
    out = run_cli("dice", tmp_path / "fused.raw", tmp_path / "test_l.raw")
    assert out.returncode == 0, out.stderr
    assert 0.0 <= float(out.stdout) <= 1.0


@pytest.mark.parametrize("config, key", [
    ({"theta": "0.5"}, "theta"),
    ({"seeds": [1]}, "seeds"),
    (["theta", 0.5], "JSON object"),
    ({"seeds": {"network": True}}, "seeds"),
])
def test_refine_rejects_malformed_config(tmp_path, scene, config, key):
    intensity, probs = scene
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = run_cli("refine", "--config", path, "--probs", *probs, "--intensity", intensity,
                  "--out", tmp_path / "o.raw")
    assert_one_error_line(out)
    assert str(path) in out.stderr and key in out.stderr
