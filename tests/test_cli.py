"""The command-line contract: exit 0 with results on stdout and logs on
stderr, exit 1 with one `voxwalk: error:` line, exit 2 on usage errors."""

import inspect
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

from voxwalk import cli, network, selection, walker
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


@pytest.mark.parametrize("command, words", [
    ("dice", "usage: voxwalk dice"),
    ("select", "invalid choice: 'select'"),
    ("report", "invalid choice: 'report'"),
], ids=["dice", "select", "report"])
def test_usage_error_exits_2(labels, command, words):
    out = run_cli(command, labels[0])
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("usage: voxwalk") and words in out.stderr


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_synth_rejects_non_finite_noise_sigma(tmp_path, sigma):
    out = run_cli("synth", "--dims", 8, 8, 8, "--noise-sigma", sigma,
                  "--out-intensity", tmp_path / "i.raw", "--out-label", tmp_path / "l.raw")
    assert_one_error_line(out)
    assert "noise_sigma" in out.stderr
    assert not (tmp_path / "i.raw").exists() and not (tmp_path / "l.raw").exists()


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
    assert ("tol must be finite" if option[0] == "--tol" else "beta") in out.stderr
    assert not (tmp_path / "o.raw").exists()


@pytest.mark.parametrize("command, option, words", [
    ("refine", ["--theta", "2"], "theta"),
    ("train", ["--learning-rate", "nan"], "learning_rate"),
    ("train", ["--alpha", "2"], "alpha"),
    ("train", ["--seed", "-1"], "rng_seed"),
    ("synth", ["--seed", "-1"], "seed"),
], ids=["refine-theta", "train-learning_rate", "train-alpha", "train-seed", "synth-seed"])
def test_out_of_range_settings_exit_1(tmp_path, scene, command, option, words):
    """Each setting is checked where the library uses it, before any output."""
    intensity, probs = scene
    out_path = tmp_path / "o.raw"
    argv = {
        "refine": ["--probs", *probs, "--intensity", intensity, "--out", out_path],
        "train": ["--unit", "conv3d", "--volume", intensity, "--label", tmp_path / "l.raw",
                  "--depth", 1, "--widths", "2,3", "--out", out_path],
        "synth": ["--dims", 8, 8, 8, "--out-intensity", out_path,
                  "--out-label", tmp_path / "o_l.raw"],
    }[command]
    out = run_cli(command, *argv, *option)
    assert_one_error_line(out)
    assert words in out.stderr
    assert not list(tmp_path.glob("o*"))


def test_train_rejects_malformed_widths_as_usage_error(tmp_path, scene):
    intensity, _ = scene
    out = run_cli("train", "--unit", "conv3d", "--volume", intensity,
                  "--label", tmp_path / "l.raw", "--widths", "2,x", "--out", tmp_path / "n.ckpt")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "argument --widths" in out.stderr and "Traceback" not in out.stderr
    assert not (tmp_path / "n.ckpt").exists()


def test_cli_defaults_are_the_pipeline_config():
    cfg = PipelineConfig()
    parser = cli.build_parser()
    train = parser.parse_args(["train", "--unit", "conv3d", "--volume", "v", "--label", "l",
                               "--out", "o"])
    refine = parser.parse_args(["refine", "--probs", "p", "--intensity", "i", "--out", "o"])
    assert (train.alpha, train.learning_rate) == (cfg.alpha, cfg.learning_rate)
    assert (refine.theta, refine.beta, refine.tol) == (cfg.theta, cfg.beta, cfg.solver_tol)
    # the library's own defaults are the same fields
    spec = network.NetworkSpec("conv3d", 1, (1, 1))
    assert (train.kernel, train.temporal_kernel, train.seed) == (
        spec.kernel, spec.temporal_kernel, spec.rng_seed)
    assert spec.alpha == cfg.alpha
    for solver in (walker.solve, walker.refine):
        assert inspect.signature(solver).parameters["tol"].default == cfg.solver_tol


@pytest.mark.parametrize("command, defaults", [
    ("train", ("0.5", "0.0001")),
    ("refine", ("0.999", "100.0", "1e-08")),
], ids=["train", "refine"])
def test_help_states_the_settings_defaults(capsys, command, defaults):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for value in defaults:
        assert f"(default: {value})" in out


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
    ({"format": "rcnet-checkpoint", "version": 1, "spec": dict(SPEC, widths=[2.9, 3])},
     "widths"),
    ({"format": "rcnet-checkpoint", "version": 1, "spec": dict(SPEC, depth=True)}, "depth"),
    ({"format": "rcnet-checkpoint", "version": 1, "spec": dict(SPEC, rng_seed=-1)},
     "rng_seed"),
    # true and 1.0 compare equal to 1, but only the JSON integer 1 loads
    ({"format": "rcnet-checkpoint", "version": True, "spec": SPEC}, "version True"),
    ({"format": "rcnet-checkpoint", "version": 1.0, "spec": SPEC}, "version 1.0"),
])
def test_infer_rejects_malformed_checkpoint(tmp_path, header, words):
    ckpt, volume = tmp_path / "net.ckpt", tmp_path / "v.raw"
    write_checkpoint(ckpt, header)
    write_volume(volume, np.zeros((4, 4, 4)), "intensity")
    out = run_cli("infer", "--checkpoint", ckpt, "--volume", volume, "--out", tmp_path / "o.raw")
    assert_one_error_line(out)
    assert str(ckpt) in out.stderr and words in out.stderr
    assert not (tmp_path / "o.raw").exists()


def test_infer_has_no_mode_option(tmp_path):
    """infer runs expectation mode only, so --mode is a usage error."""
    ckpt, volume = tmp_path / "net.ckpt", tmp_path / "v.raw"
    network.save_checkpoint(ckpt, network.RandomConnectionNet(
        network.NetworkSpec("conv3d", 1, (2, 3))))
    write_volume(volume, np.zeros((4, 4, 4)), "intensity")
    out = run_cli("infer", "--checkpoint", ckpt, "--volume", volume, "--mode", "all-true",
                  "--out", tmp_path / "p.raw")
    assert out.returncode == 2
    assert out.stdout == ""
    assert [line for line in out.stderr.splitlines() if "error:" in line] == [
        "voxwalk: error: unrecognized arguments: --mode all-true"]
    assert not (tmp_path / "p.raw").exists()


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


def test_refine_scores_the_maps_once(tmp_path, scene, monkeypatch, capsys):
    """One refine scores the whole [K,D,H,W] stack it read, and only once."""
    intensity, probs = scene
    calls = []

    def counted(maps, score=selection.node_energies):
        calls.append(maps.shape)
        return score(maps)

    monkeypatch.setattr(selection, "node_energies", counted)
    code = cli.main(["refine", "--probs", *map(str, probs), "--intensity", str(intensity),
                     "--theta", "0.5", "--out", str(tmp_path / "o.raw")])
    assert code == 0, capsys.readouterr().err
    assert calls == [(2, 8, 8, 8)]


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
