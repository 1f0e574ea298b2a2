"""The command-line contract: exit 0 with results on stdout and logs on
stderr, exit 1 with one `voxwalk: error:` line, exit 2 on usage errors."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from voxwalk.volio import sidecar_path, write_volume

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
