"""Portable volume files and synthetic benchmark scenes.

A volume is stored as a raw little-endian float32 payload in row-major
order plus a JSON sidecar `<path>.json` describing dims, dtype, ordering
and the volume kind (intensity, prob, or label).  Labels are stored as
0.0/1.0 floats.  Writes are atomic (temp file + rename).

Volumes are float32 in memory as on disk: a write casts to float32 once
and checks the values it will store, and a read returns the payload as
float32 without widening it.
"""

import json
import math
import numbers
import os

import numpy as np

KINDS = ("intensity", "prob", "label")

# synthetic scene intensity levels: blobs ramp from midpoint at the rim to
# full contrast at the core, so thresholding a noiseless scene at
# BACKGROUND + CONTRAST/2 recovers the exact mask
SYNTH_BACKGROUND = 0.2
SYNTH_CONTRAST = 0.6
SYNTH_MIDPOINT = SYNTH_BACKGROUND + SYNTH_CONTRAST / 2.0


def sidecar_path(path):
    return str(path) + ".json"


def _atomic_write(path, data):
    """Write `data` (bytes, or a C-contiguous array's own buffer) to a temp
    file beside `path`, then rename it over `path`.

    The temp file is created with mode 0o666 less the umask, as `open()`
    creates a file (`mkstemp` would leave it owner-only), and exclusively,
    so no existing file is reused.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".vol-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_kind(data, kind, path):
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind == "label":
        if not ((data == 0) | (data == 1)).all():
            raise ValueError(f"{path}: label volumes must contain only 0 and 1")
    elif data.size:
        lo, hi = data.min(), data.max()  # NaN and +-inf reach one of them
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"{path}: {kind} volume has non-finite float32 values")
        if kind == "prob" and (lo < 0.0 or hi > 1.0):
            raise ValueError(f"{path}: prob volumes must have values in [0,1]")


def write_volume(path, data, kind):
    """Write a [D,H,W] volume and its sidecar; values are cast to float32.

    The checks run on the float32 values, so a value beyond the float32
    range is rejected as non-finite and no file is written.
    """
    with np.errstate(over="ignore"):  # overflow to inf is reported by the check
        data = np.ascontiguousarray(data, dtype="<f4")
    if data.ndim != 3:
        raise ValueError(f"expected a 3-D volume, got shape {data.shape}")
    _check_kind(data, kind, path)
    meta = {
        "dims": [int(s) for s in data.shape],
        "dtype": "f32",
        "order": "row-major",
        "kind": kind,
    }
    _atomic_write(path, data)
    _atomic_write(sidecar_path(path), (json.dumps(meta) + "\n").encode("utf-8"))


def read_volume(path, expect_kind=None):
    """Read a volume written by :func:`write_volume`.

    Returns (data as float32 [D,H,W], meta dict): the payload itself, in
    one writable native-endian array.  Payload length, dtype, ordering and
    value ranges are validated.
    """
    try:
        with open(sidecar_path(path), "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        dims = meta["dims"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed sidecar ({exc!r})") from None
    # exactly three JSON integers: bool is an int subclass, 4.7 is no extent
    if not (isinstance(dims, list) and len(dims) == 3
            and all(type(s) is int and s >= 0 for s in dims)):
        raise ValueError(
            f"{path}: malformed sidecar (dims must be three non-negative integers, "
            f"got {dims!r})")
    dims = tuple(dims)
    if meta.get("dtype") != "f32" or meta.get("order") != "row-major":
        raise ValueError(f"{path}: unsupported dtype/order in sidecar {meta}")
    kind = meta.get("kind")
    if kind not in KINDS:
        raise ValueError(f"{path}: unknown volume kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise ValueError(f"{path}: expected a {expect_kind} volume, found {kind}")
    count = math.prod(dims)  # exact: an int64 product wraps for huge dims
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size != 4 * count:
            raise ValueError(
                f"{path}: payload is {size} bytes, dims {dims} require {4 * count}")
        data = np.fromfile(fh, dtype="<f4", count=count)
    data = data.reshape(dims).astype(np.float32, copy=False)  # a copy only on big-endian hosts
    _check_kind(data, kind, path)
    return data, meta


def synth(seed, dims, n_blobs=3, noise_sigma=0.05):
    """Deterministic synthetic scene: smooth ellipsoidal blobs plus noise.

    Returns (intensity float64, ground-truth uint8 mask).  The mask is the
    noiseless blob support; blob intensity ramps from just above
    SYNTH_MIDPOINT at the rim to SYNTH_BACKGROUND + SYNTH_CONTRAST at the
    core.
    """
    dims = tuple(dims)
    # bool is an int subclass, and 8.7 is no extent
    integral = all(isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in dims)
    if len(dims) != 3 or not integral or any(s < 8 for s in dims):
        raise ValueError(f"dims must be three integer extents >= 8, got {dims}")
    dims = tuple(int(s) for s in dims)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if n_blobs < 0:
        raise ValueError(f"n_blobs must be >= 0, got {n_blobs}")
    if not 0 <= noise_sigma < np.inf:  # a negation, so that NaN is rejected
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*(np.arange(s, dtype=np.float64) for s in dims), indexing="ij")
    r2_min = np.full(dims, np.inf)
    for _ in range(n_blobs):
        center = [rng.uniform(0.3 * s, 0.7 * s) for s in dims]
        semi = [max(2.0, rng.uniform(0.16, 0.30) * s) for s in dims]
        r2 = sum(((g - c) / a) ** 2 for g, c, a in zip(grids, center, semi))
        r2_min = np.minimum(r2_min, r2)
    mask = r2_min < 1.0
    profile = np.where(mask, 1.0 - np.minimum(r2_min, 1.0), 0.0)
    intensity = SYNTH_BACKGROUND + SYNTH_CONTRAST * (0.5 + 0.5 * profile) * mask
    if noise_sigma > 0:
        intensity = intensity + rng.normal(0.0, noise_sigma, size=dims)
    return intensity, mask.astype(np.uint8)
