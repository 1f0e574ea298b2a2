"""voxwalk benchmark driver.

    python3 perfbench/run.py --workload {train,fuse-dense,fuse-paper} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
`src/` beside this directory, never from an installed copy.  With
`--trace 0` the run measures the end-to-end metrics with the code
unwrapped.  With `--trace 1` it alternates untraced and traced operations
and reports the per-layer metrics of the traced ones, plus the tracing
overhead (traced minus untraced median operation time).  Human-readable
lines come first; the last line of standard output is one JSON object.
Spans and the full result record are written under `.perfbench/` in the
checkout.  README.md beside this file describes the workloads and metrics.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_OPS = 3          # untraced operations per run, at least
MIN_TRACED_OPS = 2   # traced operations per traced run, at least
WORKLOADS = ("train", "fuse-dense", "fuse-paper")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import voxwalk from the checkout's src/; returns the seconds it took."""
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import voxwalk  # noqa: F401  (timed: pulls in numpy and scipy)
    from voxwalk import cli, metrics, network, selection, volio, walker  # noqa: F401
    if SRC not in Path(voxwalk.__file__).resolve().parents:
        raise ImportError(f"voxwalk was imported from {voxwalk.__file__}, not from {SRC}")
    return perf_counter() - t0


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
    }


def measure(workload, seconds, tracer):
    """Run operations for `seconds`.  With a tracer, every second operation is
    traced.  Returns the untraced and the traced calls' wall times (each a
    dict: call kind -> list of seconds) and the outcomes."""
    plain, traced, outcomes = {}, {}, []
    deadline = perf_counter() + seconds
    n_plain = n_traced = 0
    while True:
        use_tracer = tracer is not None and n_traced < n_plain
        if use_tracer:
            with tracer.installed():
                outcome = workload.run_op(tracer)
            n_traced += 1
        else:
            outcome = workload.run_op()
            n_plain += 1
        for kind, dt in outcome.calls.items():
            (traced if use_tracer else plain).setdefault(kind, []).append(dt)
        outcomes.append(outcome)
        enough = n_plain >= MIN_OPS and (tracer is None or n_traced >= MIN_TRACED_OPS)
        if enough and perf_counter() >= deadline:
            return plain, traced, outcomes


def op_seconds(calls):
    """Operation time: the sum over its call kinds of each kind's median."""
    return sum(statistics.median(v) for v in calls.values())


def peak_heap(workload):
    """Run one more operation under tracemalloc; returns (outcome, peak MB of
    the memory it allocated, numpy buffers included)."""
    tracemalloc.start()
    try:
        outcome = workload.run_op()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return outcome, peak / 2 ** 20


def run(args, import_s):
    import spans
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            workload.setup()
            setup.append(perf_counter() - t0)
        tracer = spans.Tracer() if args.trace else None
        plain, traced, outcomes = measure(workload, args.seconds, tracer)
        if tracer is None:
            outcome, heap_mb = peak_heap(workload)
            outcomes.append(outcome)
        outcomes.append(workload.verify())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        for error in o.errors:
            print(f"perfbench: failed: {error}", file=sys.stderr)
    op_s = op_seconds(plain)
    rows = [
        ("setup_s", import_s + statistics.median(setup), "s",
         f"import {import_s:.3f} s + median of {len(setup)} set-ups"),
        ("op_s", op_s, "s", "sum of per-call medians over untraced operations: "
         + ", ".join(f"{k} x{len(v)}" for k, v in plain.items())),
    ]
    if tracer is None:
        rows.append(("peak_heap_mb", heap_mb, "MB", "tracemalloc peak of one more operation"))
    end_to_end = {name: {"value": v, "unit": u} for name, v, u, _ in rows}
    rows.append(("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                 "MB", "ru_maxrss of the run; not bounded, see README"))
    rows += workload.report(plain)
    rows.append(("failed_frac", failed / attempted, "1", f"{failed} of {attempted}"))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        layers = spans.layer_metrics(tracer, workload.unit_root)
        traced_s = op_seconds(traced)
        layers["trace.overhead_s"] = traced_s - op_s
        layers["trace.overhead_frac"] = (traced_s - op_s) / op_s
        tracer.dump(OUT_DIR / f"{tag}-spans.json")
        metrics_out = {name: {"value": v, "unit": spans.unit_of(name)}
                       for name, v in layers.items()}
    else:
        metrics_out = end_to_end

    env = environment(args.seed)
    for name, value, unit, note in rows:
        print(f"{name:28s} {value:14.6g} {unit:6s} {note}")
    if tracer is not None:
        for name, m in metrics_out.items():
            print(f"{name:28s} {m['value']:14.6g} {m['unit']:6s}")
    print("env " + json.dumps(env, sort_keys=True))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": failed == 0,
              "attempted": attempted, "failed": failed,
              "rows": [{"name": n, "value": v, "unit": u, "note": t} for n, v, u, t in rows],
              "metrics": metrics_out}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0


def main(argv=None):
    if sys.flags.optimize > 0:
        print("perfbench: refusing to run under python -O: it strips the walker's "
              "assert-based checks, so the run would measure a different program",
              file=sys.stderr)
        return 2
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:   # before numpy loads OpenBLAS
        os.environ[var] = BLAS_THREADS
    try:
        import_s = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import voxwalk from {SRC}: {exc}", file=sys.stderr)
        return 1
    return run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
