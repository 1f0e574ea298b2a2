"""Command-line pipeline driver.

Subcommands: synth, train, infer, refine, dice.  Machine readable results
go only to the declared output files (or stdout for `dice`); progress logs
go to stderr.  Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

import argparse
import sys
from time import perf_counter

import numpy as np

from . import metrics, network, volio, walker
from .config import PipelineConfig


def _log(msg):
    print(msg, file=sys.stderr)


def int_list(text):
    """Parse a comma-separated list of integers, e.g. "8,16,32"."""
    return tuple(int(w) for w in text.split(","))


def _cmd_synth(args):
    intensity, label = volio.synth(args.seed, args.dims, args.n_blobs, args.noise_sigma)
    volio.write_volume(args.out_intensity, intensity, "intensity")
    volio.write_volume(args.out_label, label, "label")
    _log(f"synth: wrote {args.out_intensity} and {args.out_label} "
         f"({args.dims[0]}x{args.dims[1]}x{args.dims[2]}, {args.n_blobs} blobs)")
    return 0


def _cmd_train(args):
    t0 = perf_counter()
    if len(args.volume) != len(args.label):
        raise ValueError("--volume and --label must be given the same number of times")
    dataset = []
    for vpath, lpath in zip(args.volume, args.label):
        vol, _ = volio.read_volume(vpath, expect_kind="intensity")
        lab, _ = volio.read_volume(lpath, expect_kind="label")
        dataset.append((vol, lab))
    spec = network.NetworkSpec(
        unit_type=args.unit,
        depth=args.depth,
        widths=args.widths,
        kernel=args.kernel,
        temporal_kernel=args.temporal_kernel,
        alpha=args.alpha,
        rng_seed=args.seed,
    )
    tc = network.TrainConfig(learning_rate=args.learning_rate, epochs=args.epochs)
    net, history = network.train_toy(spec, tc, dataset)
    network.save_checkpoint(args.out, net)
    losses = ", ".join(f"{loss:.6f}" for loss in history)
    _log(f"train: {args.unit} depth={args.depth} widths={args.widths} "
         f"epoch losses [{losses}], saved {args.out} in {perf_counter() - t0:.3f} s")
    return 0


def _cmd_infer(args):
    t0 = perf_counter()
    net = network.load_checkpoint(args.checkpoint)
    vol, _ = volio.read_volume(args.volume, expect_kind="intensity")
    prob = network.infer(net, vol)
    volio.write_volume(args.out, prob, "prob")
    _log(f"infer: {args.checkpoint} on {args.volume} -> {args.out} "
         f"in {perf_counter() - t0:.3f} s")
    return 0


def _read_prob_maps(paths):
    """Read the K probability volumes into one [K,D,H,W] array, filled in place."""
    maps = None
    for k, path in enumerate(paths):
        data, _ = volio.read_volume(path, expect_kind="prob")
        if maps is None:
            maps = np.empty((len(paths),) + data.shape, dtype=data.dtype)
        elif data.shape != maps.shape[1:]:
            raise ValueError(
                f"{path}: dims {data.shape} differ from the first map's {maps.shape[1:]}")
        maps[k] = data
    return maps


def _cmd_refine(args):
    t0 = perf_counter()
    maps = _read_prob_maps(args.probs)
    intensity, _ = volio.read_volume(args.intensity, expect_kind="intensity")
    result = walker.refine(
        maps, intensity, args.theta, args.beta, tol=args.tol,
        include_dirichlet=not args.no_dirichlet)
    del maps, intensity  # the writes below need only the result
    volio.write_volume(args.out, result.labels, "label")
    if args.out_x:
        volio.write_volume(args.out_x, result.x, "prob")
    # the wall time precedes the counters, whose group closes the line
    _log(f"refine: K={len(args.probs)} theta={args.theta} beta={args.beta} -> {args.out} "
         f"in {perf_counter() - t0:.3f} s ({result.candidates} candidates, "
         f"{result.edges} edges, {result.dirichlet} Dirichlet terms, "
         f"{result.iterations} PCG iterations, residual {result.residual:.3e})")
    return 0


def _cmd_dice(args):
    a, _ = volio.read_volume(args.a, expect_kind="label")
    b, _ = volio.read_volume(args.b, expect_kind="label")
    print(f"{metrics.dice(a, b):.6f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="voxwalk",
        description="Randomized-connection segmentation with random-walker refinement")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = PipelineConfig()

    p = sub.add_parser("synth", help="generate a synthetic intensity/label pair")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, nargs=3, required=True, metavar=("D", "H", "W"))
    p.add_argument("--n-blobs", type=int, default=3)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--out-intensity", required=True)
    p.add_argument("--out-label", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a toy network on volume/label pairs",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--unit", choices=network.UNIT_TYPES, required=True)
    p.add_argument("--volume", action="append", required=True)
    p.add_argument("--label", action="append", required=True)
    p.add_argument("--depth", type=int, default=2, help="pooling levels")
    p.add_argument("--widths", type=int_list, default="8,16,32",
                   help="maps per level, top first")
    p.add_argument("--kernel", type=int, default=network.NetworkSpec.kernel,
                   help="in-plane kernel extent")
    p.add_argument("--temporal-kernel", type=int, default=network.NetworkSpec.temporal_kernel,
                   help="depth extent (conv3d only)")
    p.add_argument("--alpha", type=float, default=defaults.alpha,
                   help="skip-connection keep probability")
    p.add_argument("--learning-rate", type=float, default=defaults.learning_rate,
                   help="SGD step size")
    p.add_argument("--epochs", type=int, default=1, help="passes over the training pairs")
    p.add_argument("--seed", type=int, default=network.NetworkSpec.rng_seed,
                   help="weight and mask seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="run a checkpoint on an intensity volume")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--volume", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("refine", help="fuse probability maps into labels",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--probs", nargs="+", required=True)
    p.add_argument("--intensity", required=True)
    p.add_argument("--theta", type=float, default=defaults.theta,
                   help="fraction kept as confident")
    p.add_argument("--beta", type=float, default=defaults.beta, help="edge-weight sharpness")
    p.add_argument("--tol", type=float, default=defaults.solver_tol,
                   help="PCG relative residual tolerance")
    p.add_argument("--no-dirichlet", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--out-x")
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("dice", help="print the Dice overlap of two label volumes")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_dice)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"voxwalk: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
