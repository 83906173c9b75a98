"""Command-line interface.

Subcommands cover the full offline/online workflow:

    design        build a sampling plan from a kernel
    train-kernel  average a training ensemble into a covariance kernel
    estimate      reconstruct a channel from a plan and an observation
    sweep         run a Monte-Carlo NMSE benchmark to CSV
    plot          render a results CSV to SVG
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import fileio
from .channels import build_port_geometry
from .harness import emit_csv, load_config, read_csv, run_sweep, train_covariance_kernel
from .kernels import BESSEL, EXPONENTIAL, kernel_bessel, kernel_exponential
from .sbar import design_plan, reconstruct
from .svgplot import emit_svg


def _add_design(sub):
    p = sub.add_parser("design", help="build a sampling plan from a kernel")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--kernel-file", help="load the prior covariance from a kernel file")
    src.add_argument(
        "--kernel-kind",
        choices=[EXPONENTIAL, BESSEL],
        help="build an analytic kernel from the geometry flags instead",
    )
    p.add_argument("--ports", type=int, help="number of ports N (with --kernel-kind)")
    p.add_argument("--aperture", type=float, help="aperture in wavelengths (with --kernel-kind)")
    p.add_argument("--carrier-hz", type=float, help="carrier frequency (with --kernel-kind)")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=None, help="correlation length in carrier wavelengths")
    p.add_argument("--pilots", type=int, required=True, help="number of timeslots P")
    p.add_argument("--antennas", type=int, required=True, help="ports per timeslot M")
    p.add_argument("--noise-power", type=float, required=True, help="design noise variance")
    p.add_argument("--out", required=True, help="plan file to write (.json for textual)")


def _add_train(sub):
    p = sub.add_parser("train-kernel", help="train a covariance kernel from a config's channel model")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--train-slots", type=int, default=100, help="training channels T")
    p.add_argument("--out", required=True, help="kernel file to write (.json for textual)")


def _add_estimate(sub):
    p = sub.add_parser("estimate", help="reconstruct a channel from plan + observation")
    p.add_argument("--plan", required=True)
    p.add_argument("--observation", required=True, help="observation JSON file")
    p.add_argument("--out", required=True, help="estimate JSON file to write")


def _add_sweep(sub):
    p = sub.add_parser("sweep", help="run a Monte-Carlo NMSE benchmark")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--seed", type=int, required=True, help="base seed (overrides the config)")
    p.add_argument("--out", required=True, help="results CSV to write")


def _add_plot(sub):
    p = sub.add_parser("plot", help="render a results CSV to SVG")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--title", default="mean NMSE vs pilot slots")


def _cmd_design(args):
    if args.kernel_file:
        kernel = fileio.load_kernel(args.kernel_file)
    else:
        missing = [f for f in ("ports", "aperture", "carrier_hz") if getattr(args, f) is None]
        if missing:
            raise SystemExit(f"--kernel-kind requires --{missing[0].replace('_', '-')}")
        geom = build_port_geometry(args.ports, args.aperture, args.carrier_hz)
        if args.kernel_kind == EXPONENTIAL:
            kernel = kernel_exponential(geom, alpha=args.alpha, eta=args.eta)
        else:
            kernel = kernel_bessel(geom, alpha=args.alpha, eta=args.eta)
    plan = design_plan(kernel, args.pilots, args.antennas, args.noise_power)
    fileio.save_plan(args.out, plan)
    print(f"wrote plan {args.out}: N={plan.num_ports} P={plan.num_timeslots} "
          f"M={plan.antennas_per_slot} ports={[p + 1 for p in plan.order]}")


def _cmd_train(args):
    config = load_config(args.config)
    kernel = train_covariance_kernel(config, args.train_slots)
    fileio.save_kernel(args.out, kernel)
    print(f"wrote kernel {args.out}: kind={kernel.kind} N={kernel.num_ports} "
          f"jitter={kernel.jitter:.3e}")


def _cmd_estimate(args):
    plan = fileio.load_plan(args.plan)
    obs = fileio.load_observation(args.observation)
    rec = reconstruct(plan, obs)
    fileio.save_estimate(args.out, rec)
    print(f"wrote estimate {args.out}: N={rec.estimate.size}")


def _cmd_sweep(args):
    config = load_config(args.config, seed_override=args.seed)
    records = run_sweep(config)
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")


def _cmd_plot(args):
    records = read_csv(args.csv)
    emit_svg(records, args.out, title=args.title)
    print(f"wrote {args.out}")


@functools.cache
def _parser():
    """The argument parser, built on first use and kept for the process.

    Parsing leaves no state in it, so repeated ``main`` calls in one process
    share it.  It names subcommands only: ``main`` maps them to handlers at
    call time, and the handlers look the package functions up as module
    globals, where a caller may have rebound them.
    """
    parser = argparse.ArgumentParser(prog="fasbar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_design(sub)
    _add_train(sub)
    _add_estimate(sub)
    _add_sweep(sub)
    _add_plot(sub)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    handler = {
        "design": _cmd_design,
        "train-kernel": _cmd_train,
        "estimate": _cmd_estimate,
        "sweep": _cmd_sweep,
        "plot": _cmd_plot,
    }[args.command]
    handler(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
