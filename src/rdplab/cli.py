"""Command-line front end emitting reproducible result tables.

All subcommands print rows in one fixed CSV schema (or the same rows as a
JSON array with ``--json``); numeric fields use 9 significant digits and
seeded subcommands are bit-deterministic.  Exit codes: 0 success, 1
numeric failure, 2 flag errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import circle, frontier, simlab, stagger
from .simlab import fmt

CSV_HEADER = "scheme,params,rate_bits,distortion,perception_ks,provenance,seed,n_samples"
_COLUMNS = CSV_HEADER.split(",")


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for row in rows:
        writer.writerow([
            str(row[c]) if c in ("scheme", "params", "provenance")
            else fmt(row[c]) for c in _COLUMNS])
    return buf.getvalue()


def _point_row(scheme: str, point: circle.FrontierPoint) -> dict:
    return simlab.row(scheme, point.params, point.provenance, point.rate_bits,
                      point.distortion)


def _add_output_flags(sp):
    sp.add_argument("--out", default=None, help="write rows to this file")
    sp.add_argument("--json", action="store_true",
                    help="emit a JSON array instead of CSV")


def _add_scalar_flags(sp):
    sp.add_argument("--source", required=True,
                    help="uniform:lo,hi | gauss:mu,sigma | circle")
    sp.add_argument("--delta", type=float, required=True, help="stepsize")
    sp.add_argument("--offsets", type=int, default=1)
    sp.add_argument("--origin", type=float, default=0.0,
                    help="grid anchor (cell edges of offset 0 at origin + "
                         "(k+1/2)*delta)")


def _scalar_config(args, **extra) -> simlab.ExperimentConfig:
    return simlab.ExperimentConfig(
        scheme="scalar-staggered", source=args.source, delta=args.delta,
        offsets=args.offsets, origin=args.origin, **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdplab",
        description="Staggered/dithered quantizer experiments and reference "
                    "rate-distortion frontiers at perfect perceptual quality.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("circle-closed-form",
                        help="closed-form (rate, distortion) of N staggered "
                             "L-level circle quantizers")
    sp.add_argument("--L", type=int, required=True, help="quantizer levels")
    sp.add_argument("--N", type=int, default=1, help="staggered offsets")
    _add_output_flags(sp)

    sp = sub.add_parser("circle-simulate",
                        help="Monte Carlo run of a circle coder")
    sp.add_argument("--L", type=int, required=True, help="quantizer levels")
    sp.add_argument("--N", type=int, default=1, help="staggered offsets")
    sp.add_argument("--dithered", action="store_true",
                    help="simulate the dithered coder instead of staggered")
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    _add_output_flags(sp)

    sp = sub.add_parser("one-shot-frontier",
                        help="extreme points of the one-shot frontier up to Lmax")
    sp.add_argument("--Lmax", type=int, required=True)
    _add_output_flags(sp)

    sp = sub.add_parser("rdp-frontier",
                        help="perfect-perception frontier on a log-spaced "
                             "concentration grid")
    sp.add_argument("--lambda-min", type=float, default=0.01)
    sp.add_argument("--lambda-max", type=float, default=100.0)
    sp.add_argument("--points", type=int, default=25)
    _add_output_flags(sp)

    sp = sub.add_parser("scalar-simulate",
                        help="end-to-end staggered pipeline on a scalar source")
    _add_scalar_flags(sp)
    sp.add_argument("--samples", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=0)
    _add_output_flags(sp)

    sp = sub.add_parser("scalar-exact",
                        help="exact code masses, rates and distortion of the "
                             "staggered scheme plus the dithered baseline")
    _add_scalar_flags(sp)
    _add_output_flags(sp)

    sp = sub.add_parser("two-cell",
                        help="grid search for the optimal two-cell split")
    sp.add_argument("--r", type=float, required=True,
                    help="combined size of the two cells as a circle fraction")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--grid", type=int, default=100_000)
    _add_output_flags(sp)

    sp = sub.add_parser("sweep", help="run the sweep described by a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--axis", default=None,
                    help="parameter to sweep (levels, offsets, delta, lambda, "
                         "samples, seed); omit for a single run")
    sp.add_argument("--values", default=None,
                    help="comma-separated sweep values")
    _add_output_flags(sp)
    return parser


def _run(args) -> list[dict]:
    # counts must be exact as doubles, and seeds non-negative
    for dest, value in vars(args).items():
        if type(value) is int:
            parse = simlab.parse_seed if dest == "seed" else simlab.parse_count
            try:
                parse(value)
            except ValueError as exc:
                raise ValueError(f"--{dest} {exc}") from None
    cmd = args.command
    if cmd == "circle-closed-form":
        return [_point_row("circle-staggered",
                           circle.staggered_circle_rd(args.L, args.N))]
    if cmd == "circle-simulate":
        scheme = "circle-dithered" if args.dithered else "circle-staggered"
        cfg = simlab.ExperimentConfig(scheme=scheme, levels=args.L,
                                      offsets=args.N, n_samples=args.samples,
                                      seed=args.seed)
        return simlab.run_experiment(cfg)
    if cmd == "one-shot-frontier":
        return [_point_row("one-shot", p)
                for p in circle.one_shot_frontier(args.Lmax)]
    if cmd == "rdp-frontier":
        # refused before the grid exists: 1e9 points would be 8 GB
        if not 1 <= args.points <= frontier.MAX_CURVE_POINTS:
            raise ValueError(f"--points must lie in "
                             f"[1, {frontier.MAX_CURVE_POINTS}], "
                             f"got {args.points}")
        if not (0 < args.lambda_min <= args.lambda_max < math.inf):
            raise ValueError("need 0 < lambda-min <= lambda-max, both finite")
        grid = np.geomspace(args.lambda_min, args.lambda_max, args.points)
        return [_point_row("rdp-frontier", p) for p in frontier.rdp_curve(grid)]
    if cmd == "scalar-simulate":
        return simlab.run_experiment(
            _scalar_config(args, n_samples=args.samples, seed=args.seed))
    if cmd == "scalar-exact":
        return _scalar_exact_rows(args)
    if cmd == "two-cell":
        rep = circle.verify_two_cell_optimality(args.r, args.lam, args.grid)
        params = (f"r={fmt(args.r)};lambda={fmt(args.lam)};grid={args.grid};"
                  f"alpha_opt={fmt(rep.alpha_opt)};"
                  f"is_midpoint={int(rep.is_midpoint)};"
                  f"boundary_optimum={int(rep.boundary_optimum)}")
        return [simlab.row("two-cell", params, "grid-search")]
    # sweep
    base = simlab.parse_config_file(args.config)
    if args.axis is None:
        return simlab.run_experiment(base)
    values = [v for v in (args.values or "").split(",") if v]
    if not values:
        raise ValueError("--axis requires --values")
    return simlab.sweep(base, args.axis, values)


def _scalar_exact_rows(args) -> list[dict]:
    spec, params = simlab.staggered_spec(_scalar_config(args))
    dist = stagger.exact_code_distribution(spec)
    return [
        simlab.row("scalar-staggered",
                   params + f";pooled_H={fmt(dist.pooled_entropy_bits)}",
                   "exact", dist.avg_conditional_entropy_bits, dist.mse_exact,
                   0.0),
        simlab.row("scalar-dithered",
                   (f"source={args.source};delta={fmt(args.delta)};"
                    f"cells={dist.dithered.n_cells};"
                    f"H={fmt(dist.dithered.entropy_bits)}"),
                   "exact", dist.dithered.fixed_rate_bits, dist.dithered.mse),
    ]


def cli_dispatch(argv) -> int:
    """Parse argv, run the subcommand, write rows.  Returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:      # argparse exits 2 on flag errors, 0 on --help
        return int(exc.code or 0)
    try:
        rows = _run(args)
        text = (json.dumps(rows, indent=2) + "\n" if args.json
                else rows_to_csv(rows))
    except (ValueError, RuntimeError, OSError, MemoryError,
            OverflowError) as exc:
        print(f"rdplab: error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
