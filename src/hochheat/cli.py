"""Command line front end for the verification suite.

Each subcommand runs one check family with its own flags; `all` runs every
family and can write the report to a file.  The process exits with status
0 only if every executed check passed.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from .report import VerificationReport
from .suite import FAMILIES, SuiteConfig, run_suite


def _parse_bump(text: str) -> Tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"--bump expects center,radius,power (e.g. 0.35,0.2,2), got {text!r}"
        )
    try:
        center, radius = float(parts[0]), float(parts[1])
        power = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--bump could not parse {text!r}: {exc}") from None
    return center, radius, power


def _parse_grid(text: str) -> Tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"--t-grid expects start:stop:count (e.g. 0.01:0.1:10), got {text!r}"
        )
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"--t-grid could not parse {text!r}: {exc}") from None
    if count < 2 or start <= 0 or stop <= start:
        raise argparse.ArgumentTypeError("--t-grid needs stop > start > 0 and count >= 2")
    ratio = (stop / start) ** (1.0 / (count - 1))
    return tuple(start * ratio**i for i in range(count))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hochheat",
        description="verification checks for cycle algebra, spectral traces, and localization",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cycles", aliases=["verify-cycles"], help="fundamental cycle identities")
    p.add_argument("--n", type=int, default=3, help="largest number of variable pairs (1..4)")

    sub.add_parser("shuffle", help="shuffle product multiplicativity and Leibniz rule")

    p = sub.add_parser("symbol", help="antisymmetrized symbol of the fundamental cycles")
    p.add_argument("--n", type=int, default=3, help="largest number of variable pairs (1..4)")

    p = sub.add_parser("tsygan", help="boundary and bicomplex identities on random chains")
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("spectrum", help="kernel dimensions and paired spectra")
    p.add_argument("--k", type=int, default=1, help="bundle degree")
    p.add_argument("--trunc", type=int, default=10, help="basis truncation")
    p.add_argument("--no-cache", action="store_true", help="ignore and skip the spectrum cache")

    p = sub.add_parser("mckean-singer", help="flatness of the heat supertrace")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--trunc", type=int, default=10)
    p.add_argument("--t-min", type=float, default=0.2)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--points", type=int, default=20)

    p = sub.add_parser("harmonic", help="supertraces on the harmonic spaces")
    p.add_argument("--k", type=int, default=None, help="single bundle degree (default 0..4)")

    p = sub.add_parser("chern-integrals", help="curvature and Todd integrals")
    p.add_argument("--levels", type=int, default=6)
    p.add_argument(
        "--method", choices=("tanh-sinh", "gauss-legendre"), default="tanh-sinh"
    )
    p.add_argument(
        "--product", type=int, default=None, metavar="N",
        help="also integrate the N-fold product of spheres (1..4)",
    )

    p = sub.add_parser("localization", help="bump localization of circle heat traces")
    p.add_argument("--l1", type=float, default=1.0, help="circumference carrying the bump")
    p.add_argument("--l2", type=float, default=1.7, help="second circumference")
    p.add_argument("--bump", type=_parse_bump, default=(0.35, 0.2, 2), metavar="C,RHO,M")
    p.add_argument(
        "--t-grid", type=_parse_grid, default=None, metavar="A:B:N",
        help="log-spaced short-time grid (default 0.01:0.1:10)",
    )

    p = sub.add_parser("all", help="run every family")
    p.add_argument("--report", metavar="PATH", help="write the JSON report to this file")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _selection_and_config(args: argparse.Namespace) -> Tuple[List[str], SuiteConfig]:
    cfg = SuiteConfig()
    cmd = args.command
    if cmd in ("cycles", "verify-cycles", "symbol"):
        if not 1 <= args.n <= 4:
            # the degree-2n cycle has 131,265 words at n = 4 and about 10^7 at n = 5
            raise ValueError(f"--n must be between 1 and 4, got {args.n}")
        cfg.max_weyl = args.n
        return ["symbol" if cmd == "symbol" else "cycles"], cfg
    if cmd == "shuffle":
        return ["shuffle"], cfg
    if cmd == "tsygan":
        if args.samples < 1:
            raise ValueError(f"--samples must be positive, got {args.samples}")
        cfg.samples = args.samples
        cfg.seed = args.seed
        return ["tsygan"], cfg
    if cmd == "spectrum":
        cfg.k = args.k
        cfg.trunc = args.trunc
        cfg.use_cache = not args.no_cache
        return ["spectrum"], cfg
    if cmd == "mckean-singer":
        cfg.k = args.k
        cfg.trunc = args.trunc
        cfg.t_min = args.t_min
        cfg.t_max = args.t_max
        cfg.points = args.points
        return ["mckean-singer"], cfg
    if cmd == "harmonic":
        if args.k is not None:
            if args.k < 0:
                raise ValueError(f"--k must be nonnegative, got {args.k}")
            cfg.harmonic_ks = (args.k,)
        return ["harmonic"], cfg
    if cmd == "chern-integrals":
        cfg.levels = args.levels
        cfg.method = args.method
        selection = ["chern"]
        if args.product is not None:
            if not 1 <= args.product <= 4:
                raise ValueError(f"--product must be between 1 and 4, got {args.product}")
            cfg.product_factors = args.product
            selection.append("product")
        return selection, cfg
    if cmd == "localization":
        cfg.length_a = args.l1
        cfg.length_b = args.l2
        cfg.bump = args.bump
        if args.t_grid is not None:
            cfg.short_times = args.t_grid
        return ["localization"], cfg
    if cmd == "all":
        cfg.seed = args.seed
        return list(FAMILIES), cfg
    raise ValueError(f"unknown command {cmd!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        selection, cfg = _selection_and_config(args)
        report = run_suite(selection, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rendered = report.to_json() if args.format == "json" else report.to_text()
    print(rendered)
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
