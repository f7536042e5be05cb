"""Command line front end for the verification suite.

Each subcommand runs one check family with its own flags; `all` runs every
family and can write the report to a file.  The process exits with status
0 only if every executed check passed, and with 2 if a value is refused.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .spectral import IllConditionedGramError
from .suite import FAMILIES, MAX_SAMPLES, SuiteConfig, run_suite


def _triple(text: str, sep: str, flag: str, form: str) -> Tuple[float, float, int]:
    parts = text.split(sep)
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{flag} expects {form}, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{flag} could not parse {text!r}: {exc}") from None


def _parse_bump(text: str) -> Tuple[float, float, int]:
    return _triple(text, ",", "--bump", "center,radius,power (e.g. 0.35,0.2,2)")


def _parse_grid(text: str) -> Tuple[float, ...]:
    start, stop, count = _triple(text, ":", "--t-grid", "start:stop:count (e.g. 0.01:0.1:10)")
    if not (2 <= count <= MAX_SAMPLES and 0 < start < stop < math.inf):
        raise argparse.ArgumentTypeError(
            f"--t-grid needs finite stop > start > 0 and 2 <= count <= {MAX_SAMPLES}")
    ratio = (stop / start) ** (1.0 / (count - 1))
    return tuple(start * ratio**i for i in range(count))


def degree(text: str) -> Tuple[int]:
    """One bundle degree, as a one-element `harmonic_ks`."""
    return (int(text),)


_KS, _TIMES = SuiteConfig().harmonic_ks, SuiteConfig().short_times
_N = ("--n", "max_weyl", dict(type=int, metavar="N", help="largest number of variable pairs (1..4)"))
_SEED = ("--seed", "seed", dict(type=int))

#: subcommand -> (families, aliases, help, flags).  A flag is (flag, SuiteConfig field,
#: argparse keywords); a flag left out keeps the field's default.
COMMANDS = {
    "cycles": (["cycles"], ["verify-cycles"], "fundamental cycle identities", [_N]),
    "shuffle": (["shuffle"], [], "shuffle product multiplicativity and Leibniz rule", []),
    "symbol": (["symbol"], [], "antisymmetrized symbol of the fundamental cycles", [_N]),
    "tsygan": (["tsygan"], [], "boundary and bicomplex identities on random chains",
               [("--samples", "samples", dict(type=int)), _SEED]),
    "spectrum": (["spectrum"], [], "kernel dimensions and paired spectra", [
        ("--k", "k", dict(type=int, help="bundle degree")),
        ("--trunc", "trunc", dict(type=int, help="basis truncation")),
        ("--no-cache", "use_cache", dict(action="store_false",
                                         help="ignore and skip the spectrum cache"))]),
    "mckean-singer": (["mckean-singer"], [], "flatness of the heat supertrace", [
        ("--k", "k", dict(type=int)), ("--trunc", "trunc", dict(type=int)),
        ("--t-min", "t_min", dict(type=float)), ("--t-max", "t_max", dict(type=float)),
        ("--points", "points", dict(type=int))]),
    "harmonic": (["harmonic"], [], "supertraces on the harmonic spaces", [
        ("--k", "harmonic_ks", dict(type=degree, metavar="K",
                                    help=f"single bundle degree (default {_KS[0]}..{_KS[-1]})"))]),
    "chern-integrals": (["chern"], [], "curvature and Todd integrals", []),
    "localization": (["localization"], [], "bump localization of circle heat traces", [
        ("--l1", "length_a", dict(type=float, metavar="L1", help="circumference carrying the bump")),
        ("--l2", "length_b", dict(type=float, metavar="L2", help="second circumference")),
        ("--bump", "bump", dict(type=_parse_bump, metavar="C,RHO,M")),
        ("--t-grid", "short_times", dict(type=_parse_grid, metavar="A:B:N", help=(
            "log-spaced short-time grid in units of min(L1, L2)^2"
            f" (default {_TIMES[0]:g}:{_TIMES[-1]:g}:{len(_TIMES)})")))]),
    "all": (list(FAMILIES), [], "run every family", [_SEED]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hochheat",
        description="verification checks for cycle algebra, spectral traces, and localization",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (families, aliases, text, flags) in COMMANDS.items():
        p = sub.add_parser(name, aliases=aliases, help=text, argument_default=argparse.SUPPRESS)
        p.set_defaults(families=families)
        if name == "all":
            p.add_argument("--report", metavar="PATH", help="write the JSON report to this file")
        for flag, field, kwargs in flags:
            p.add_argument(flag, dest=field, **kwargs)
    return parser


def _selection(args: argparse.Namespace) -> Tuple[List[str], SuiteConfig]:
    """The families to run and the config that the parsed flags set."""
    settings = {f: v for f, v in vars(args).items() if f in SuiteConfig.__dataclass_fields__}
    return args.families, SuiteConfig(**settings)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    path = getattr(args, "report", None)
    try:  # before the run, so that an unwritable path costs no run
        sink = open(path, "w", encoding="utf-8") if path else contextlib.nullcontext()
    except OSError as exc:
        print(f"error: cannot write the report to {path!r}: {exc.strerror}", file=sys.stderr)
        return 2
    with sink as fh:
        try:
            report = run_suite(*_selection(args))
        except (ValueError, IllConditionedGramError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if fh:  # before stdout, so that a reader who leaves early costs no report
            fh.write(report.to_json() + "\n")
    try:
        print(report.to_json() if args.format == "json" else report.to_text(), flush=True)
    except BrokenPipeError:  # stdout's reader left: send the rest nowhere, so exit flushes quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
