"""Command line front end for the verification suite.

Each subcommand runs one check family with its own flags; `all` runs every
family and can write the report to a file.  The process exits with status
0 only if every executed check passed, and with 2 if a value is refused.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .spectral import IllConditionedGramError
from .suite import FAMILIES, SuiteConfig, run_suite


def degree(text: str) -> Tuple[int]:
    """One bundle degree, as a one-element `harmonic_ks`."""
    return (int(text),)


_KS = SuiteConfig().harmonic_ks
_N = ("--n", "max_weyl", dict(type=int, metavar="N", help="largest number of variable pairs (1..4)"))
_SEED = ("--seed", "seed", dict(type=int))

#: subcommand -> (families, aliases, help, flags).  A flag is (flag, SuiteConfig field,
#: argparse keywords); a flag left out keeps the field's default.
COMMANDS = {
    "cycles": (["cycles"], ["verify-cycles"], "fundamental cycle identities", [_N]),
    "shuffle": (["shuffle"], [], "shuffle product multiplicativity and Leibniz rule", []),
    "symbol": (["symbol"], [], "antisymmetrized symbol of the fundamental cycles", [_N]),
    "tsygan": (["tsygan"], [], "boundary and bicomplex identities on random chains", [_SEED]),
    "spectrum": (["spectrum"], [], "kernel dimensions and paired spectra", [
        ("--k", "k", dict(type=int, help="bundle degree")),
        ("--trunc", "trunc", dict(type=int, help="basis truncation"))]),
    "mckean-singer": (["mckean-singer"], [], "flatness of the heat supertrace", [
        ("--k", "k", dict(type=int)), ("--trunc", "trunc", dict(type=int))]),
    "harmonic": (["harmonic"], [], "supertraces on the harmonic spaces", [
        ("--k", "harmonic_ks", dict(type=degree, metavar="K",
                                    help=f"single bundle degree (default {_KS[0]}..{_KS[-1]})"))]),
    "chern-integrals": (["chern"], [], "curvature and Todd integrals", []),
    "localization": (["localization"], [], "bump localization of circle heat traces", []),
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
    fields = {f.name for f in dataclasses.fields(SuiteConfig)}  # not its ClassVar constants
    settings = {f: v for f, v in vars(args).items() if f in fields}
    return args.families, SuiteConfig(**settings)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    path, sink, new = getattr(args, "report", None), contextlib.nullcontext(), None
    try:  # the config, the report file, then the run: a refused flag costs no file, and an
        families, cfg = _selection(args)  # unwritable path no run
        if path is not None:  # a new file beside PATH replaces it after the run, unless PATH
            real = os.path.realpath(path)  # is there but no regular file, such as /dev/full
            if os.path.isfile(real) or not os.path.exists(real):
                new = open(f"{real}.{os.getpid()}.tmp", "x", encoding="utf-8")
            sink = new or open(path, "w", encoding="utf-8")
        with sink as fh:
            report = run_suite(families, cfg)
            if fh:  # before stdout, so that a reader who leaves early costs no report
                fh.write(report.to_json() + "\n")
        if new:
            os.replace(new.name, real)
    except (ValueError, IllConditionedGramError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the report file's: the suite's own cache errors cost only the cache
        print(f"error: cannot write the report to {path!r}: {exc.strerror}", file=sys.stderr)
        return 2
    finally:  # so that a run that ends early leaves PATH as it was
        if new and os.path.exists(new.name):
            os.remove(new.name)
    try:
        print(report.to_json() if args.format == "json" else report.to_text(), flush=True)
    except BrokenPipeError:  # stdout's reader left: send the rest nowhere, so exit flushes quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
