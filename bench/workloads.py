"""The benchmark's three workloads.

Each workload drives the public `hochheat` API from outside, through module
attributes (``chains.hochschild_b(...)``, never a name imported into this
file), so that a traced run sees every call and a test can swap in a
perturbed operator.  A workload has three steps:

* ``setup()``   - one set-up: inputs, cache fill and a discarded warm-up pass;
* ``prepare(i)``- untimed: the inputs of timed pass i, drawn from the seed;
* ``run(x)``    - one timed pass, which checks its own outputs and returns
                  an `Outcome` (operations attempted, failed, float margins).

Inputs depend only on ``--seed`` and the pass index, so the same seed gives
the same inputs.  Where the cost of a random input varies a lot (random
chains), each pass is filled up to a fixed amount of work, so that every
seed asks for about the same work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: deviation floor for the accuracy margin: a float check that hits its
#: target exactly is credited with double-precision resolution, not infinity
DEVIATION_FLOOR = 2.0 ** -52


@dataclass
class Outcome:
    """Operations of one pass: each identity, verdict or exit status is one."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: (check name, tolerance, deviation) of every float check
    deviations: List[Tuple[str, float, float]] = field(default_factory=list)
    #: spectrum checks of the suite answered from the cache
    cache_hits: int = 0

    def _fail(self, name: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(name)

    def attempt(self, name: str, fn: Callable[[], object]):
        """Run one operation and return its value; an exception fails it."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # an exception is a failed operation
            self._fail(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def check(self, name: str, fn: Callable[[], bool]) -> None:
        """One operation that must return True."""
        failed = self.failed
        ok = self.attempt(name, fn)
        if not ok and self.failed == failed:
            self._fail(name)

    def within(self, name: str, fn: Callable[[], float], target: float, tol: float) -> None:
        """A float check, |fn() - target| <= tol, that keeps its deviation."""
        failed = self.failed
        value = self.attempt(name, fn)
        if self.failed != failed:
            return
        dev = abs(value - target)
        self.deviations.append((name, tol, dev))
        if not dev <= tol:
            self._fail(f"{name}: deviation {dev:.3e} > {tol:.0e}")

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: max(0, 20 - len(self.failures))])
        self.deviations.extend(other.deviations)
        self.cache_hits += other.cache_hits


def accuracy_margin(deviations: Sequence[Tuple[str, float, float]]) -> Optional[float]:
    """Smallest log10(tolerance / deviation) over the float checks, if any."""
    if not deviations:
        return None
    return min(math.log10(tol / max(dev, DEVIATION_FLOOR)) for _, tol, dev in deviations)


class Workload:
    """One workload: set-up, seeded inputs per pass, and a self-checking pass."""

    name = ""
    #: how pass time follows host speed: the slope of log pass time against
    #: log reference-kernel time (see speed.py), measured per workload
    SPEED_EXPONENT = 1.0

    def __init__(self, hh, seed: int, work_dir: str) -> None:
        self.hh = hh
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        self.run(self.prepare(-1))

    def prepare(self, index: int):
        raise NotImplementedError

    def run(self, inputs) -> Outcome:
        raise NotImplementedError

    def finish(self) -> Outcome:
        """Untimed checks after the timed passes (none by default)."""
        return Outcome()

    def close(self) -> None:
        pass

    def _rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{index}")


# ---------------------------------------------------------------------------
# exact-random: operator identities on seeded random chains
# ---------------------------------------------------------------------------


class ExactRandom(Workload):
    """Every chain identity on many small seeded random chains.

    Each pass draws, with `randomgen`, a fixed number of chains for every
    (n, degree) stratum, n = 1, 2 and degree 0..3, plus shuffle pairs and
    bicomplex column vectors.  A draw is kept only if its size falls in the
    stratum's band: for a chain c, the words of c, b(c) and b'(c); for a pair,
    the words of their shuffle; for a column vector, the words of d(v).  The
    bands sit around each stratum's median size.  The cost of checking a
    random chain grows with those sizes and has a long tail, so the bands
    make every pass, for every seed, do about the same work.
    """

    name = "exact-random"
    #: (n, degree) -> (chains per pass, size band)
    CHAINS = {
        (1, 0): (10, 1, 3), (1, 1): (10, 7, 11), (1, 2): (8, 22, 34), (1, 3): (6, 42, 62),
        (2, 0): (10, 1, 3), (2, 1): (10, 13, 19), (2, 2): (8, 45, 65), (2, 3): (6, 78, 110),
    }
    #: (p, q) -> (pairs per pass, band on the words of x shuffle y), n = 1
    SHUFFLES = {
        (0, 0): (2, 3, 6), (0, 1): (2, 5, 9), (0, 2): (2, 6, 10),
        (1, 0): (2, 4, 8), (1, 1): (2, 12, 24), (1, 2): (2, 30, 54),
        (2, 0): (2, 6, 11), (2, 1): (2, 18, 36), (2, 2): (2, 60, 108),
    }
    #: (column vectors per pass, band on the words of d(v))
    COLUMNS = (16, 5, 20)
    MAX_DRAWS = 1000

    def __init__(self, hh, seed: int, work_dir: str, scale: float = 1.0) -> None:
        super().__init__(hh, seed, work_dir)
        self.scale = scale

    def _draw(self, count: int, lo: int, hi: int, make, size) -> list:
        """`count` draws of make() whose size(x) lies in [lo, hi]."""
        kept = []
        for _ in range(self.MAX_DRAWS * count):
            if len(kept) == max(1, round(count * self.scale)):
                return kept
            x = make()
            if lo <= size(x) <= hi:
                kept.append(x)
        raise RuntimeError(f"no draw of size {lo}..{hi} in {self.MAX_DRAWS * count} tries")

    def prepare(self, index: int):
        ch, rg = self.hh.chains, self.hh.randomgen
        rng = self._rng(index)

        def words(c) -> int:
            return len(c.terms)

        chains_in = []
        for (n, degree), (count, lo, hi) in self.CHAINS.items():
            chains_in += self._draw(
                count, lo, hi, lambda: rg.random_chain(rng, n, degree),
                lambda c: words(c) + words(ch.hochschild_b(c)) + words(ch.bar_bprime(c)))
        pairs = []
        for (p, q), (count, lo, hi) in self.SHUFFLES.items():
            pairs += [(x, y, p) for x, y in self._draw(
                count, lo, hi, lambda: (rg.random_chain(rng, 1, p), rg.random_chain(rng, 1, q)),
                lambda xy: words(ch.shuffle_product(*xy)))]
        columns = self._draw(
            *self.COLUMNS, lambda: rg.random_column_vector(rng, rng.randrange(1, 3)),
            lambda v: sum(words(c) for _, c in ch.tsygan_d(v).entries))
        return chains_in, pairs, columns

    def run(self, inputs) -> Outcome:
        ch = self.hh.chains
        chains_in, pairs, columns = inputs
        out = Outcome()
        for c in chains_in:
            out.check("b^2 = 0", lambda: ch.hochschild_b(ch.hochschild_b(c)).is_zero())
            out.check("b'^2 = 0", lambda: ch.bar_bprime(ch.bar_bprime(c)).is_zero())

            def intertwine():
                bp = ch.bar_bprime(c)
                return ch.hochschild_b(c - ch.cyclic_tau(c)) == bp - ch.cyclic_tau(bp)

            out.check("b(1-tau) = (1-tau)b'", intertwine)
            out.check("b'N = Nb", lambda: ch.bar_bprime(ch.norm_n(c)) == ch.norm_n(ch.hochschild_b(c)))
            out.check("json round trip", lambda: ch.chain_from_json(ch.chain_to_json(c)) == c)
        for x, y, p in pairs:
            def leibniz():
                lhs = ch.hochschild_b(ch.shuffle_product(x, y))
                sign = -1 if p % 2 else 1
                rhs = (ch.shuffle_product(ch.hochschild_b(x), y)
                       + sign * ch.shuffle_product(x, ch.hochschild_b(y)))
                return lhs == rhs

            out.check("shuffle Leibniz rule", leibniz)
        for v in columns:
            out.check("d^2 = 0", lambda: ch.tsygan_d(ch.tsygan_d(v)).is_zero())
        return out


# ---------------------------------------------------------------------------
# spectral-sweep: model builds and heat-trace queries
# ---------------------------------------------------------------------------


class SpectralSweep(Workload):
    """Model builds for k = 0..3 and every supertrace query on each model.

    The largest truncations are the largest the default `cond_limit` admits
    (k=0: 14, k=3: 13); the others are trimmed to size the pass.  The seed
    draws the time grids, which do not change the cost.
    """

    name = "spectral-sweep"
    SPEED_EXPONENT = 0.8
    MODELS = ((0, 14), (1, 10), (2, 8), (3, 13))
    HEAT_POINTS = 16

    def prepare(self, index: int):
        rng = self._rng(index)
        heat = sorted(math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
                      for _ in range(self.HEAT_POINTS))
        limit = sorted(rng.uniform(0.5, 5.0) for _ in range(4)) + [rng.uniform(10.0, 12.0)]
        return heat, limit

    def run(self, inputs) -> Outcome:
        sp, weyl = self.hh.spectral, self.hh.weyl
        heat_grid, limit_grid = inputs
        identity = weyl.unit(1)
        euler = weyl.mul(weyl.z_var(1, 1), weyl.d_var(1, 1))
        out = Outcome()
        for k, trunc in self.MODELS:
            tag = f"k={k} N={trunc}"
            model = out.attempt(f"build {tag}", lambda: sp.build_model(k, trunc))
            if model is None:
                continue
            out.check(f"kernel dimension {tag}", lambda: len(model.harmonic0) == k + 1)
            out.within(f"heat flatness {tag}",
                       lambda: max(abs(sp.heat_supertrace(model, t) - (k + 1)) for t in heat_grid),
                       0.0, 1e-3)
            out.within(f"harmonic identity {tag}",
                       lambda: sp.harmonic_supertrace(model, identity), k + 1, 1e-8)
            harmonic_euler = out.attempt(f"harmonic z d/dz {tag}",
                                         lambda: sp.harmonic_supertrace(model, euler))
            if harmonic_euler is None:
                continue
            out.within(f"harmonic z d/dz {tag}", lambda: harmonic_euler, k * (k + 1) / 2, 1e-6)
            out.within(f"limit z d/dz {tag}",
                       lambda: sp.limit_supertrace(model, euler, limit_grid)[1],
                       harmonic_euler, 1e-6)
        return out


# ---------------------------------------------------------------------------
# suite-all: the command users run
# ---------------------------------------------------------------------------


class SuiteAll(Workload):
    """In-process ``hochheat --format json all --seed S`` on a private cache.

    Every set-up starts from an empty cache directory owned by the benchmark
    and fills it with its warm-up pass, so the timed passes read the cache.
    """

    name = "suite-all"
    SPEED_EXPONENT = 0.7

    def __init__(self, hh, seed: int, work_dir: str) -> None:
        super().__init__(hh, seed, work_dir)
        self.cache_dir = os.path.join(work_dir, f"cache-{os.getpid()}")
        self.argv = ["--format", "json", "all", "--seed", str(seed)]
        self._saved_env = os.environ.get(self.hh.suite.DEFAULT_CACHE_ENV)

    def setup(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        os.environ[self.hh.suite.DEFAULT_CACHE_ENV] = self.cache_dir
        super().setup()

    def prepare(self, index: int):
        return list(self.argv)

    def run(self, argv) -> Outcome:
        out = Outcome()
        buf = io.StringIO()

        def main():
            with contextlib.redirect_stdout(buf):
                return self.hh.cli.main(argv)

        code = out.attempt("hochheat all", main)
        if code is None:
            return out
        out.check(f"exit status {code}", lambda: code == 0)
        report = out.attempt("JSON report", lambda: json.loads(buf.getvalue())["checks"])
        for c in report or ():
            out.check(f"verdict of {c['id']}", lambda: c["verdict"] == "pass")
            if c["id"].startswith("spectrum.") and c["computed"].endswith("(cached)"):
                out.cache_hits += 1
        return out

    def finish(self) -> Outcome:
        """Recompute the suite's float checks at full precision for the margin.

        The report prints values to six digits, too coarse to say how close
        a check came to its tolerance, so the same quantities are computed
        again here, with the suite's default configuration, outside timing.
        """
        sp, weyl = self.hh.spectral, self.hh.weyl
        cfg = self.hh.suite.SuiteConfig()
        out = Outcome()
        model = sp.build_model(cfg.k, cfg.trunc)
        grid = np.linspace(cfg.t_min, cfg.t_max, cfg.points)
        out.within(f"heat flatness k={cfg.k}",
                   lambda: max(abs(sp.heat_supertrace(model, float(t)) - (cfg.k + 1)) for t in grid),
                   0.0, 1e-3)
        euler = weyl.mul(weyl.z_var(1, 1), weyl.d_var(1, 1))
        for k in cfg.harmonic_ks:
            model = sp.build_model(k, max(k + 2, 8))
            out.within(f"harmonic identity k={k}",
                       lambda: sp.harmonic_supertrace(model, weyl.unit(1)), k + 1, 1e-8)
            out.within(f"harmonic z d/dz k={k}",
                       lambda: sp.harmonic_supertrace(model, euler), k * (k + 1) / 2, 1e-6)
        return out

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        env = self.hh.suite.DEFAULT_CACHE_ENV
        if self._saved_env is None:
            os.environ.pop(env, None)
        else:
            os.environ[env] = self._saved_env


WORKLOADS: Dict[str, type] = {w.name: w for w in (ExactRandom, SpectralSweep, SuiteAll)}
