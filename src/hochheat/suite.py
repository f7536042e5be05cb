"""Check families for the verification suite.

Each family is a small battery of independent checks over one component:
exact cycle identities, shuffle multiplicativity, symbol normalization,
complex identities on random chains, the spectral model and its heat
traces, curvature integrals, and circle localization.  `run_suite` runs a
selection of families against a single configuration and collects the
outcomes into a `VerificationReport`.

One run does each shared piece of work once.  `run_suite` hands every
family a memo that lives for that call only: it holds the cycles
omega_2n, so `cycles`, `shuffle` and `symbol` read one omega_2n each, and
the last spectral model, dropped before the next is built, so `spectrum`
and `mckean-singer` share (1, 10), and `chern` and `harmonic` (0, 8).
`tsygan` takes b(c) and b'(c) of each sample chain once for the four
checks that read them.  Nothing is kept across runs but the on-disk
spectrum cache, a record that says only whether a model's summary was seen
before: every value a check reads comes from the model.

Every check is one `_Recorder.check(id, claim, value, target, tol)`: its
verdict and its printed `computed`, `target` and `tolerance` read the same
values, each float as the shortest text that reads back to it.  Every check
is deterministic given the configuration (random samples are drawn from a
seeded generator), so two runs with the same settings differ only in
timestamps and runtimes.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .chains import (
    TensorChain,
    bar_bprime,
    cyclic_tau,
    hochschild_b,
    norm_n,
    normalize,
    normalized_omega_formula,
    omega_cycle,
    shuffle_product,
    tsygan_d,
)
from .chern import chern_density, integrate_chart
from .circle import BumpFunction, compare_localization, long_time_rows, poisson_deviation
from .forms import hkr_symbol, volume_form
from .randomgen import random_chain, random_column_vector
from .report import FAIL, PASS, CheckResult, VerificationReport
from .spectral import (
    MAX_TRUNC,
    SpectralModel,
    build_model,
    harmonic_supertrace,
    limit_supertrace,
    load_spectrum,
    spectrum_summary,
    store_spectrum,
)
from .weyl import WeylElement, d_var, mul, pack, unit, unpack, z_var

DEFAULT_CACHE_ENV = "HOCHHEAT_CACHE_DIR"
SAMPLES = 40                               # random chains per tsygan identity; the pairs take half
LENGTHS = (1.0, 1.7)                       # the two circumferences; the bump sits on the first
BUMP = BumpFunction(0.35, 0.2, 2)
SHORT_TIMES = tuple(0.01 * 10 ** (i / 9) for i in range(10))  # in units of Lmin^2
LONG_TIMES = (1.0, 2.0, 4.0, 7.0, 10.0)    # in units of the relaxation time L^2/(4 pi^2)
POISSON_TIMES = (0.01, 0.1, 1.0, 5.0)      # in units of each circumference squared


@dataclass(frozen=True)
class SuiteConfig:
    """The settings of one run, each bounded here or by the library call that uses it."""

    # the heat grid of `mckean-singer`: constants, not settings, kept on the class because
    # the benchmark recomputes that check from SuiteConfig().t_min, .t_max and .points
    t_min: ClassVar[float] = 0.2
    t_max: ClassVar[float] = 5.0
    points: ClassVar[int] = 20

    seed: int = 0
    max_weyl: int = 3                      # largest n for the degree-2n cycles
    k: int = 1                             # bundle degree for spectral checks
    trunc: int = 10
    harmonic_ks: Tuple[int, ...] = (0, 1, 2, 3, 4)

    def __post_init__(self) -> None:
        """Refuse a non-integer or out-of-range value with a message that names its flag."""
        if not isinstance(self.harmonic_ks, tuple):  # a list would leave the config unhashable
            raise ValueError(f"--k must be a tuple of bundle degrees, got {self.harmonic_ks!r}")
        for flag, value in (("--seed", self.seed), ("--n", self.max_weyl), ("--k", self.k),
                            ("--trunc", self.trunc), *(("--k", k) for k in self.harmonic_ks)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{flag} must be an integer, got {value!r}")
        bad_k = next((k for k in self.harmonic_ks if not 0 <= k <= MAX_TRUNC - 2), None)
        repeated = next((k for k in self.harmonic_ks if self.harmonic_ks.count(k) > 1), None)
        for ok, message in (
            # random.Random seeds with |seed|, so a negative seed would rerun its absolute value
            (self.seed >= 0, f"--seed must be at least 0, got {self.seed}"),
            # the degree-2n cycle has 131,265 words at n = 4 and about 10^7 at n = 5
            (1 <= self.max_weyl <= 4, f"--n must be between 1 and 4, got {self.max_weyl}"),
            (0 <= self.k <= MAX_TRUNC - 2, f"--k must be between 0 and {MAX_TRUNC - 2}, got {self.k}"),
            (self.k + 2 <= self.trunc <= MAX_TRUNC,
             f"--trunc must be between --k + 2 = {self.k + 2} and {MAX_TRUNC}, got {self.trunc}"),
            (len(self.harmonic_ks) > 0, "--k needs at least one bundle degree"),
            (bad_k is None,  # k + 2 <= MAX_TRUNC
             f"--k must be between 0 and {MAX_TRUNC - 2}, got {bad_k}"),
            (repeated is None, f"--k repeats the bundle degree {repeated}"),
        ):
            if not ok:
                raise ValueError(message)


def _show(x: object) -> str:
    """A float as the shortest text that reads back to it, anything else as its text."""
    return repr(float(x)) if isinstance(x, float) else str(x)


class _Recorder:
    """Collects one family's check results and times each one.

    A result's `runtime_ms` is the time since the previous result (or since
    the recorder was opened), so setup work counts toward the check that
    needs it and a family's runtimes add up to its wall time.  Work shared
    by several checks, also an omega_2n or a model of the run's memo, is
    charged to the first check that needs it.
    """

    def __init__(self) -> None:
        self.results: List[CheckResult] = []
        self._mark = time.perf_counter()

    def check(self, check_id: str, claim: str, value: object, target: object,
              tol: Optional[float] = None, *, at_most: bool = False, unit: str = "",
              note: str = "") -> None:
        """Pass if value == target, |value - target| <= tol given `tol`, or value <= target
        (+ tol) `at_most`; NaN fails each, so families take maxima by `np.max`, which keeps
        it.  A chain, neither number nor text, prints "equal" or "mismatch" against "equal"."""
        ok = (value <= target + (tol or 0) if at_most else
              value == target if tol is None else abs(value - target) <= tol)
        if not isinstance(value, (int, float, str)):
            value, target = "equal" if ok else "mismatch", "equal"
        now = time.perf_counter()
        runtime_ms = round(1000.0 * (now - self._mark), 3)
        self._mark = now
        self.results.append(CheckResult(
            check_id, claim, f"{_show(value)}{unit}{note}",
            f"{'<= ' if at_most else ''}{_show(target)}{unit}",
            "exact" if tol is None else _show(tol), PASS if ok else FAIL, runtime_ms))

    def failures(self, check_id: str, claim: str, holds: Callable, samples: Sequence) -> None:
        """An exact identity, `holds(sample)`, tested on random samples; none is a fail."""
        failures = sum(0 if holds(x) else 1 for x in samples)
        self.check(check_id, claim, failures if samples else math.nan, 0, unit=" failures",
                   note=f" in {len(samples)} samples")


class _Memo:
    """The work the families of one `run_suite` call share, each piece built on first use:
    omega_cycle(n) by n, and the last build_model(k, trunc), dropped before the next."""

    def __init__(self) -> None:
        self._omegas: Dict[int, TensorChain] = {}
        self._model: Optional[Tuple[Tuple[int, int], SpectralModel]] = None

    def omega(self, n: int) -> TensorChain:
        if n not in self._omegas:
            self._omegas[n] = omega_cycle(n)
        return self._omegas[n]

    def model(self, k: int, trunc: int) -> SpectralModel:
        if self._model is None or self._model[0] != (k, trunc):
            self._model = None  # so that two models are never alive at once
            self._model = ((k, trunc), build_model(k, trunc))
        return self._model[1]

    def harmonic(self, k: int, op: WeylElement) -> float:  # no caller keeps the model alive
        return harmonic_supertrace(self.model(k, max(k + 2, 8)), op)  # `harmonic`'s truncation


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def _family_cycles(cfg: SuiteConfig, memo: _Memo) -> List[CheckResult]:
    rec = _Recorder()
    for n in range(1, cfg.max_weyl + 1):
        omega = memo.omega(n)
        rec.check(f"cycles.boundary.omega{2 * n}",
                  f"the degree-{2 * n} fundamental chain is a Hochschild cycle",
                  len(hochschild_b(omega).nums), 0, unit=" residual terms")
        rec.check(f"cycles.normalized.omega{2 * n}",
                  f"normalization of the degree-{2 * n} cycle is the alternating permutation sum",
                  normalize(omega), normalized_omega_formula(n))
    return rec.results


def _leibniz_holds(sample: Tuple[int, TensorChain, TensorChain]) -> bool:
    p, x, y = sample
    lhs = hochschild_b(shuffle_product(x, y))
    sign = -1 if p % 2 else 1
    return lhs == shuffle_product(hochschild_b(x), y) + sign * shuffle_product(x, hochschild_b(y))


def _swap_blocks(c: TensorChain, n1: int) -> TensorChain:
    """c with its variable blocks 1..n1 and n1+1..n swapped: a bijection on words."""
    def swap(key):
        z_exp, d_exp = unpack(key, c.n)
        return pack((z_exp[n1:] + z_exp[:n1], d_exp[n1:] + d_exp[:n1]))
    return TensorChain(c.n, {tuple(map(swap, w)): k for w, k in c.nums.items()}, c.den)


def _family_shuffle(cfg: SuiteConfig, memo: _Memo) -> List[CheckResult]:
    rec = _Recorder()
    # omega_cycle(2) is this shuffle square, so compare it with its graded-commuted self
    rec.check("shuffle.multiplicative.2x2",
              "the shuffle square of the degree-2 cycle, its variable blocks swapped, "
              "is the degree-4 cycle",
              _swap_blocks(shuffle_product(memo.omega(1), memo.omega(1)), 1), memo.omega(2))
    rec.check("shuffle.multiplicative.2x4",
              "the shuffle of the degree-2 and degree-4 cycles is the degree-6 cycle",
              shuffle_product(memo.omega(1), memo.omega(2)), memo.omega(3))
    rng = random.Random(cfg.seed)
    samples = []
    for _ in range(SAMPLES // 2):
        p = rng.randrange(0, 3)
        q = rng.randrange(0, 3)
        samples.append((p, random_chain(rng, 1, p), random_chain(rng, 1, q)))
    rec.failures("shuffle.leibniz", "the boundary is a derivation for the shuffle product",
                 _leibniz_holds, samples)
    return rec.results


def _family_symbol(cfg: SuiteConfig, memo: _Memo) -> List[CheckResult]:
    rec = _Recorder()
    for n in range(1, cfg.max_weyl + 1):
        sym, ((key, one),) = hkr_symbol(memo.omega(n)), volume_form(n).terms
        multiple = [k for k, _ in sym.terms] == [key]
        rec.check(f"symbol.volume.n{n}",
                  f"the antisymmetrized symbol of the degree-{2 * n} cycle is the volume form",
                  f"volume form, coefficient {sym.terms[0][1] / one}" if multiple
                  else f"{len(sym.terms)} terms", "volume form, coefficient 1")
    return rec.results


def _intertwines(sample: Tuple[TensorChain, TensorChain, TensorChain]) -> bool:
    c, b, bp = sample
    return b - hochschild_b(cyclic_tau(c)) == bp - cyclic_tau(bp)


def _family_tsygan(cfg: SuiteConfig, memo: _Memo) -> List[CheckResult]:
    rec = _Recorder()
    rng = random.Random(cfg.seed)
    chains = [random_chain(rng, rng.randrange(1, 3), rng.randrange(0, 4)) for _ in range(SAMPLES)]
    # (c, b(c), b'(c)): each boundary once per chain, for the four checks that read it
    samples = [(c, hochschild_b(c), bar_bprime(c)) for c in chains]
    rec.failures("tsygan.b.squared", "the Hochschild boundary squares to zero",
                 lambda s: hochschild_b(s[1]).is_zero(), samples)
    rec.failures("tsygan.bprime.squared", "the bar boundary squares to zero",
                 lambda s: bar_bprime(s[2]).is_zero(), samples)
    rec.failures("tsygan.intertwine",
                 "the boundary intertwines the cyclic operator with the bar boundary",
                 _intertwines, samples)
    rec.failures("tsygan.norm", "the norm operator intertwines the two boundaries",
                 lambda s: bar_bprime(norm_n(s[0])) == norm_n(s[1]), samples)
    vectors = [random_column_vector(rng, rng.randrange(1, 3)) for _ in range(SAMPLES // 2)]
    rec.failures("tsygan.differential.squared", "the bicomplex differential squares to zero",
                 lambda v: tsygan_d(tsygan_d(v)).is_zero(), vectors)
    return rec.results


def _cache_dir() -> str:
    default = os.path.join(os.path.expanduser("~"), ".cache", "hochheat")
    return os.environ.get(DEFAULT_CACHE_ENV) or default


def _family_spectrum(cfg: SuiteConfig, memo: _Memo) -> List[CheckResult]:
    rec = _Recorder()
    model = memo.model(cfg.k, cfg.trunc)
    # the cache file only says whether it already held this model's record
    cached = load_spectrum(_cache_dir(), model) is not None
    if not cached:
        with contextlib.suppress(OSError):  # a cache that cannot be written costs only the cache
            store_spectrum(_cache_dir(), model)
    data, note = spectrum_summary(model), " (cached)" if cached else ""
    k = cfg.k
    rec.check("spectrum.kernel.sections",
              f"the section Laplacian for k={k} has an exactly (k+1)-dimensional kernel",
              data["dim_harmonic0"], k + 1, note=note)
    rec.check("spectrum.kernel.forms", f"the form Laplacian for k={k} has trivial kernel",
              data["dim_harmonic1"], 0, note=note)
    eigs0, eigs1 = data["eigs0"], data["eigs1"]  # sorted, nonzero
    paired = len(eigs0) == len(eigs1)
    # spectra of unequal counts do not pair, whatever their common prefix
    dev = max((abs(a - b) for a, b in zip(eigs0, eigs1)), default=math.inf) if paired else math.inf
    counted = f"{len(eigs0)} section and {len(eigs1)} form eigenvalues"
    rec.check("spectrum.susy.pairing", "nonzero section and form spectra agree with multiplicity",
              dev, 0, 1e-6, note=f" (max deviation over {counted}){note}")
    return rec.results


def _family_mckean_singer(cfg: SuiteConfig, memo: _Memo) -> List[CheckResult]:
    rec = _Recorder()
    grid = np.linspace(cfg.t_min, cfg.t_max, cfg.points)
    series, _ = limit_supertrace(memo.model(cfg.k, cfg.trunc), unit(1), grid)
    dev = np.max([abs(s - (cfg.k + 1)) for s in series])
    rec.check(f"mckean-singer.flat.k{cfg.k}",
              f"the heat supertrace for k={cfg.k} is constant at k+1 across the time grid",
              dev, 0, 1e-10, note=f" (max |supertrace - (k+1)| over {len(grid)} times)")
    return rec.results


def _family_harmonic(cfg: SuiteConfig, memo: _Memo) -> List[CheckResult]:
    rec = _Recorder()
    euler = mul(z_var(1, 1), d_var(1, 1))
    for k in cfg.harmonic_ks:
        rec.check(f"harmonic.identity.k{k}",
                  f"the harmonic supertrace of the identity counts the k={k} sections",
                  memo.harmonic(k, unit(1)), k + 1, 1e-8)
        rec.check(f"harmonic.euler.k{k}",
                  f"the harmonic supertrace of z d/dz for k={k} is k(k+1)/2",
                  memo.harmonic(k, euler), k * (k + 1) // 2, 1e-6)
    return rec.results


def _family_chern(cfg: SuiteConfig, memo: _Memo) -> List[CheckResult]:
    rec = _Recorder()
    res = integrate_chart(chern_density(1))
    todd = res.value if res.converged else math.nan  # both checks read a converged value only
    why = "" if res.converged else f", not converged: {_show(res.value)} at level {res.levels_used}"
    rec.check("chern.degree.o1",
              "the curvature integral of O(1), also the Todd integral of the sphere, is 1",
              todd, 1, 1e-8, note=f" (error estimate {res.error_estimate:.1e}{why})")
    rec.check("chern.todd-vs-harmonic",
              "the quadrature Todd integral matches the spectral section count for k=0",
              todd, memo.harmonic(0, unit(1)), 1e-6, unit=" sections", note=" by quadrature")
    return rec.results


def _family_localization(cfg: SuiteConfig, memo: _Memo) -> List[CheckResult]:
    rec = _Recorder()
    # at t = s L^2 both sums are 1/L times a function of s, so L * deviation is dimensionless
    dev = np.max([length * poisson_deviation(s * length * length, length)
                  for s in POISSON_TIMES for length in LENGTHS])
    rec.check("localization.poisson",
              "image and spectral heat sums agree on both circles at times in units of L^2",
              dev, 0, 1e-12, note=" (max L*deviation)")
    rows = compare_localization(*LENGTHS, BUMP, SHORT_TIMES)
    rec.check("localization.short-time.bound",
              "the localized trace deviates from the free-line value within the image tail",
              np.max([row.delta - row.bound for row in rows]), 0, 1e-14, at_most=True,
              note=" (max excess)")
    rec.check("localization.short-time.smallt",
              f"at t={SHORT_TIMES[0]:g} Lmin^2 the localization error is below 1e-10"
              " of the free-line trace",
              rows[0].bound / rows[0].free_trace, 0, 1e-10, at_most=True, note=" (bound/free)")
    lrows = long_time_rows(LENGTHS[0], BUMP, LONG_TIMES)
    rec.check("localization.long-time.gap",
              "the trace approaches equilibrium within the spectral gap bound",
              np.max([(row.deviation - row.bound, row.floor - row.deviation) for row in lrows]), 0,
              at_most=True, note=" (max excess)")
    return rec.results


#: each family takes the run's config and its memo
FAMILIES: Dict[str, Callable[[SuiteConfig, _Memo], List[CheckResult]]] = {
    "cycles": _family_cycles,
    "shuffle": _family_shuffle,
    "symbol": _family_symbol,
    "tsygan": _family_tsygan,
    "spectrum": _family_spectrum,
    "mckean-singer": _family_mckean_singer,
    "chern": _family_chern,  # before `harmonic`, whose first model, (0, 8), it reads
    "harmonic": _family_harmonic,
    "localization": _family_localization,
}


def run_suite(
    selection: Optional[Sequence[str]] = None, config: Optional[SuiteConfig] = None
) -> VerificationReport:
    """Run the selected families (all by default) and collect a report.

    The families share one memo of omega_2n and models, made here and dropped on return.
    """
    cfg = config or SuiteConfig()
    names = list(selection) if selection is not None else list(FAMILIES)
    unknown = [n for n in names if n not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown check families {unknown}; available: {', '.join(FAMILIES)}")
    repeated = next((n for n in names if names.count(n) > 1), None)
    if repeated is not None:  # refused before any work, not after by its clashing check ids
        raise ValueError(f"check family {repeated!r} is selected more than once")
    checks: List[CheckResult] = []
    memo = _Memo()
    for name in names:
        checks.extend(FAMILIES[name](cfg, memo))
    return VerificationReport.build(__version__, checks)
