"""Check families for the verification suite.

Each family is a small battery of independent checks over one component:
exact cycle identities, shuffle multiplicativity, symbol normalization,
complex identities on random chains, the spectral model and its heat
traces, curvature integrals, and circle localization.  `run_suite` runs a
selection of families against a single configuration and collects the
outcomes into a `VerificationReport`.

Every check is deterministic given the configuration (random samples are
drawn from a seeded generator), so two runs with the same settings differ
only in timestamps and runtimes.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
from .circle import BumpFunction, TwoCircles, compare_localization, long_time_rows, poisson_deviation
from .forms import hkr_symbol, volume_form
from .randomgen import random_chain, random_column_vector
from .report import FAIL, PASS, CheckResult, VerificationReport
from .spectral import (
    MAX_TRUNC,
    build_model,
    harmonic_supertrace,
    heat_supertrace,
    load_spectrum,
    spectrum_summary,
    store_spectrum,
)
from .weyl import d_var, mul, unit, z_var

DEFAULT_CACHE_ENV = "HOCHHEAT_CACHE_DIR"
#: the most random samples, time points or t-grid times one run may ask for
MAX_SAMPLES = 10_000
CROSS_TRUNC = 12                           # truncation for the quadrature cross-check
LONG_TIMES = (1.0, 2.0, 4.0, 7.0, 10.0)    # in units of the relaxation time L^2/(4 pi^2)
POISSON_TIMES = (0.01, 0.1, 1.0, 5.0)      # in units of each circumference squared


@dataclass(frozen=True)
class SuiteConfig:
    """The settings of one run, each bounded here or by the library call that uses it."""

    seed: int = 0
    samples: int = 40
    max_weyl: int = 3                      # largest n for the degree-2n cycles
    k: int = 1                             # bundle degree for spectral checks
    trunc: int = 10
    use_cache: bool = True
    t_min: float = 0.2
    t_max: float = 5.0
    points: int = 20
    harmonic_ks: Tuple[int, ...] = (0, 1, 2, 3, 4)
    length_a: float = 1.0
    length_b: float = 1.7
    bump: Tuple[float, float, int] = (0.35, 0.2, 2)
    # in units of Lmin^2, the smaller circumference squared
    short_times: Tuple[float, ...] = tuple(0.01 * 10 ** (i / 9) for i in range(10))

    def __post_init__(self) -> None:
        """Refuse an out-of-range value with a message that names the flag setting it."""
        cap, times = MAX_SAMPLES, self.short_times
        for ok, message in (
            # the degree-2n cycle has 131,265 words at n = 4 and about 10^7 at n = 5
            (1 <= self.max_weyl <= 4, f"--n must be between 1 and 4, got {self.max_weyl}"),
            (1 <= self.samples <= cap, f"--samples must be between 1 and {cap}, got {self.samples}"),
            (0 < self.t_min < self.t_max < math.inf,
             f"--t-min and --t-max need 0 < t-min < t-max < inf, got {self.t_min}, {self.t_max}"),
            (2 <= self.points <= cap, f"--points must be between 2 and {cap}, got {self.points}"),
            (len(self.harmonic_ks) > 0, "--k needs at least one bundle degree"),
            (all(0 <= k <= MAX_TRUNC - 2 for k in self.harmonic_ks),  # k + 2 <= MAX_TRUNC
             f"--k must be between 0 and {MAX_TRUNC - 2}, "
             f"got {max(self.harmonic_ks, key=abs, default=0)}"),
            (1 <= len(times) <= cap and all(map(math.isfinite, times)),
             f"--t-grid needs 1 to {cap} times, all finite, got {len(times)}"),
        ):
            if not ok:
                raise ValueError(message)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class _Recorder:
    """Collects one family's check results and times each one.

    A result's `runtime_ms` is the time since the previous result (or since
    the recorder was opened), so setup work counts toward the check that
    needs it and a family's runtimes add up to its wall time.
    """

    def __init__(self) -> None:
        self.results: List[CheckResult] = []
        self._mark = time.perf_counter()

    def check(self, check_id: str, claim: str, computed: str, target: str, tolerance: str,
              ok: bool) -> None:
        now = time.perf_counter()
        runtime_ms = round(1000.0 * (now - self._mark), 3)
        self._mark = now
        self.results.append(CheckResult(check_id, claim, computed, target, tolerance,
                                        PASS if ok else FAIL, runtime_ms))

    def equal(self, check_id: str, claim: str, ok: bool) -> None:
        """Exact equality of two canonical forms."""
        self.check(check_id, claim, "equal" if ok else "mismatch", "equal", "exact", ok)

    def failures(self, check_id: str, claim: str, holds: Callable, samples: Sequence) -> None:
        """An exact identity, `holds(sample)`, tested on random samples."""
        failures = sum(0 if holds(x) else 1 for x in samples)
        self.check(check_id, claim, f"{failures} failures in {len(samples)} samples",
                   "0 failures", "exact", failures == 0 and len(samples) > 0)

    def near(self, check_id: str, claim: str, value: float, target: float, tol: float) -> None:
        """|value - target| <= tol."""
        self.check(check_id, claim, _fmt(value), _fmt(target), f"{tol:.0e}",
                   abs(value - target) <= tol)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def _family_cycles(cfg: SuiteConfig) -> List[CheckResult]:
    rec = _Recorder()
    for n in range(1, cfg.max_weyl + 1):
        omega = omega_cycle(n)
        boundary = hochschild_b(omega)
        rec.check(f"cycles.boundary.omega{2 * n}",
                  f"the degree-{2 * n} fundamental chain is a Hochschild cycle",
                  f"{len(boundary.nums)} residual terms", "0 residual terms", "exact",
                  boundary.is_zero())
        rec.equal(f"cycles.normalized.omega{2 * n}",
                  f"normalization of the degree-{2 * n} cycle is the alternating permutation sum",
                  normalize(omega) == normalized_omega_formula(n))
    return rec.results


def _leibniz_holds(sample: Tuple[int, TensorChain, TensorChain]) -> bool:
    p, x, y = sample
    lhs = hochschild_b(shuffle_product(x, y))
    sign = -1 if p % 2 else 1
    return lhs == shuffle_product(hochschild_b(x), y) + sign * shuffle_product(x, hochschild_b(y))


def _family_shuffle(cfg: SuiteConfig) -> List[CheckResult]:
    rec = _Recorder()
    rec.equal("shuffle.multiplicative.2x2",
              "the shuffle square of the degree-2 cycle is the degree-4 cycle",
              shuffle_product(omega_cycle(1), omega_cycle(1)) == omega_cycle(2))
    rec.equal("shuffle.multiplicative.2x4",
              "the shuffle of the degree-2 and degree-4 cycles is the degree-6 cycle",
              shuffle_product(omega_cycle(1), omega_cycle(2)) == omega_cycle(3))
    rng = random.Random(cfg.seed)
    samples = []
    for _ in range(max(1, cfg.samples // 2)):
        p = rng.randrange(0, 3)
        q = rng.randrange(0, 3)
        samples.append((p, random_chain(rng, 1, p), random_chain(rng, 1, q)))
    rec.failures("shuffle.leibniz", "the boundary is a derivation for the shuffle product",
                 _leibniz_holds, samples)
    return rec.results


def _family_symbol(cfg: SuiteConfig) -> List[CheckResult]:
    rec = _Recorder()
    for n in range(1, cfg.max_weyl + 1):
        sym = hkr_symbol(omega_cycle(n))
        ok = sym == volume_form(n)
        rec.check(f"symbol.volume.n{n}",
                  f"the antisymmetrized symbol of the degree-{2 * n} cycle is the volume form",
                  "volume form, coefficient 1" if ok else f"{len(sym.terms)} terms",
                  "volume form, coefficient 1", "exact", ok)
    return rec.results


def _intertwines(c: TensorChain) -> bool:
    bp = bar_bprime(c)
    return hochschild_b(c + (-1) * cyclic_tau(c)) == bp + (-1) * cyclic_tau(bp)


def _family_tsygan(cfg: SuiteConfig) -> List[CheckResult]:
    rec = _Recorder()
    rng = random.Random(cfg.seed)
    chains = [
        random_chain(rng, rng.randrange(1, 3), rng.randrange(0, 4)) for _ in range(cfg.samples)
    ]
    rec.failures("tsygan.b.squared", "the Hochschild boundary squares to zero",
                 lambda c: hochschild_b(hochschild_b(c)).is_zero(), chains)
    rec.failures("tsygan.bprime.squared", "the bar boundary squares to zero",
                 lambda c: bar_bprime(bar_bprime(c)).is_zero(), chains)
    rec.failures("tsygan.intertwine",
                 "the boundary intertwines the cyclic operator with the bar boundary",
                 _intertwines, chains)
    rec.failures("tsygan.norm", "the norm operator intertwines the two boundaries",
                 lambda c: bar_bprime(norm_n(c)) == norm_n(hochschild_b(c)), chains)
    vectors = [
        random_column_vector(rng, rng.randrange(1, 3)) for _ in range(max(1, cfg.samples // 2))
    ]
    rec.failures("tsygan.differential.squared", "the bicomplex differential squares to zero",
                 lambda v: tsygan_d(tsygan_d(v)).is_zero(), vectors)
    return rec.results


def _cache_dir() -> str:
    default = os.path.join(os.path.expanduser("~"), ".cache", "hochheat")
    return os.environ.get(DEFAULT_CACHE_ENV) or default


def _spectrum_data(cfg: SuiteConfig) -> Tuple[Dict[str, object], bool]:
    if cfg.use_cache:
        cached = load_spectrum(_cache_dir(), cfg.k, cfg.trunc)
        if cached is not None:
            return cached, True
    model = build_model(cfg.k, cfg.trunc)
    summary = spectrum_summary(model)
    if cfg.use_cache:
        with contextlib.suppress(OSError):  # a cache that cannot be written costs only the cache
            store_spectrum(_cache_dir(), model)
    return summary, False


def _family_spectrum(cfg: SuiteConfig) -> List[CheckResult]:
    rec = _Recorder()
    data, from_cache = _spectrum_data(cfg)
    note = " (cached)" if from_cache else ""
    k = cfg.k
    dim0 = data["dim_harmonic0"]
    rec.check("spectrum.kernel.sections",
              f"the section Laplacian for k={k} has an exactly (k+1)-dimensional kernel",
              f"{dim0}{note}", f"{k + 1}", "exact", dim0 == k + 1)
    dim1 = data["dim_harmonic1"]
    rec.check("spectrum.kernel.forms", f"the form Laplacian for k={k} has trivial kernel",
              f"{dim1}{note}", "0", "exact", dim1 == 0)
    eigs0 = [(v, m) for v, m in data["eigs0"] if v > 1e-8]
    eigs1 = list(data["eigs1"])
    pairs = list(zip(eigs0, eigs1))
    dev = max((abs(c0[0] - c1[0]) for c0, c1 in pairs), default=math.inf)
    ok = (len(eigs0) == len(eigs1) and dev <= 1e-6
          and all(c0[1] == c1[1] for c0, c1 in pairs))
    counted = (f"{len(pairs)} clusters" if len(eigs0) == len(eigs1)
               else f"{len(eigs0)} section and {len(eigs1)} form clusters")
    rec.check("spectrum.susy.pairing", "nonzero section and form spectra agree with multiplicity",
              f"max deviation {_fmt(dev)} over {counted}{note}", "identical clusters",
              "1e-06", ok)
    return rec.results


def _family_mckean_singer(cfg: SuiteConfig) -> List[CheckResult]:
    rec = _Recorder()
    model = build_model(cfg.k, cfg.trunc)
    grid = np.linspace(cfg.t_min, cfg.t_max, cfg.points)
    dev = max(abs(heat_supertrace(model, float(t)) - (cfg.k + 1)) for t in grid)
    rec.check(f"mckean-singer.flat.k{cfg.k}",
              f"the heat supertrace for k={cfg.k} is constant at k+1 across the time grid",
              f"max deviation {_fmt(dev)}", f"{cfg.k + 1}", "1e-10", dev <= 1e-10)
    return rec.results


def _family_harmonic(cfg: SuiteConfig) -> List[CheckResult]:
    rec = _Recorder()
    euler = mul(z_var(1, 1), d_var(1, 1))
    for k in cfg.harmonic_ks:
        model = build_model(k, max(k + 2, 8))
        rec.near(f"harmonic.identity.k{k}",
                 f"the harmonic supertrace of the identity counts the k={k} sections",
                 harmonic_supertrace(model, unit(1)), k + 1, 1e-8)
        rec.near(f"harmonic.euler.k{k}", f"the harmonic supertrace of z d/dz for k={k} is k(k+1)/2",
                 harmonic_supertrace(model, euler), k * (k + 1) / 2, 1e-6)
    return rec.results


def _family_chern(cfg: SuiteConfig) -> List[CheckResult]:
    rec = _Recorder()
    res = integrate_chart(chern_density(1))
    rec.check("chern.degree.o1",
              "the curvature integral of O(1), also the Todd integral of the sphere, is 1",
              f"{_fmt(res.value)} (error estimate {res.error_estimate:.1e})", "1", "1e-08",
              res.converged and abs(res.value - 1.0) <= 1e-8)
    counted = harmonic_supertrace(build_model(0, CROSS_TRUNC), unit(1))
    rec.check("chern.todd-vs-harmonic",
              "the quadrature Todd integral matches the spectral section count for k=0",
              f"quadrature {_fmt(res.value)}, spectral {_fmt(counted)}", "equal", "1e-06",
              abs(res.value - counted) <= 1e-6)
    return rec.results


def _family_localization(cfg: SuiteConfig) -> List[CheckResult]:
    rec = _Recorder()
    circles = TwoCircles(cfg.length_a, cfg.length_b)
    bump = BumpFunction(*cfg.bump)
    # at t = s L^2 both sums are 1/L times a function of s, so L * deviation is dimensionless
    dev = max(length * poisson_deviation(s * length * length, length)
              for s in POISSON_TIMES for length in (cfg.length_a, cfg.length_b))
    rec.check("localization.poisson",
              "image and spectral heat sums agree on both circles at times in units of L^2",
              f"max L*deviation {_fmt(dev)}", "0", "1e-12", dev <= 1e-12)
    rows = compare_localization(circles, bump, cfg.short_times)
    excess = max(row.delta - row.bound for row in rows)
    rec.check("localization.short-time.bound",
              "the localized trace deviates from the free-line value within the image tail",
              f"max excess {_fmt(excess)}", "no excess", "1e-14", excess <= 1e-14)
    ratio = rows[0].bound / rows[0].free_trace
    rec.check("localization.short-time.smallt",
              f"at t={cfg.short_times[0]:g} Lmin^2 the localization error is below 1e-10"
              " of the free-line trace",
              f"bound/free {_fmt(ratio)}", "<= 1e-10", "1e-10", ratio <= 1e-10)
    lrows = long_time_rows(cfg.length_a, bump, LONG_TIMES)
    lexcess = max(max(row.deviation - row.bound, row.floor - row.deviation) for row in lrows)
    rec.check("localization.long-time.gap",
              "the trace approaches equilibrium within the spectral gap bound",
              f"max excess {_fmt(lexcess)}", "no excess", "exact", lexcess <= 0.0)
    return rec.results


FAMILIES: Dict[str, Callable[[SuiteConfig], List[CheckResult]]] = {
    "cycles": _family_cycles,
    "shuffle": _family_shuffle,
    "symbol": _family_symbol,
    "tsygan": _family_tsygan,
    "spectrum": _family_spectrum,
    "mckean-singer": _family_mckean_singer,
    "harmonic": _family_harmonic,
    "chern": _family_chern,
    "localization": _family_localization,
}


def run_suite(
    selection: Optional[Sequence[str]] = None, config: Optional[SuiteConfig] = None
) -> VerificationReport:
    """Run the selected families (all by default) and collect a report."""
    cfg = config or SuiteConfig()
    names = list(selection) if selection is not None else list(FAMILIES)
    unknown = [n for n in names if n not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown check families {unknown}; available: {', '.join(FAMILIES)}")
    checks: List[CheckResult] = []
    for name in names:
        checks.extend(FAMILIES[name](cfg))
    return VerificationReport.build(__version__, checks)
