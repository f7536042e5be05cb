"""Heat-trace localization on a disjoint union of two circles.

The heat kernel diagonal of a circle of circumference L is computed two
ways: the image sum

    sum_n (4 pi t)^(-1/2) exp(-(n L)^2 / (4 t)),   n over all integers,

and the spectral sum (1/L) sum_j exp(-4 pi^2 j^2 t / L^2).  Both are
constant along the circle and agree exactly (Poisson summation), which
gives an end-to-end consistency check of the two representations.

A polynomial bump phi(x) = (1 - ((x - c)/rho)^2)^m on circle A, the first
of the two circumferences, localizes the trace: Tr(phi e^(-t Laplacian))
equals (integral of phi) times the kernel diagonal, so for short times it
is the free-line value (integral phi) (4 pi t)^(-1/2) up to the image
tail.  The tail bound is taken with the smaller of the two circumferences,
so it covers every placement of the bump in the union.  The trace is the
eigenvalue sum, so the short-time check compares it with a tail of the
other series.  Short times are read in units of Lmin^2, the smaller
circumference squared, so the relative size of that tail depends on the
time alone.
At long times the trace relaxes to the equilibrium value (1/L) integral phi
at the rate of the first spectral gap.  Those times are read in units of
the relaxation time L^2/(4 pi^2), so the deviation, taken from the image
sum, stays far above the rounding of the subtraction, and the eigenvalue
series bounds it from both sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence


def _check_positive(what: str, x: float) -> None:
    if isinstance(x, bool) or not 0 < x < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {x}")


def _time_grid(s_grid: Sequence[float]) -> List[float]:
    """s_grid as floats; a ValueError unless it is non-empty and every entry is positive and
    not a bool."""
    grid = [math.nan if isinstance(s, bool) else float(s) for s in s_grid]
    if not grid or not all(s > 0 for s in grid):
        raise ValueError("s_grid must be non-empty with positive entries")
    return grid


#: terms `_theta_tail` may sum; it needs about sqrt(69 / c), at most 38 in the
#: suite's default checks (the image sum at t = 5 L^2, on any circle)
_THETA_TERMS = 10_000


def _theta_tail(c: float) -> float:
    """2 sum_(n>=1) exp(-c n^2), summed without cancellation.

    Stops at the first term that underflows to 0 or falls below 1e-30 of
    the first term.  Raises ValueError unless c is finite and that happens
    within `_THETA_TERMS` terms.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"theta series needs a finite positive exponent, got {c}")
    terms = []
    for n in range(1, _THETA_TERMS + 1):
        term = 2.0 * math.exp(-c * n * n)
        if term == 0.0 or (terms and term < 1e-30 * terms[0]):
            return math.fsum(terms)
        terms.append(term)
    raise ValueError(f"theta series with exponent {c:.3g} needs more than {_THETA_TERMS} terms")


def heat_diagonal_images(t: float, length: float) -> float:
    """Kernel diagonal via the image sum."""
    _check_positive("heat time", t)
    _check_positive("circumference", length)
    return (1.0 + _theta_tail(length * length / (4.0 * t))) / math.sqrt(4.0 * math.pi * t)


def heat_diagonal_spectral(t: float, length: float) -> float:
    """Kernel diagonal via the eigenvalue sum."""
    _check_positive("heat time", t)
    _check_positive("circumference", length)
    return (1.0 + _theta_tail(4.0 * math.pi**2 * t / (length * length))) / length


def poisson_deviation(t: float, length: float) -> float:
    """|image sum - spectral sum|; zero in exact arithmetic."""
    return abs(heat_diagonal_images(t, length) - heat_diagonal_spectral(t, length))


def _image_tail(t: float, length: float) -> float:
    """2 (4 pi t)^(-1/2) sum_(n>=1) exp(-(n length)^2 / (4 t)), no cancellation."""
    return _theta_tail(length * length / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


#: the exact integral, which a localization run takes a dozen times, costs
#: 0.5 ms at power 1000 and 0.4 s at 30,000 (Python 3.11)
_MAX_POWER = 1000


@dataclass(frozen=True)
class BumpFunction:
    """phi(x) = (1 - ((x - center)/radius)^2)^power inside the support, else 0."""

    center: float
    radius: float
    power: int

    def __post_init__(self):
        if isinstance(self.center, bool) or not math.isfinite(self.center):
            raise ValueError(f"bump center must be finite, got {self.center}")
        _check_positive("bump radius", self.radius)
        power = self.power
        if not isinstance(power, int) or isinstance(power, bool) or not 1 <= power <= _MAX_POWER:
            raise ValueError(
                f"bump power must be an integer from 1 to {_MAX_POWER}, got {power!r}")

    def __call__(self, x: float) -> float:
        u = (x - self.center) / self.radius
        if abs(u) >= 1.0:
            return 0.0
        return (1.0 - u * u) ** self.power

    def integral(self) -> float:
        """Exact closed form: radius * 2^(2m+1) (m!)^2 / (2m+1)!."""
        m, f = self.power, math.factorial
        return self.radius * (2 ** (2 * m + 1) * f(m) ** 2 / f(2 * m + 1))  # one int / int quotient


@dataclass(frozen=True)
class LocalizationRow:
    free_trace: float
    delta: float
    bound: float


def compare_localization(
    length_a: float, length_b: float, bump: BumpFunction, s_grid: Sequence[float]
) -> List[LocalizationRow]:
    """Short-time comparison of the localized trace with the free-line value.

    The bump lives on circle A and must fit there; its trace is its integral
    times the eigenvalue sum of circle A.  Each s is a time in units of the
    smaller circumference squared, t = s Lmin^2, so bound / free_trace =
    2 sum_(n>=1) exp(-n^2 / (4 s)) depends on s alone.  delta is the actual
    discrepancy on circle A; bound is the image tail of the smaller
    circumference times the bump integral, which dominates delta regardless
    of which circle carries the bump.
    """
    _check_positive("circumference A", length_a)
    _check_positive("circumference B", length_b)
    if 2.0 * bump.radius > length_a:
        raise ValueError(f"bump support 2*{bump.radius} exceeds circumference {length_a}")
    grid = _time_grid(s_grid)
    lmin = min(length_a, length_b)
    mass = bump.integral()
    rows = []
    for s in grid:
        t = s * lmin * lmin
        free = mass / math.sqrt(4.0 * math.pi * t)
        delta = abs(mass * heat_diagonal_spectral(t, length_a) - free)
        rows.append(LocalizationRow(free, delta, mass * _image_tail(t, lmin)))
    return rows


@dataclass(frozen=True)
class LongTimeRow:
    deviation: float
    floor: float
    bound: float


def long_time_rows(length: float, bump: BumpFunction, s_grid: Sequence[float]) -> List[LongTimeRow]:
    """Deviation of the localized trace from its equilibrium, between two gap bounds.

    Each s is a time in units of the relaxation time, t = s L^2 / (4 pi^2),
    so g = 4 pi^2 t / L^2 = s.  deviation = (integral phi) (image sum - 1/L),
    the image sum being the kernel diagonal computed without the eigenvalue
    series.  That series puts it at (2/L) (integral phi) sum_(j>=1) e^(-g j^2),
    which lies between floor = (2/L) e^(-g) integral phi and
    bound = floor / (1 - e^(-3g)), since j^2 - 1 >= 3 (j - 1).  Both are
    widened by 8 ulp of 1/L times integral phi, twice the largest rounding
    error of the subtraction measured against 60-digit arithmetic (L from
    0.05 to 10, s from 1 to 10).
    """
    _check_positive("circumference", length)
    grid = _time_grid(s_grid)
    mass = bump.integral()
    allowance = 8.0 * math.ulp(1.0 / length) * mass
    rows = []
    for s in grid:
        t = s * length * length / (4.0 * math.pi**2)
        deviation = mass * heat_diagonal_images(t, length) - mass / length
        floor = 2.0 / length * math.exp(-s) * mass
        bound = floor / -math.expm1(-3.0 * s)
        rows.append(LongTimeRow(deviation, floor - allowance, bound + allowance))
    return rows
