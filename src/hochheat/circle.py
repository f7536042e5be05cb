"""Heat-trace localization on a disjoint union of two circles.

The heat kernel diagonal of a circle of circumference L is computed two
ways: the image sum

    sum_n (4 pi t)^(-1/2) exp(-(n L)^2 / (4 t)),   n over all integers,

and the spectral sum (1/L) sum_j exp(-4 pi^2 j^2 t / L^2).  Both are
constant along the circle and agree exactly (Poisson summation), which
gives an end-to-end consistency check of the two representations.

A polynomial bump phi(x) = (1 - ((x - c)/rho)^2)^m supported in one circle
localizes the trace: Tr(phi e^(-t Laplacian)) equals (integral of phi)
times the kernel diagonal, so for short times it is the free-line value
(integral phi) (4 pi t)^(-1/2) up to the image tail.  The tail bound is
taken with the smaller of the two circumferences, so it covers every
placement of the bump in the union.  Long-time deviations from the
equilibrium value (1/L) integral phi fall below one ulp of the trace
itself, so they are accumulated directly from the spectral tail instead of
by subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence


def _check_time(t: float) -> None:
    if t <= 0:
        raise ValueError(f"heat time must be positive, got {t}")


def _theta_tail(c: float) -> float:
    """2 sum_(n>=1) exp(-c n^2), summed without cancellation.

    Stops at the first term that underflows to 0 or falls below 1e-30 of
    the first term.
    """
    terms = []
    n = 1
    while True:
        term = 2.0 * math.exp(-c * n * n)
        if term == 0.0 or (terms and term < 1e-30 * terms[0]):
            break
        terms.append(term)
        n += 1
    return math.fsum(terms)


def heat_diagonal_images(t: float, length: float) -> float:
    """Kernel diagonal via the image sum."""
    _check_time(t)
    if length <= 0:
        raise ValueError(f"circumference must be positive, got {length}")
    return (1.0 + _theta_tail(length**2 / (4.0 * t))) / math.sqrt(4.0 * math.pi * t)


def heat_diagonal_spectral(t: float, length: float) -> float:
    """Kernel diagonal via the eigenvalue sum."""
    _check_time(t)
    if length <= 0:
        raise ValueError(f"circumference must be positive, got {length}")
    return (1.0 + _theta_tail(4.0 * math.pi**2 * t / length**2)) / length


def poisson_deviation(t: float, length: float) -> float:
    """|image sum - spectral sum|; zero in exact arithmetic."""
    return abs(heat_diagonal_images(t, length) - heat_diagonal_spectral(t, length))


def _image_tail(t: float, length: float) -> float:
    """2 (4 pi t)^(-1/2) sum_(n>=1) exp(-(n length)^2 / (4 t)), no cancellation."""
    return _theta_tail(length**2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def _spectral_tail(t: float, length: float) -> float:
    """(2/length) sum_(j>=1) exp(-4 pi^2 j^2 t / length^2), no cancellation."""
    return _theta_tail(4.0 * math.pi**2 * t / length**2) / length


@dataclass(frozen=True)
class BumpFunction:
    """phi(x) = (1 - ((x - center)/radius)^2)^power inside the support, else 0."""

    center: float
    radius: float
    power: int

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"bump radius must be positive, got {self.radius}")
        if self.power < 1:
            raise ValueError(f"bump power must be a positive integer, got {self.power}")

    def __call__(self, x: float) -> float:
        u = (x - self.center) / self.radius
        if abs(u) >= 1.0:
            return 0.0
        return (1.0 - u * u) ** self.power

    def integral(self) -> float:
        """Exact closed form: radius * 2^(2m+1) (m!)^2 / (2m+1)!."""
        m = self.power
        exact = Fraction(2 ** (2 * m + 1) * math.factorial(m) ** 2, math.factorial(2 * m + 1))
        return self.radius * float(exact)


@dataclass(frozen=True)
class TwoCircles:
    """Disjoint union of two circles; the bump always lives on circle A."""

    length_a: float
    length_b: float

    def __post_init__(self):
        if self.length_a <= 0 or self.length_b <= 0:
            raise ValueError("circle circumferences must be positive")


def localized_trace(circles: TwoCircles, bump: BumpFunction, t: float) -> float:
    """Tr(phi e^(-t Laplacian)) on the union; phi is supported in circle A.

    The kernel diagonal is constant, so the trace is the diagonal times the
    bump integral.  The bump support (width 2 radius) must fit in circle A.
    """
    if 2.0 * bump.radius > circles.length_a:
        raise ValueError(
            f"bump support 2*{bump.radius} exceeds circumference {circles.length_a}"
        )
    return bump.integral() * heat_diagonal_images(t, circles.length_a)


def free_line_trace(bump: BumpFunction, t: float) -> float:
    """The non-compact model value (integral phi) (4 pi t)^(-1/2)."""
    _check_time(t)
    return bump.integral() / math.sqrt(4.0 * math.pi * t)


@dataclass(frozen=True)
class LocalizationRow:
    t: float
    local_trace: float
    free_trace: float
    delta: float
    bound: float


def compare_localization(
    circles: TwoCircles, bump: BumpFunction, t_grid: Sequence[float]
) -> List[LocalizationRow]:
    """Short-time comparison of the localized trace with the free-line value.

    delta is the actual discrepancy on circle A; bound is the image tail of
    the smaller circumference times the bump integral, which dominates delta
    regardless of which circle carries the bump.
    """
    grid = [float(t) for t in t_grid]
    if not grid or any(t <= 0 for t in grid):
        raise ValueError("t_grid must be non-empty with positive entries")
    lmin = min(circles.length_a, circles.length_b)
    mass = bump.integral()
    rows = []
    for t in grid:
        local = localized_trace(circles, bump, t)
        free = free_line_trace(bump, t)
        delta = abs(local - free)
        bound = mass * _image_tail(t, lmin)
        rows.append(LocalizationRow(t, local, free, delta, bound))
    return rows


@dataclass(frozen=True)
class LongTimeRow:
    t: float
    deviation: float
    bound: float


def long_time_rows(length: float, bump: BumpFunction, t_grid: Sequence[float]) -> List[LongTimeRow]:
    """Deviation of the localized trace from its equilibrium, with gap bound.

    deviation = |Tr(phi e^(-t Laplacian)) - (1/L) integral phi|, accumulated
    from the spectral tail; bound = 3 exp(-4 pi^2 t / L^2) integral phi,
    valid for L not below ~2/3 (the first gap term dominates the rest).
    """
    grid = [float(t) for t in t_grid]
    if not grid or any(t <= 0 for t in grid):
        raise ValueError("t_grid must be non-empty with positive entries")
    mass = bump.integral()
    rows = []
    for t in grid:
        deviation = mass * _spectral_tail(t, length)
        bound = 3.0 * math.exp(-4.0 * math.pi**2 * t / length**2) * mass
        rows.append(LongTimeRow(t, deviation, bound))
    return rows
