"""Tests for circle heat traces and bump localization."""

import math
from fractions import Fraction

import pytest

from hochheat.circle import (
    BumpFunction,
    _theta_tail,
    compare_localization,
    heat_diagonal_images,
    heat_diagonal_spectral,
    long_time_rows,
    poisson_deviation,
)
from hochheat.suite import LONG_TIMES, POISSON_TIMES, SHORT_TIMES


def test_poisson_summation_identity():
    for length in (1.0, 1.7, 3.0):
        for t in (0.01, 0.05, 0.3, 1.0, 5.0):
            assert poisson_deviation(t, length) <= 1e-12
    # at t = s L^2 both sums are 1/L times a function of s, on short and long circles alike
    for length in (1e-4, 0.003, 1000.0, 1e5):
        for s in (0.01, 0.1, 1.0, 5.0):
            assert length * poisson_deviation(s * length * length, length) <= 1e-12


def test_short_time_diagonal_is_free():
    # at t = 0.01 on a unit circle the image tail is ~1e-10
    t = 0.01
    free = 1.0 / math.sqrt(4.0 * math.pi * t)
    assert heat_diagonal_images(t, 1.0) == pytest.approx(free, rel=1e-9)


def test_long_time_diagonal_is_equilibrium():
    assert heat_diagonal_spectral(10.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert heat_diagonal_spectral(10.0, 2.0) == pytest.approx(0.5, abs=1e-15)


def test_bump_integral_against_termwise_expansion():
    # independent oracle: integrate (1 - u^2)^m termwise with exact rationals
    for m in range(1, 9):
        expanded = sum(
            Fraction((-1) ** j * math.comb(m, j), 2 * j + 1) * 2 for j in range(m + 1)
        )
        closed = Fraction(2 ** (2 * m + 1) * math.factorial(m) ** 2, math.factorial(2 * m + 1))
        assert expanded == closed
        bump = BumpFunction(0.0, 0.75, m)
        assert bump.integral() == pytest.approx(0.75 * float(closed), rel=1e-15)


def test_bump_integral_against_quadrature():
    bump = BumpFunction(0.35, 0.2, 2)
    n = 20000
    width = 2 * bump.radius
    xs = [bump.center - bump.radius + width * (i + 0.5) / n for i in range(n)]
    riemann = width / n * math.fsum(bump(x) for x in xs)
    assert riemann == pytest.approx(bump.integral(), rel=1e-6)


def test_bump_shape():
    bump = BumpFunction(0.35, 0.2, 2)
    assert bump(0.35) == 1.0
    assert bump(0.55) == 0.0
    assert bump(0.14) == 0.0
    assert 0 < bump(0.3) < 1


def test_bump_validation():
    with pytest.raises(ValueError):
        BumpFunction(0.0, -0.1, 2)
    with pytest.raises(ValueError):
        BumpFunction(0.0, 0.1, 0)


@pytest.mark.parametrize("power", [2.5, 3.0, True])
def test_a_bump_power_that_is_not_an_int_is_refused(power):
    # a float power failed only later, in integral()'s factorial, and True passed as 1
    with pytest.raises(ValueError, match="bump power must be an integer"):
        BumpFunction(0.0, 0.1, power)


def test_localized_trace_matches_spectral_route():
    bump = BumpFunction(0.35, 0.2, 2)
    mass = bump.integral()
    # Lmin = 1, so t = s; the trace is the eigenvalue sum of circle A times the bump integral
    grid = [0.05, 0.7, 2.0]
    for t, row in zip(grid, compare_localization(1.0, 1.7, bump, grid)):
        assert row.free_trace == mass / math.sqrt(4.0 * math.pi * t)
        trace = mass * heat_diagonal_spectral(t, 1.0)
        assert row.delta == abs(trace - row.free_trace)
        # the image sum agrees with it, and it lies above the free-line value
        via_images = mass * heat_diagonal_images(t, 1.0)
        assert row.free_trace + row.delta == pytest.approx(via_images, rel=1e-12)


def test_bump_must_fit_in_its_circle():
    with pytest.raises(ValueError, match="bump support"):
        compare_localization(0.3, 5.0, BumpFunction(0.0, 0.2, 2), [0.1])
    # circle B may be the small one: only circle A carries the bump
    assert compare_localization(5.0, 0.3, BumpFunction(0.0, 0.2, 2), [0.1])


def test_short_time_delta_within_bound():
    bump = BumpFunction(0.35, 0.2, 2)
    grid = [0.01 * (10 ** (i / 9)) for i in range(10)]  # log spaced in [0.01, 0.1]
    rows = compare_localization(1.0, 1.7, bump, grid)
    for row in rows:
        # delta comes from a subtraction of O(1) traces, so allow one ulp of
        # absolute noise on top of the analytic bound
        assert row.delta <= row.bound + 1e-14
    assert rows[0].bound <= 1e-10 * rows[0].free_trace


def test_short_times_are_in_units_of_the_smaller_circle_squared():
    bump = BumpFunction(0.0, 0.02, 2)
    ratios = []
    for la, lb in ((1.0, 1.7), (0.5, 0.05), (10.0, 12.0)):
        (row,) = compare_localization(la, lb, bump, [0.01])
        t = 0.01 * min(la, lb) ** 2
        assert row.free_trace == pytest.approx(bump.integral() / math.sqrt(4.0 * math.pi * t),
                                               rel=1e-15)
        ratios.append(row.bound / row.free_trace)
    assert ratios == pytest.approx([2.0 * math.exp(-25.0)] * 3, rel=1e-12)


def test_bound_uses_smaller_circle():
    # bump on the larger circle: its own tail is strictly below the bound
    bump = BumpFunction(0.0, 0.2, 2)
    rows = compare_localization(1.7, 1.0, bump, [0.02, 0.05])
    for row in rows:
        assert row.delta < row.bound
        assert row.bound > 0


def test_long_time_gap_bound():
    bump = BumpFunction(0.35, 0.2, 2)
    for length in (1.0, 0.5, 1.7, 3.0):
        rows = long_time_rows(length, bump, [1.0, 2.0, 5.0, 10.0])
        for row in rows:
            assert row.floor <= row.deviation <= row.bound
        assert rows[0].deviation > 0  # nontrivial at one relaxation time


@pytest.mark.parametrize(
    "la, lb, bump, s0, below",
    [(0.5, 1.7, BumpFunction(0.2, 0.1, 2), SHORT_TIMES[0], True),
     (0.6, 0.7, BumpFunction(0.35, 0.2, 2), SHORT_TIMES[0], True),
     (0.6, 0.7, BumpFunction(0.35, 0.2, 2), 0.02, False)],
    ids=["l1-0.5", "l1-0.6-l2-0.7", "from-s-0.02"],
)
def test_long_time_gap_holds_on_short_circles(la, lb, bump, s0, below):
    for row in long_time_rows(la, bump, LONG_TIMES):
        assert row.floor <= row.deviation <= row.bound
    # short times are in units of Lmin^2, so the 1e-10 target at s = 0.01 holds on
    # short circles too; at s = 0.02 the image tail is 7.5e-6 of the free-line trace
    (row,) = compare_localization(la, lb, bump, [s0])
    assert (row.bound <= 1e-10 * row.free_trace) == below


@pytest.mark.parametrize("length", [0.003, 1000.0], ids=["short", "long"])
def test_poisson_check_holds_on_very_short_and_very_long_circles(length):
    # its times are in units of each circumference squared; at fixed absolute times
    # the theta series of these circles needs more terms than it may sum
    for s in POISSON_TIMES:
        assert length * poisson_deviation(s * length * length, length) <= 1e-12


def test_grid_validation():
    bump = BumpFunction(0.0, 0.2, 2)
    with pytest.raises(ValueError):
        compare_localization(1.0, 1.0, bump, [])
    with pytest.raises(ValueError):
        compare_localization(1.0, 1.0, bump, [0.1, -0.2])
    with pytest.raises(ValueError):
        long_time_rows(1.0, bump, [0.0])
    with pytest.raises(ValueError):
        heat_diagonal_images(0.5, -1.0)
    with pytest.raises(ValueError):
        compare_localization(1.0, 1.0, bump, [0.0])


@pytest.mark.parametrize(
    "make",
    [
        lambda: compare_localization(math.nan, 1.0, BumpFunction(0.0, 0.2, 2), [0.1]),
        lambda: compare_localization(1.0, math.inf, BumpFunction(0.0, 0.2, 2), [0.1]),
        lambda: compare_localization(1.0, 0.0, BumpFunction(0.0, 0.2, 2), [0.1]),
        lambda: long_time_rows(0.0, BumpFunction(0.0, 0.2, 2), [1.0]),
        lambda: long_time_rows(math.nan, BumpFunction(0.0, 0.2, 2), [1.0]),
        lambda: long_time_rows(math.inf, BumpFunction(0.0, 0.2, 2), [1.0]),
        lambda: BumpFunction(math.nan, 0.2, 2),
        lambda: BumpFunction(0.35, math.nan, 2),
        lambda: BumpFunction(0.35, math.inf, 2),
        lambda: BumpFunction(0.35, 0.2, 1001),
        lambda: heat_diagonal_spectral(0.01, 1e200),
        lambda: heat_diagonal_images(0.01, 1e200),
        # a bool, once read as 1.0
        lambda: BumpFunction(True, 0.2, 2),
        lambda: BumpFunction(0.0, True, 2),
        lambda: compare_localization(True, 1.7, BumpFunction(0.0, 0.2, 2), [0.1]),
        lambda: compare_localization(1.0, True, BumpFunction(0.0, 0.2, 2), [0.1]),
        lambda: compare_localization(1.0, 1.7, BumpFunction(0.0, 0.2, 2), [0.1, True]),
        lambda: long_time_rows(True, BumpFunction(0.0, 0.2, 2), [1.0]),
        lambda: long_time_rows(1.0, BumpFunction(0.0, 0.2, 2), [True]),
    ],
    ids=["nan-length", "inf-length", "zero-length", "zero-length-long", "nan-length-long",
         "inf-length-long", "nan-center", "nan-radius", "inf-radius",
         "power-above-cap", "overflowing-length-spectral", "overflowing-length-images",
         "bool-center", "bool-radius", "bool-length-a", "bool-length-b", "bool-short-grid",
         "bool-length-long", "bool-long-grid"],
)
def test_non_finite_or_unbounded_input_is_refused(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
def test_a_refused_circumference_is_named(length):
    # 0 once raised ZeroDivisionError in long_time_rows, and nan was refused as a heat time
    bump = BumpFunction(0.0, 0.2, 2)
    with pytest.raises(ValueError, match="circumference"):
        long_time_rows(length, bump, [1.0])
    with pytest.raises(ValueError, match="circumference A"):
        compare_localization(length, 1.0, bump, [0.1])
    with pytest.raises(ValueError, match="circumference B"):
        compare_localization(1.0, length, bump, [0.1])


@pytest.mark.parametrize("c", [0.0, math.nan, math.inf, -1.0, 1e-9])
def test_theta_tail_refuses_a_series_it_cannot_finish(c):
    # c = 1e-9 needs about 260,000 terms, past the term budget
    with pytest.raises(ValueError):
        _theta_tail(c)
