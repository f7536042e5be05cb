"""Tests for the curvature-density quadrature."""

import math
import random

import pytest

from hochheat.chern import (
    chern_density,
    integrate_chart,
    integrate_product,
    todd_density,
)
from oracles import integrate_todd_p1, transformed_density, volume_density


def test_line_bundle_degrees():
    for m in (-2, -1, 1, 2, 3, 5):
        result = integrate_chart(chern_density(m))
        assert result.converged
        assert result.value == pytest.approx(m, abs=1e-12)


def test_todd_integral_is_one():
    result = integrate_todd_p1()
    assert result.converged
    assert result.value == pytest.approx(1.0, abs=1e-8)


def test_volume_density_has_unit_mass():
    result = integrate_chart(volume_density())
    assert result.converged
    assert result.value == pytest.approx(1.0, abs=1e-8)


def test_todd_equals_degree_one_curvature_pointwise():
    td = todd_density()
    c1 = chern_density(1)
    rng = random.Random(7)
    for _ in range(1000):
        x = math.tan(math.pi * (rng.random() - 0.5))
        y = math.tan(math.pi * (rng.random() - 0.5))
        assert abs(td(x, y) - c1(x, y)) <= 1e-15 * max(1.0, abs(c1(x, y)))


def test_integral_invariant_under_rotation_and_shift():
    base = integrate_chart(chern_density(1))
    moved = integrate_chart(transformed_density(chern_density(1), 0.7, (0.3, -0.4)))
    assert moved.converged
    assert abs(moved.value - base.value) <= 1e-10


def test_product_integrals_factorize():
    triple = integrate_product([todd_density()] * 3)
    assert triple.converged
    assert triple.value == pytest.approx(1.0, abs=1e-6)
    mixed = integrate_product([chern_density(2), chern_density(3)])
    assert mixed.value == pytest.approx(6.0, abs=1e-6)
    # the shifted density needs one level more than the centred one
    shifted = transformed_density(todd_density(), 0.7, (0.3, -0.4))
    levels = [integrate_chart(d).levels_used for d in (todd_density(), shifted)]
    assert levels == [3, 4]
    assert integrate_product([todd_density(), shifted]).levels_used == 4


def test_product_arity_validation():
    with pytest.raises(ValueError):
        integrate_product([])
    with pytest.raises(ValueError):
        integrate_product([todd_density()] * 5)


def test_non_convergence_is_flagged_not_raised():
    result = integrate_chart(chern_density(1), tol=1e-30, levels=3)
    assert not result.converged
    assert result.error_estimate > 1e-30
    # the value is still the best available answer
    assert result.value == pytest.approx(1.0, abs=1e-6)


def test_product_propagates_non_convergence():
    result = integrate_product([todd_density(), chern_density(1)], tol=1e-30, levels=3)
    assert not result.converged


def test_method_and_level_validation():
    # tanh-sinh is the only rule; there is no method to select
    with pytest.raises(TypeError):
        integrate_chart(todd_density(), method="tanh-sinh")
    with pytest.raises(ValueError):
        integrate_chart(todd_density(), levels=1)


def test_error_estimate_tracks_true_error():
    # with a loose tolerance the reported estimate must bound the true error
    # of the accepted level within a small safety factor
    result = integrate_chart(chern_density(1), tol=1e-6)
    true_err = abs(result.value - 1.0)
    assert true_err <= max(result.error_estimate, 1e-12) * 10
