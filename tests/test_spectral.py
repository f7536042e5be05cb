"""Tests for the truncated spectral model of O(k) on the sphere."""

import dataclasses
import json
import math
import operator
import os
import random
import re
import time
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochheat import spectral
from hochheat.cli import main
from hochheat.spectral import (
    IllConditionedGramError,
    OperatorEscapeError,
    _certify,
    _check_integrable,
    _gram,
    _incidence,
    _layout,
    _operator_pairings,
    _orthogonal_rows,
    _round_congruences,
    build_model,
    harmonic_supertrace,
    heat_supertrace,
    limit_supertrace,
    load_spectrum,
    store_spectrum,
)
from hochheat.weyl import WeylElement, d_var, mul, unit, z_var
from oracles import (DivergentIntegralError, _apply_weyl, _congruence, _expand, _lift,
                     _moment_block, _pairing, _reduced, _round_congruence, _round_each_entry,
                     _scaled_root, add,
                     charge_pairs, dbar_chi, dbar_chi_without_its_second_term, doubled_dbar_star,
                     harmonic0_coordinates,
                     incidence_by_images, lifted_pairings, mono_integral, monomial,
                     pair_weighted, pairs_of, scale, supertrace_terms_alone, zero)


def _blocks_by_index(model, op, degree, which=None):
    """`spectral._operator_blocks` of the listed blocks (default: every block of the degree)
    by block index, each matrix cut to its block's size."""
    blocks = (model.blocks, model.forms)[degree]
    which = list(range(len(blocks)) if which is None else which)
    if not which:
        return {}
    mats = spectral._operator_blocks(model, op, degree, which)
    return {bi: mat[:len(blocks[bi].w), :len(blocks[bi].w)] for bi, mat in zip(which, mats)}


def _chi(a, b, n_trunc):
    """The section basis function z^a zbar^b (1+|z|^2)^(-N)."""
    return {(a, b, n_trunc): 1}


def _psi(a, b, n_trunc):
    """The dzbar coefficient z^a zbar^b (1+|z|^2)^(-(N+1)) of the form basis function psi_(a,b)."""
    return {(a, b, n_trunc + 1): 1}


def test_mono_integral_small_values():
    # integral of (1+|z|^2)^(-m) / pi over the plane is 1/(m-1)
    assert mono_integral(0, 2) == 1
    assert mono_integral(0, 3) == Fraction(1, 2)
    assert mono_integral(1, 4) == Fraction(1, 6)
    assert mono_integral(2, 5) == Fraction(2 * 1, 24)
    with pytest.raises(DivergentIntegralError):
        mono_integral(3, 4)


def test_constant_section_has_unit_norm():
    # the honest constant section of the trivial bundle, not a truncated basis
    # vector: <1, 1> against the unit-mass base measure is exactly 1
    one = {(0, 0, 0): Fraction(1)}
    assert pair_weighted(one, one, 2) == 1


def test_pairing_handles_cancelling_divergences():
    # z zbar (1+)^(-1) - z zbar (1+)^(-2) - z^2 zbar^2 (1+)^(-2) is identically
    # zero, so pairing it against 1 must return 0 instead of raising
    f = {
        (1, 1, 1): Fraction(1),
        (1, 1, 2): Fraction(-1),
        (2, 2, 2): Fraction(-1),
    }
    one = {(0, 0, 0): Fraction(1)}
    assert pair_weighted(f, one, 2) == 0


def test_pairing_rejects_divergent_input():
    f = {(2, 2, 1): Fraction(1)}
    one = {(0, 0, 0): Fraction(1)}
    with pytest.raises(DivergentIntegralError):
        pair_weighted(f, one, 2)


def test_gram_matches_generic_pairing():
    # (M-1)! times each block's Gram, in both degrees, is the closed-form Hankel block
    k, n = 1, 4
    fact = [math.factorial(i) for i in range(2 * n + k + 2)]
    model = build_model(k, n)
    for basis, extra, blocks in ((_chi, k + 2, model.blocks), (_psi, k, model.forms)):
        for block in blocks:
            pairs = pairs_of(block)
            gram = _gram(len(pairs), abs(pairs[0][0] - pairs[0][1]), fact)
            for i, (a1, b1) in enumerate(pairs):
                for j, (a2, b2) in enumerate(pairs):
                    entry = pair_weighted(basis(a1, b1, n), basis(a2, b2, n), extra)
                    assert entry == mono_integral(a1 + b2, 2 * n + k + 2)
                    assert entry * fact[-1] == gram[i][j]


def test_apply_weyl_is_multiplicative():
    rng = random.Random(11)
    n_trunc = 5
    for _ in range(30):
        a = monomial(1, (rng.randrange(3),), (rng.randrange(3),), rng.randrange(1, 4))
        b = monomial(1, (rng.randrange(3),), (rng.randrange(3),), rng.randrange(1, 4))
        f = _chi(rng.randrange(4), rng.randrange(4), n_trunc)
        assert _apply_weyl(mul(a, b), f) == _apply_weyl(a, _apply_weyl(b, f))


def test_apply_weyl_derivative_rule():
    # d/dz on z^2 zbar (1+|z|^2)^(-3)
    f = _chi(2, 1, 3)
    out = _apply_weyl(d_var(1, 1), f)
    assert out == {(1, 1, 3): Fraction(2), (2, 2, 4): Fraction(-3)}


def test_kernel_dimensions():
    for k in range(5):
        model = build_model(k, 8)
        assert len(model.harmonic0) == k + 1
        assert len(model.harmonic1) == 0


def test_kernel_dimension_minimal_truncation():
    # the holomorphic sections survive even at the smallest allowed truncation
    for k in (5, 6):
        model = build_model(k, k + 2)
        assert len(model.harmonic0) == k + 1


def test_kernel_dimension_k3_n10():
    assert len(build_model(3, 10).harmonic0) == 4


def test_harmonic_vectors_are_holomorphic_polynomials():
    # z^c = sum_j binom(N, j) z^(c+j) zbar^j (1+|z|^2)^(-N), so each kernel
    # vector must follow the binomial profile along a diagonal of charge c <= k
    k, n = 2, 8
    model = build_model(k, n)
    coords = harmonic0_coordinates(model)
    assert len(coords) == 3
    charges = set()
    for vec in coords:
        q = {a - b for (a, b), v in vec.items() if abs(v) > 1e-9}
        assert len(q) == 1
        (c,) = q
        assert 0 <= c <= k
        charges.add(c)
        ref = vec[(c, 0)]
        for j in range(n + 1):
            assert vec[(c + j, j)] == pytest.approx(ref * math.comb(n, j), abs=1e-8 * abs(ref) * math.comb(n, n // 2))


def test_supersymmetric_pairing_of_nonzero_spectra():
    for k in (0, 1, 3):
        model = build_model(k, 8)
        nz0 = model._flat0[model._flat0 > 0]
        assert len(nz0) == len(model._flat1)
        head = min(10, len(nz0))
        assert np.abs(nz0[:head] - model._flat1[:head]).max() <= 1e-6


# (k, N) pairs for the exact identities of the two-degree assembly
_ASSEMBLY_CASES = [(0, 2), (0, 6), (1, 5), (2, 9), (3, 7), (5, 8)]


def _nonzero_terms(col, coef):
    """Rows of `_incidence` arrays as {column: coefficient} dicts of their nonzero terms."""
    return [{int(c): int(v) for c, v in zip(cr, vr) if v} for cr, vr in zip(col, coef)]


def _block_incidences(k, n, q):
    """Section and form indices of charge q and q + 1, their (M-1)! Grams, and the rows of
    D and T in block q, sliced from `spectral._incidence` (read at run time, so a patched
    incidence reaches the reference)."""
    fact = [math.factorial(i) for i in range(2 * n + k + 2)]
    pairs = charge_pairs(q, n + k, n)
    fpairs = charge_pairs(q + 1, n + k + 1, n - 1)
    rows = []
    for degree, (a_max, b_max) in enumerate(((n + k, n), (n + k + 1, n - 1))):
        start = sum(len(charge_pairs(c + degree, a_max, b_max)) for c in range(-n, q))
        col, coef = spectral._incidence(k, n, degree)
        size = len((pairs, fpairs)[degree])
        rows.append(_nonzero_terms(col[start:start + size], coef[start:start + size]))
    return (pairs, fpairs, _gram(len(pairs), abs(q), fact), _gram(len(fpairs), abs(q + 1), fact),
            *rows)


def _assert_incidence_is_the_images(k, n):
    for degree in (0, 1):
        col, coef = spectral._incidence(k, n, degree)
        assert col.shape == coef.shape == (len(col), 2)
        assert _nonzero_terms(col, coef) == incidence_by_images(k, n, degree)


def test_incidence_is_the_images_term_by_term():
    for k, n in _ASSEMBLY_CASES:
        _assert_incidence_is_the_images(k, n)


@pytest.mark.large
def test_incidence_is_the_images_term_by_term_in_every_admitted_model():
    for k in range(spectral.MAX_TRUNC - 1):
        for n in range(k + 2, spectral.MAX_TRUNC + 1):
            _assert_incidence_is_the_images(k, n)


def _dense(rows, width):
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def test_dbar_star_is_the_adjoint_of_dbar():
    # integration by parts, block by block and in exact integers: T G0 = G1 D^T
    for k, n in _ASSEMBLY_CASES:
        for q in range(-n, n + k + 1):
            pairs, fpairs, g0, g1, dbar, star = _block_incidences(k, n, q)
            t, d = _dense(star, len(pairs)), _dense(dbar, len(fpairs))
            lhs = [[sum(t[i][r] * g0[r][j] for r in range(len(pairs))) for j in range(len(pairs))]
                   for i in range(len(fpairs))]
            rhs = [[sum(g1[i][r] * d[j][r] for r in range(len(fpairs))) for j in range(len(pairs))]
                   for i in range(len(fpairs))]
            assert lhs == rhs


def test_closed_form_stiffness_matches_the_pairing_kernel():
    # D G1 D^T is the Gram of the dbar images, as the generic pairing computes it
    for k, n in _ASSEMBLY_CASES:
        top = 2 * n + k + 2
        for q in range(-n, n + k + 1):
            pairs, _, _, g1, dbar, _ = _block_incidences(k, n, q)
            images = [dbar_chi(a, b, n) for a, b in pairs]
            ref = [[_pairing(fi, fj, k) for fj in images] for fi in images]
            assert _congruence(dbar, g1) == [[num for num, _ in row] for row in ref]
            assert {m for row in ref for num, m in row if num} == {top}


def test_form_family_has_the_dimension_of_the_dbar_image():
    for k, n in _ASSEMBLY_CASES:
        model = build_model(k, n)
        assert len(model._flat0) == (n + 1) * (n + k + 1)
        assert len(model._flat1) == n * (n + k + 2) == (n + 1) * (n + k + 1) - (k + 1)
        nz0 = model._flat0[model._flat0 > 0]
        assert np.abs(nz0 - model._flat1).max() <= 1e-12 * nz0.max()


def test_incidence_leaving_the_basis_is_an_escape(monkeypatch):
    eye = np.eye(2, dtype=np.int64)

    def stiffness(col, coef):
        return spectral._stiffness([eye], [[1, 1]], (np.array(col), np.array(coef)), [eye],
                                   [[1, 1]])

    # a nonzero term left of the other block's first column or past its last
    for col in ([[-1, 0], [1, 1]], [[0, 0], [1, 2]]):
        with pytest.raises(OperatorEscapeError):
            stiffness(col, [[1, 1], [1, 1]])
    # there, a zero coefficient is a term that would leave the basis, and drops out
    (got,) = stiffness([[-1, 0], [1, 2]], [[0, 1], [1, 0]])
    assert got.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def off_by_one(k, n, degree, incidence=spectral._incidence):
        # dbar*'s second coefficient N+k+2-a: 1, not 0, at a = N+k+1, where it leaves the sections
        col, coef = incidence(k, n, degree)
        return col, coef + [0, 1] if degree == 1 else coef

    monkeypatch.setattr(spectral, "_incidence", off_by_one)
    with pytest.raises(OperatorEscapeError):
        build_model(1, 6)


def _assert_round_sphere_law(model):
    # degree 0 is l (l + k + 1), repeated 2 l + k + 1 times, for l = 0..N; degree 1
    # is the same for l = 1..N; each eigenvalue within 1e-12 relative of its law value
    k, n = model.k, model.trunc
    for flat, first in ((model._flat0, 0), (model._flat1, 1)):
        law = np.repeat([l * (l + k + 1) for l in range(first, n + 1)],
                        [2 * l + k + 1 for l in range(first, n + 1)]).astype(float)
        assert len(flat) == len(law)
        assert np.all(np.abs(flat - law) <= 1e-12 * law)


def test_low_spectrum_matches_round_sphere_law():
    for k in (0, 1, 2):
        _assert_round_sphere_law(build_model(k, 10))


def test_refinement_past_the_condition_guard():
    # the float Gram condition passes 1e16 near N = 15 for k = 1; the exact
    # reduction keeps the whole spectrum anyway
    _assert_round_sphere_law(build_model(1, 18))


def test_refinement_at_n24():
    _assert_round_sphere_law(build_model(1, 24))


def test_the_smallest_truncation_of_a_large_degree_builds():
    # its float Gram condition is 6.2e16 at charge 0; nothing factors that matrix
    model = build_model(10, 12)
    assert model.basis_meta["max_gram_condition"] > 1e16
    _assert_round_sphere_law(model)


@pytest.mark.large
@pytest.mark.parametrize("k, n", [(1, 36), (0, spectral.MAX_TRUNC),
                                  (spectral.MAX_TRUNC - 2, spectral.MAX_TRUNC)])
def test_refinement_up_to_the_truncation_bound(k, n):
    _assert_round_sphere_law(build_model(k, n))


def test_heat_supertrace_is_flat():
    model = build_model(2, 10)
    values = [heat_supertrace(model, t) for t in np.linspace(0.2, 5, 12)]
    assert max(abs(v - 3.0) for v in values) <= 1e-10


def test_refinement_is_stable():
    # refining adds eigenvalues and moves none: for k = 1 the four lowest levels
    # 0, 3, 8, 15 hold 2, 4, 6 and 8 eigenvalues at every truncation
    flats = [build_model(1, n)._flat0 for n in (8, 10, 12)]
    assert len(flats[0]) < len(flats[1]) < len(flats[2])
    low = np.repeat([0.0, 3.0, 8.0, 15.0], [2, 4, 6, 8])
    for flat in flats:
        assert np.abs(flat[:20] - low).max() <= 1e-9 and flat[20] > 16.0


def test_harmonic_supertrace_identity_counts_sections():
    for k in range(5):
        model = build_model(k, 8)
        assert abs(harmonic_supertrace(model, unit(1)) - (k + 1)) <= 1e-8


def test_harmonic_supertrace_euler_operator():
    # z d/dz acts on the monomial basis 1, z, ..., z^k of the kernel with
    # trace 0 + 1 + ... + k = k (k + 1) / 2
    zd = mul(z_var(1, 1), d_var(1, 1))
    for k in range(5):
        model = build_model(k, 8)
        expected = k * (k + 1) / 2
        assert abs(harmonic_supertrace(model, zd) - expected) <= 1e-6


def test_harmonic_supertrace_charge_shift_vanishes():
    model = build_model(2, 8)
    assert abs(harmonic_supertrace(model, z_var(1, 1))) <= 1e-12
    assert abs(harmonic_supertrace(model, d_var(1, 1))) <= 1e-12


def test_limit_supertrace_converges_to_harmonic():
    model = build_model(1, 10)
    zd = mul(z_var(1, 1), d_var(1, 1))
    grid = [0.5, 1.0, 2.0, 4.0, 8.0, 10.0]
    series, terminal = limit_supertrace(model, zd, grid)
    target = harmonic_supertrace(model, zd)
    gaps = [abs(s - target) for s in series]
    assert gaps[-1] <= 1e-9
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert terminal == series[-1]


def test_limit_supertrace_identity_reproduces_heat_flatness():
    model = build_model(0, 8)
    series, _ = limit_supertrace(model, unit(1), [0.3, 1.0, 3.0])
    for t, s in zip([0.3, 1.0, 3.0], series):
        assert abs(s - heat_supertrace(model, t)) <= 1e-10


def _intertwined_degree_one_terms(model, op, grid):
    """sum e^(-t lam_i) <op dbar e_i, dbar e_i> / lam_i over the nonzero degree-0 eigenvalues.

    For k >= 0 the dbar e_i / sqrt(lam_i) are an orthonormal eigenbasis of
    the degree-1 model with the same eigenvalues, so this is the degree-1 sum
    of the limit supertrace without a degree-1 eigensolve; the reference.
    Returns the sums and the sums of the terms' absolute values, the scale
    of their rounding.
    """
    n, k = model.trunc, model.k
    lams, diags = [], []
    for block in model.blocks:
        mat, scale = _pairing_matrix([dbar_chi(a, b, n) for a, b in pairs_of(block)], op, k)
        pairing = _round_congruence(block.w, np.array(mat, dtype=object), block.norms,
                                    scale / block.scale)
        keep = block.lam > 0
        y = block.vecs[:, keep]
        lams.append(block.lam[keep])
        diags.append(np.einsum("ij,ij->j", y, pairing @ y) / block.lam[keep])
    return ([sum(float((np.exp(-t * lam) * dg).sum()) for lam, dg in zip(lams, diags))
             for t in grid],
            [sum(float((np.exp(-t * lam) * np.abs(dg)).sum()) for lam, dg in zip(lams, diags))
             for t in grid])


def _eigenbasis_terms(model, op, degree, grid):
    """sum e^(-t lam_i) <op e_i, e_i> over one degree's own eigenbasis, and its absolute sum.

    The diagonal is a row-wise dot, as `limit_supertrace` reads it.  The
    absolute sums are the scale of the rounding: at k = 0 the z d/dz
    degree-0 sum is rounding noise, so a tolerance scaled by the signed sum
    absorbs none.
    """
    blocks = (model.blocks, model.forms)[degree]
    mats = _blocks_by_index(model, op, degree)
    diags = [np.einsum("ij,ij->j", b.vecs, mats[bi] @ b.vecs) for bi, b in enumerate(blocks)]
    return ([sum(float((np.exp(-t * b.lam) * dg).sum()) for b, dg in zip(blocks, diags))
             for t in grid],
            [sum(float((np.exp(-t * b.lam) * np.abs(dg)).sum()) for b, dg in zip(blocks, diags))
             for t in grid])


@pytest.mark.parametrize("k, n", [(0, 14), (1, 10), (2, 8), (3, 13)])
def test_degree_one_limit_terms_match_the_intertwined_basis(k, n):
    model = build_model(k, n)
    grid = [0.3, 1.0, 4.0, 11.0]
    for op in (unit(1), mul(z_var(1, 1), d_var(1, 1))):
        # relative to the terms' absolute sum: at k = 0 the z d/dz terms cancel to 0
        ref, scale = _intertwined_degree_one_terms(model, op, grid)
        got, _ = _eigenbasis_terms(model, op, 1, grid)
        assert all(abs(x - y) <= 1e-12 * a for x, y, a in zip(got, ref, scale))
        series, _ = limit_supertrace(model, op, grid)
        deg0, scale0 = _eigenbasis_terms(model, op, 0, grid)
        assert all(abs(s - (d - y)) <= 1e-12 * max(a0, a)
                   for s, d, y, a0, a in zip(series, deg0, ref, scale0, scale))


def test_operator_escape_diagnostics():
    model = build_model(0, 8)
    with pytest.raises(OperatorEscapeError):
        harmonic_supertrace(model, monomial(1, (9,), (0,)))
    with pytest.raises(OperatorEscapeError):
        harmonic_supertrace(model, z_var(1, n=2))


def test_build_preconditions():
    with pytest.raises(ValueError):
        build_model(2, 3)
    with pytest.raises(ValueError):
        build_model(-1, 8)
    # a float or a bool once passed these checks and failed later with a TypeError
    for args, name in (((1, 10.0), "trunc"), ((1.0, 10), "k"), ((True, 10), "k")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got"):
            build_model(*args)


def test_oversized_truncation_is_refused_before_any_work():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="at most"):
        build_model(0, 3000)
    assert time.perf_counter() - start < 0.05
    # trunc >= k + 2, so the same bound caps the bundle degree
    with pytest.raises(ValueError, match="at most"):
        build_model(spectral.MAX_TRUNC - 1, spectral.MAX_TRUNC + 1)


def test_time_grid_validation():
    model = build_model(0, 8)
    with pytest.raises(ValueError):
        heat_supertrace(model, 0.0)
    with pytest.raises(ValueError):
        limit_supertrace(model, unit(1), [1.0, 0.5])
    with pytest.raises(ValueError):
        limit_supertrace(model, unit(1), [])


@pytest.mark.parametrize("grid", [1.0, np.float64(1.0), "0.5"], ids=["float", "numpy-float",
                                                                    "string"])
def test_a_bare_time_is_not_a_time_grid(grid):
    # a float raised TypeError: 'float' object is not iterable, and a string was read
    # character by character
    with pytest.raises(ValueError, match=f"sequence of heat times, got {re.escape(repr(grid))}$"):
        limit_supertrace(build_model(0, 6), unit(1), grid)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_time_that_is_not_finite_is_refused(t):
    # nan and inf once gave nan with a RuntimeWarning: inf times a zero eigenvalue is nan
    model = build_model(0, 6)
    with pytest.raises(ValueError, match=f"got {t}"):
        heat_supertrace(model, t)
    for grid in ([t], [0.5, t], [t, 1.0, 2.0]):
        with pytest.raises(ValueError, match=f"got {t}"):
            limit_supertrace(model, unit(1), grid)


@pytest.mark.parametrize("query, named", [
    (lambda model: limit_supertrace(model, unit(1), ["0.5", "1"]), "'0.5'"),
    (lambda model: limit_supertrace(model, unit(1), [True, 2]), "True"),
    (lambda model: heat_supertrace(model, True), "True"),
    (lambda model: heat_supertrace(model, np.True_), "np.True_"),
    (lambda model: heat_supertrace(model, "1.0"), "'1.0'"),
    (lambda model: heat_supertrace(model, 1j), "1j"),
], ids=["string-grid", "bool-grid", "bool", "numpy-bool", "string", "complex"])
def test_a_time_that_is_not_a_real_number_is_refused(query, named):
    # strings were parsed and bools read as 1.0, or a TypeError came from the comparison
    with pytest.raises(ValueError, match=f"got {re.escape(named)}$"):
        query(build_model(0, 6))


def test_real_times_of_every_type_give_the_same_supertraces():
    model = build_model(0, 6)
    assert {heat_supertrace(model, t) for t in (0.5, np.float32(0.5), np.float64(0.5),
                                                Fraction(1, 2))} == {heat_supertrace(model, 0.5)}
    grid = [0.5, 1.0, 2.0]
    ref = limit_supertrace(model, unit(1), grid)
    for same in (np.array(grid), [Fraction(1, 2), 1, np.float32(2.0)]):
        assert limit_supertrace(model, unit(1), same) == ref
    with pytest.raises(ValueError, match="positive finite"):
        heat_supertrace(model, 10 ** 400)


def test_eigenvalues_are_nonnegative():
    model = build_model(3, 10)
    assert model._flat0.min() >= 0.0
    assert model._flat1.min() >= -1e-12


def _shifted_stiffness(shift, stiffness=spectral._stiffness):
    """`spectral._stiffness` with each block minus shift times the identity: indefinite for
    shift > 0."""
    def shifted(*args):
        return [x - shift * np.eye(len(x)) for x in stiffness(*args)]
    return shifted


def test_a_negative_eigenvalue_beyond_tolerance_is_refused(monkeypatch, capsys):
    # shifting what eigh returns would shift its residual alike; shift the matrix instead
    monkeypatch.setattr(spectral, "_stiffness", _shifted_stiffness(1e-6))
    with pytest.raises(IllConditionedGramError, match="negative eigenvalue -1.000e-06 below its "
                                                      "measured error"):
        build_model(1, 8)
    assert main(["spectrum"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: negative eigenvalue") and captured.out == ""


@pytest.mark.parametrize("shift, refused", [(1e-15, False), (1e-11, True)])
def test_a_negative_eigenvalue_is_weighed_against_its_measured_error(monkeypatch, shift, refused):
    # at (1, 8) the rounding bound plus the residual is about 1.6e-13
    monkeypatch.setattr(spectral, "_stiffness", _shifted_stiffness(shift))
    if refused:
        with pytest.raises(IllConditionedGramError, match="measured error [0-9.]+e-1[34] "):
            build_model(1, 8)
    else:
        _assert_round_sphere_law(build_model(1, 8))


def test_the_residual_covers_an_eigenvalue_that_eigh_misplaces(monkeypatch):
    # eigenvalues moved by -1e-6 after the solve leave a residual of 1e-6: the matrix is not indefinite
    real_eigh = np.linalg.eigh

    def shifted(a):
        lam, vecs = real_eigh(a)
        return lam - 1e-6, vecs

    monkeypatch.setattr(np.linalg, "eigh", shifted)
    assert len(build_model(1, 8).harmonic0) == 2


def test_spectrum_cache_round_trip(tmp_path):
    model = build_model(1, 8)
    assert load_spectrum(str(tmp_path), model) is None
    path = store_spectrum(str(tmp_path), model)
    data = load_spectrum(str(tmp_path), model)
    assert data == spectral.spectrum_summary(model)
    assert data["dim_harmonic0"] == 2
    # the sorted nonzero eigenvalues: l (l + 2) repeated 2 l + 2 times, l = 1..8
    assert len(data["eigs0"]) == len(data["eigs1"]) == sum(2 * l + 2 for l in range(1, 9))
    assert data["eigs0"] == sorted(data["eigs0"]) and abs(data["eigs0"][0] - 3.0) <= 1e-12
    # the file is the summary's JSON, and another model's file is another path
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh) == data
    assert load_spectrum(str(tmp_path), build_model(2, 8)) is None
    assert spectral.cache_path(str(tmp_path), 2, 8) != path


def test_spectrum_cache_from_another_version_is_a_miss(tmp_path):
    # an earlier cache file also held a convention tag and the package version
    model = build_model(1, 8)
    path = store_spectrum(str(tmp_path), model)
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert set(data) == {"k", "trunc", "eigs0", "eigs1", "dim_harmonic0", "dim_harmonic1"}
    data.update(tag="fs-unit-volume:v1", version="0.1.0")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
    assert load_spectrum(str(tmp_path), model) is None


def test_failed_cache_write_leaves_no_file(tmp_path, monkeypatch):
    model = build_model(1, 8)

    def failing_replace(src, dst):
        raise OSError("simulated failure")

    monkeypatch.setattr(spectral.os, "replace", failing_replace)
    with pytest.raises(OSError):
        store_spectrum(str(tmp_path), model)
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# the closed-form rows against a Bareiss oracle, and the oracle against Fractions
# ---------------------------------------------------------------------------


def _bareiss(gram, op):
    """One fraction-free elimination of [G | I | A] for a positive definite integer G.

    Returns the eliminated rows and the leading principal minors
    deltas[j] of order j (deltas[0] = 1).  Row j is deltas[j] times row j
    of [L^-1 G | L^-1 | L^-1 A], with G = L D L^T and L unit lower
    triangular, so its middle third is row j of W = diag(deltas[:-1]) L^-1
    and its last third row j of W A; every entry is an integer.  The
    reference for the closed-form rows of `_orthogonal_rows`.
    """
    s = len(gram)
    rows = [gram[i] + [int(i == j) for j in range(s)] + op[i] for i in range(s)]
    deltas = [1]
    for k in range(s):
        pivot_row = rows[k]
        p, prev = pivot_row[k], deltas[-1]
        assert p > 0, "Gram block is not positive definite"
        for i in range(k + 1, s):
            row = rows[i]
            f = row[k]
            rows[i] = row[:k + 1] + [(p * x - f * y) // prev
                                     for x, y in zip(row[k + 1:], pivot_row[k + 1:])]
            rows[i][k] = 0
        deltas.append(p)
    return rows, deltas


def _oracle_congruence(gram, op, scale):
    """A block's rounded congruence through the Bareiss W, with norms deltas[j] deltas[j+1].

    G and A are divided by the gcd of their entries first, which keeps the
    minors small and leaves the rational of each entry as it is.
    """
    s = len(gram)
    (gram, g_scale), (op, op_scale) = _reduced(gram, Fraction(1)), _reduced(op, scale)
    rows, deltas = _bareiss(gram, op)
    scale = op_scale / g_scale
    norms = [deltas[j] * deltas[j + 1] for j in range(s)]
    return _round_each_entry([row[2 * s:] for row in rows], [row[s:2 * s] for row in rows],
                             norms, scale)


def _hankel_gram(size, alpha, m):
    """The Gram of r^alpha (1+r)^(-m) on [0, inf) over 1, r, ..., r^(size-1), times (m-1)!."""
    f = math.factorial
    return [[f(i + j + alpha) * f(m - i - j - alpha - 2) for j in range(size)]
            for i in range(size)]


@st.composite
def hankel_cases(draw):
    """(size, alpha, m) with 2 (size-1) + alpha <= m - 2, so every moment converges."""
    size = draw(st.integers(1, 9))
    alpha = draw(st.integers(0, 12))
    m = draw(st.integers(2 * (size - 1) + alpha + 2, 2 * (size - 1) + alpha + 14))
    return size, alpha, m


@given(hankel_cases())
@settings(max_examples=120, deadline=None)
def test_closed_form_rows_are_positive_multiples_of_the_bareiss_rows(case):
    size, alpha, m = case
    gram = _hankel_gram(size, alpha, m)
    rows, _ = _bareiss(gram, [[0] * size for _ in range(size)])
    closed = _orthogonal_rows(size, alpha, m)
    # one lower triangle, int64 exactly when every entry is exact in float64
    assert closed.shape == (size, size) and not np.triu(closed, 1).any()
    assert closed.dtype == (np.int64 if np.abs(closed).max() < 2 ** 52 else object)
    closed = [row[:j + 1] for j, row in enumerate(closed.tolist())]
    for j, (row, ref) in enumerate(zip(closed, rows)):
        ref = ref[size:2 * size]
        assert not any(ref[j + 1:])
        # row * ref[j] == ref * row[j], with both leading coefficients positive
        assert row[j] > 0 and ref[j] > 0
        assert [v * ref[j] for v in row] == [v * row[j] for v in ref[:j + 1]]
    wg = [[sum(map(operator.mul, wi, col)) for col in zip(*gram)] for wi in closed]
    wgwt = [[sum(map(operator.mul, u, wj)) for wj in closed] for u in wg]
    assert all(wgwt[i][j] == 0 if i != j else wgwt[i][i] > 0
               for i in range(size) for j in range(size))


@pytest.mark.parametrize("k, n, incidence", [
    (0, 6, None), (1, 10, None), (3, 12, None), (0, 14, None), (2, 8, None), (0, 20, None),
    # rows wider than two certified rows, expanded in up to N steps in degree 0, U in int64
    # at (0, 10) and in Python integers at (16, 22), the first such model; and in up to
    # N + 1 steps in degree 1
    (0, 10, dbar_chi_without_its_second_term),
    pytest.param(16, 22, dbar_chi_without_its_second_term, marks=pytest.mark.large),
    (1, 10, doubled_dbar_star), (0, 20, doubled_dbar_star),
    pytest.param(0, spectral.MAX_TRUNC, None, marks=pytest.mark.large),
    pytest.param(spectral.MAX_TRUNC - 2, spectral.MAX_TRUNC, None, marks=pytest.mark.large),
], ids=["0-6", "1-10", "3-12", "0-14", "2-8", "0-20", "0-10-sections-kernel",
        "16-22-sections-kernel", "1-10-doubled-dbar-star", "0-20-doubled-dbar-star", "0-40",
        "38-40"])
def test_closed_form_path_is_bit_identical_to_the_bareiss_oracle(monkeypatch, k, n, incidence):
    # (0, 20) and (0, 40) congruences take both the machine-word and the Python-integer path,
    # and so do the stiffness expansions of (0, 40) and (38, 40)
    if incidence is not None:
        monkeypatch.setattr(spectral, "_incidence", incidence)
    solved = []  # each degree's rounded congruences, block by block in charge order
    real_stiffness = spectral._stiffness

    def recording(*args):
        solved.append(real_stiffness(*args))
        return solved[-1]

    monkeypatch.setattr(spectral, "_stiffness", recording)
    model = build_model(k, n)
    # one call for degree 0 and one for degree 1, one block per charge in each; each
    # stiffness is the plain congruence of its own incidence, D G1 D^T or T G0 T^T,
    # and (M-1)! scales the Gram and the stiffness alike
    assert [len(x) for x in solved] == [len(model.blocks)] * 2
    for q, got0, got1 in zip(range(-n, n + k + 1), *solved):
        _, _, g0, g1, dbar, star = _block_incidences(k, n, q)
        for got, gram, incidence, other in ((got0, g0, dbar, g1), (got1, g1, star, g0)):
            ref = _oracle_congruence(gram, _congruence(incidence, other), Fraction(1))
            assert got.tobytes() == ref.tobytes()
    zd = mul(z_var(1, 1), d_var(1, 1))
    fact = [math.factorial(i) for i in range(2 * n + k + 2)]
    for degree, blocks in enumerate((model.blocks, model.forms)):
        got = _blocks_by_index(model, zd, degree)
        which = range(len(blocks))
        for bi, (mat, scale) in zip(which, _pairings(model, zd, degree, which)):
            pairs = pairs_of(blocks[bi])
            gram = _gram(len(pairs), abs(pairs[0][0] - pairs[0][1]), fact)
            ref = _oracle_congruence(gram, mat.tolist(), scale * fact[-1])
            assert got[bi].tobytes() == ref.tobytes()


@pytest.mark.parametrize("k, n", [(0, 14), (1, 10), (2, 8), (3, 13), (0, 8), (1, 8), (3, 8),
                                  (4, 8), (0, 12)])
def test_the_benchmarked_models_expand_in_two_steps_to_a_tridiagonal_stiffness(monkeypatch, k, n):
    # the spectral sweep's models and the suite's: every row of each degree is expanded in at
    # most two steps and rows two apart share no certified row, so each X is tridiagonal.
    # No code path reads this shape; the build's cost does
    steps, stiffness = [], []
    real_peel, real_stiffness = spectral._peel, spectral._stiffness

    def peel(*args):
        den, c = real_peel(*args)
        steps.append(int((c != 0).sum(axis=1).max()))
        return den, c

    def recording(*args):
        blocks = real_stiffness(*args)
        stiffness.extend(blocks)
        return blocks

    monkeypatch.setattr(spectral, "_peel", peel)
    monkeypatch.setattr(spectral, "_stiffness", recording)
    build_model(k, n)
    assert len(steps) == 2 and max(steps) <= 2
    assert all(not np.triu(x, 2).any() for x in stiffness)


@st.composite
def triangular_rows_and_vector(draw):
    """Lower triangular integer rows with a nonzero diagonal, and an integer vector to expand."""
    s = draw(st.integers(1, 7))
    entries = st.integers(-30, 30)
    rows = [draw(st.lists(entries, min_size=j, max_size=j))
            + [draw(entries.filter(bool))] for j in range(s)]
    return rows, draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=s, max_size=s))


@given(triangular_rows_and_vector())
@settings(max_examples=200, deadline=None)
def test_expansion_in_triangular_rows_is_exact(case):
    rows, u = case
    den, c = _expand(u, rows)
    assert den > 0 and all(0 <= m < len(rows) and v for m, v in c.items())
    assert [den * v for v in u] == [sum(cm * rows[m][col] for m, cm in c.items() if col <= m)
                                    for col in range(len(u))]


def _peel_against_expand(blocks, rows, owner):
    """`spectral._peel` of rows, row i in the lower triangular rows blocks[owner[i]], checked
    row by row against `_expand`: the same den and coefficients, nothing left over; returns
    whether it ended in machine words."""
    width = max(map(len, blocks))
    words = all(abs(v) < 2 ** 63 for r in [*rows, *chain(*blocks)] for v in r)
    w = np.zeros((len(blocks), width, width), dtype=np.int64 if words else object)
    for b, rows_b in enumerate(blocks):
        w[b, :len(rows_b), :len(rows_b)] = _square(rows_b)
    den, c = spectral._peel(np.array(rows, dtype=w.dtype), w, np.array(owner))
    assert c.shape == (len(rows), width)
    for i, (u, b) in enumerate(zip(rows, owner)):
        got = {m: int(v) for m, v in enumerate(c[i]) if v}
        assert (int(den[i]), got) == _expand(u[:len(blocks[b])], blocks[b])
    return c.dtype == np.int64


@st.composite
def peel_cases(draw):
    """Blocks of lower triangular rows with a nonzero diagonal, and rows to expand, each in
    one block and zero past its width: an integer combination of none, one, two or three of
    its rows, divided by its content or not, or a random row.  The entries of one case stay
    below 2^bits, from small to past int64."""
    bits = draw(st.sampled_from([4, 12, 24, 40, 62, 70]))
    entries = st.integers(-2 ** bits, 2 ** bits)
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    blocks = [[draw(st.lists(entries, min_size=j, max_size=j)) + [draw(entries.filter(bool))]
               for j in range(s)] for s in sizes]
    rows, owner = [], []
    for _ in range(draw(st.integers(1, 6))):
        b = draw(st.integers(0, len(sizes) - 1))
        square = _square(blocks[b])
        if draw(st.booleans()):
            picked = draw(st.lists(st.integers(0, sizes[b] - 1), max_size=3, unique=True))
            coeffs = [draw(entries.filter(bool)) for _ in picked]
            u = [sum(a * square[mm][col] for a, mm in zip(coeffs, picked))
                 for col in range(sizes[b])]
            if draw(st.booleans()) and any(u):
                u = [v // math.gcd(*u) for v in u]
        else:
            u = draw(st.lists(entries, min_size=sizes[b], max_size=sizes[b]))
        rows.append(u + [0] * (max(sizes) - sizes[b]))
        owner.append(b)
    return blocks, rows, owner


@given(peel_cases())
@settings(max_examples=200, deadline=None)
def test_the_batched_peel_is_expand_row_by_row(case):
    _peel_against_expand(*case)


@pytest.mark.parametrize("rows, w, machine", [
    # every term is at most 2^62 - 1 and the bound 2 (2^62 - 1) stays below 2^63
    ([[2 ** 62 - 1]], [[1]], True),
    # the bound reaches 2^63 exactly
    ([[2 ** 62]], [[1]], False),
    # the first step scales 2^61 by f = 8: 2^64 wraps in int64
    ([[2 ** 61, 1]], [[1], [0, 8]], False),
    # the first step fits (2^40 f = 2^61), the second subtracts t = 2^61 - 3 times 2^21
    ([[2 ** 40, 3]], [[1], [1, 2 ** 21]], False),
    # the same rows one power of two smaller: both steps in int64
    ([[2 ** 20, 3]], [[1], [1, 2 ** 21]], True),
    # three rows, three steps
    ([[1, 1, 1]], [[1], [0, 1], [0, 0, 1]], True),
    # the first step keeps c = 2^60, the second scales it by 3 and the third by 3 again: the
    # bound 9 2^60 + 2 3 passes 2^63 only through a coefficient no longer in the rest
    ([[1, 1, 2 ** 60]], [[3], [1, 3], [0, 0, 1]], False),
    # no row has anything to expand: no step at all
    ([[0, 0], [0, 0]], [[1], [1, 1]], True),
], ids=["largest-word", "at-the-bound", "scaling-wraps", "second-step-wraps", "two-steps-fit",
        "three-rows", "third-step-wraps", "every-row-zero"])
def test_the_peel_at_the_edges_of_its_bound(rows, w, machine):
    assert _peel_against_expand([w], rows, [0] * len(rows)) == machine


def test_rows_two_apart_that_share_a_form_row_are_summed_in_full():
    # rows r e0, r e1, r (e0 + e2), each in at most two rows of W' = I with G' = diag(p), but
    # rows 0 and 2 share row 0, so X is not tridiagonal: X_02 comes from the pair of terms two
    # apart.  For p = (2, 3, 5), X = r^2 R G' R^T is r^2 times the second matrix: past int64
    # with U in int64 at r = 2^40, and with U past the int64 bound max|W| max|R| s < 2^63 at
    # r = 2^62
    eye = np.eye(3, dtype=np.int64)
    for r, p, want in ((1, [1, 1, 1], [[1, 0, 1], [0, 1, 0], [1, 0, 2]]),
                       (2 ** 40, [2, 3, 5], [[2, 0, 2], [0, 3, 0], [2, 0, 7]]),
                       (2 ** 62, [2, 3, 5], [[2, 0, 2], [0, 3, 0], [2, 0, 7]])):
        incidence = np.array([[0, 0], [1, 1], [0, 2]]), r * np.array([[1, 0], [1, 0], [1, 1]])
        (got,) = spectral._stiffness([eye], [[1, 1, 1]], incidence, [eye], [p])
        assert got.tolist() == [[float(r * r * v) for v in row] for row in want]


def test_a_stiffness_row_past_int64_is_summed_in_python_integers():
    # U = 3 2^50 2^12 = 3 2^62 would wrap to -2^62 in int64, so X = U^2 would read 2^124
    w = np.array([[3 * 2 ** 50]], dtype=np.int64)
    (got,) = spectral._stiffness([w], [[1]], (np.array([[0, 0]]), np.array([[2 ** 12, 0]])),
                                 [np.ones((1, 1), dtype=np.int64)], [[1]])
    assert got.tolist() == [[float(9 * 2 ** 124)]]


#: the largest square below 2^53, and the smallest odd square above it, which float64 rounds
_BELOW, _ABOVE = 94906265, 94906267


@pytest.mark.parametrize("x, left, right", [
    # x^2 = 3.2e16 passes 2^53: a float64 square would be inexact and move the root by one ulp
    (179827493, 385, 1999),
    # left right = 5.2e16 passes 2^53: a float64 product would be inexact, the same way
    (318030, 256679541, 202467124),
    # x^2 is the largest square below 2^53 and left right = 2^53 - 2^26 - 1
    (_BELOW, 2 ** 26 - 1, 2 ** 27 + 1),
    # the float64 lane: an entry goes through it while its radicand numerator X_ij^2 num^2
    # and denominator p_i den^2 p_j are both below 2^53.  Its numerator is a square, never
    # 2^53 - 1, 2^53 or 2^53 + 1, so the numerator's edges are the squares on either side;
    # below them the float64 quotient is exact, above them float64 would round the radicand's
    # numerator or denominator and move the root by one ulp
    (_BELOW, 3, 3),
    (_ABOVE, 3, 3),
    (9, _BELOW, _BELOW),
    (9, _ABOVE, _ABOVE),
    # the denominator p_i p_j of an entry at 2^53 - 1 (inside the lane), 2^53 and 2^53 + 1
    (3, 6361 * 69431, 20394401),
    (3, 2 ** 26, 2 ** 27),
    (3, 3 * 107, 28059810762433),
], ids=["numerator-past-2^53", "denominator-past-2^53", "largest-below-2^53",
        "lane-numerator-below-2^53", "lane-numerator-past-2^53", "lane-denominator-below-2^53",
        "lane-denominator-past-2^53", "denominator-2^53-1", "denominator-2^53",
        "denominator-2^53+1"])
def test_the_rounding_is_one_correctly_rounded_quotient(x, left, right):
    # X_01 = x in a block with W = I, A = X and norms (left, right) has the radicand x^2 /
    # (left right); it is rounded alone, beside a block in the float64 lane and beside one
    # that mixes both lanes, and in the exact lane, and each time gets the bits of one
    # correctly rounded quotient.  In a 3 x 3 block beside it, X_02 = 1 over p_0 p_2 = 3 left
    # is always in the float64 lane and X_22 = _ABOVE past it, and each entry is its own
    # correctly rounded quotient, in either lane
    eye = np.eye(2, dtype=np.int64)
    inside = (eye, np.array([[0, 1], [1, 0]]), [1, 1], Fraction(1))
    outside = (eye, np.array([[_ABOVE, 0], [0, 1]]), [3, 3], Fraction(1))
    for sign in (1, -1):
        want = np.array([_scaled_root(sign * x, 1, left * right)]).tobytes()
        got = spectral._signed_root(*(np.array([v], dtype=object)
                                      for v in (sign * x, 1, left, right)))
        assert got.tobytes() == want
        block = (eye, np.array([[0, sign * x], [sign * x, 0]]), [left, right], Fraction(1))
        mixed = (np.eye(3, dtype=np.int64), np.array([[0, sign * x, 1], [sign * x, 0, 0],
                                                       [1, 0, _ABOVE]]), [left, right, 3],
                 Fraction(1))
        x3, p3 = mixed[1].tolist(), mixed[2]
        mixed_want = np.array([[_scaled_root(x3[i][j], 1, p3[i] * p3[j]) for j in range(3)]
                               for i in range(3)]).tobytes()
        for case, expected in ((block, want), (mixed, mixed_want)):
            got = spectral._exact_congruence(*case[:3], 1, 1)
            assert (got[0, 1:] if case is block else got).tobytes() == expected
        for batch in ([block], [inside, block], [block, outside], [outside, block, inside],
                      [mixed, block], [inside, mixed]):
            rounded = _round_batch(batch)
            if any(b is block for b in batch):
                assert rounded[[b is block for b in batch].index(True)][0, 1:].tobytes() == want
            if any(b is mixed for b in batch):
                assert rounded[[b is mixed for b in batch].index(True)].tobytes() == mixed_want


def _round_batch(batch):
    """A batch of (W, A, norms, scale) blocks, W and A each int64 or Python integers, each
    rounded on the lane `_operator_blocks` gives it: the int64 pairs padded with zeros into
    one `_machine_congruences` stack, as wide as the largest of them, their norms with 1, and
    where X is proved rounded by `_round_congruences`; every other block by
    `_exact_congruence`.  Each block's rounded matrix, cut to its size."""
    sizes = np.array([len(w) for w, *_ in batch])
    machine = np.array([b for b, (w, a, *_) in enumerate(batch) if w.dtype == a.dtype == np.int64])
    out = {}
    if len(machine):
        s = int(sizes[machine].max())
        w, a = np.zeros((2, len(machine), s, s), dtype=np.int64)
        norms = np.ones((len(machine), s), dtype=object)
        for r, b in enumerate(machine):
            wb, ab, pb, _ = batch[b]
            w[r, :len(wb), :len(wb)], a[r, :len(wb), :len(wb)], norms[r, :len(wb)] = wb, ab, pb
        num, den = (np.array([getattr(batch[b][3], part) for b in machine], dtype=object)
                    for part in ("numerator", "denominator"))
        x, proved = spectral._machine_congruences(w, a, sizes[machine])
        rounded = _round_congruences(x[proved], sizes[machine][proved], norms[proved],
                                     num[proved], den[proved])
        out.update(zip(machine[proved].tolist(), rounded))
    for b, (wb, ab, pb, scale) in enumerate(batch):
        if b not in out:
            out[b] = spectral._exact_congruence(wb, ab, pb, scale.numerator, scale.denominator)
    return [out[b][:t, :t] for b, t in enumerate(sizes.tolist())]


def _square(rows):
    """Lower triangular rows (row j has j+1 entries) padded with zeros to a square."""
    return [row + [0] * (len(rows) - len(row)) for row in rows]


def _integer_array(rows):
    """Integer rows as the model keeps them: int64 where every entry is exact in float64,
    otherwise Python integers."""
    fits = all(abs(v) < spectral._EXACT for row in rows for v in row)
    return np.array(rows, dtype=np.int64 if fits else object)


def _congruences_against_the_oracle(batch):
    """Whether each block of a batch takes the machine lane (`_round_batch`).

    Each case is (W as lower triangular rows, A, norms, scale).  The whole
    batch goes in one call, and each block's result is checked bit for bit
    against the congruence rounded one entry at a time from the exact
    V = W A, and against the block rounded alone.  A block takes machine
    words where W and A are int64 and `_machine_congruences` proves X exact.
    """
    arrays = [(_integer_array(_square(w)), _integer_array(a)) for w, a, _, _ in batch]
    got = _round_batch([(w, a, p, scale) for (w, a), (_, _, p, scale) in zip(arrays, batch)])
    machine = []
    for (w, a, p, scale), (w_arr, a_arr), block in zip(batch, arrays, got):
        s = len(w)
        v = [[sum(w[i][c] * a[c][j] for c in range(i + 1)) for j in range(s)] for i in range(s)]
        assert block.tobytes() == _round_each_entry(v, w, p, scale).tobytes()
        assert block.tobytes() == _round_batch([(w_arr, a_arr, p, scale)])[0].tobytes()
        words = w_arr.dtype == a_arr.dtype == np.int64
        machine.append(words and bool(spectral._machine_congruences(
            w_arr[None], a_arr[None], np.array([s]))[1][0]))
    return machine


@st.composite
def congruence_cases(draw):
    """Lower triangular W with a nonzero diagonal, A, positive norms and a positive scale.

    The entries of one case stay below 2^bits: machine words that the
    float bound proves or cannot prove, entries at and past 2^52, and past int64.
    """
    s = draw(st.integers(1, 6))
    bits = draw(st.sampled_from([8, 14, 26, 51, 52, 53, 63, 70]))
    entries = st.integers(-2 ** bits, 2 ** bits)
    w = [draw(st.lists(entries, min_size=j, max_size=j)) + [draw(entries.filter(bool))]
         for j in range(s)]
    a = [draw(st.lists(entries, min_size=s, max_size=s)) for _ in range(s)]
    norms = draw(st.lists(st.integers(1, 2 ** 80), min_size=s, max_size=s))
    scale = draw(st.fractions(min_value=0, max_value=2 ** 40, max_denominator=2 ** 40).filter(bool))
    return w, a, norms, scale


@given(st.lists(congruence_cases(), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
def test_the_congruence_is_rounded_as_one_entry_at_a_time(batch):
    # a batch of one to three blocks of any sizes, each path and each lane mixed at random
    _congruences_against_the_oracle(batch)


_WIDE = [[1], [2 ** 51, 2 ** 51 - 1]]  # its rows nearly cancel against [[1, -1], [-1, 1]]
#: a block past the machine words: W holds 2^53 + 1, so W and A are Python integers
_PAST_WORDS = ([[2 ** 53 + 1]], [[3]], [5], Fraction(2, 3))


@pytest.mark.parametrize("w, a, machine", [
    # X = (1 1; 1 1) while |W||A||W|^T is about 2^104, and 4 s u of it 2^54: proved exact
    (_WIDE, [[1, -1], [-1, 1]], True),
    # 2^51 times A: X = 2^51 (1 1; 1 1), but 4 s u |W||A||W|^T passes 2^62
    (_WIDE, [[2 ** 51, -2 ** 51], [-2 ** 51, 2 ** 51]], False),
    # X = 3 2^62 passes 2^63, and its residue modulo 2^64 reads -2^62
    ([[2 ** 31]], [[3]], False),
    # X_22 is about -1.38e19, past -2^63, while the float product reads at most 4.5e17 in
    # magnitude, below 2^62: only the error bound, about 2^73 here, tells them apart
    ([[1], [0, 1], [7615844611, 7367867196, 5316810025]],
     [[-566640415797176, -1014788577973509, 2217922546809489],
      [-1014788577973509, 422222430037531, 868489434353068],
      [2217922546809489, 868489434353068, -4380496609746180]], False),
], ids=["wide-bound", "wide-bound-unproved", "past-int64", "float-reads-low"])
def test_the_congruence_at_the_edges_of_its_bound(w, a, machine):
    s = len(w)
    x = [[sum(w[i][c] * a[c][d] * w[j][d] for c in range(i + 1) for d in range(j + 1))
          for j in range(s)] for i in range(s)]
    wf, af = np.array(_square(w), dtype=float), np.array(a, dtype=float)
    wide = (np.abs(wf) @ np.abs(af) @ np.abs(wf).T).max()
    wu = np.array(_square(w), dtype=np.uint64)
    wrapped = (wu @ np.array(a, dtype=np.int64).astype(np.uint64) @ wu.T).view(np.int64)
    assert max(abs(v) for row in _square(w) + a for v in row) < 2 ** 52  # machine words
    # a bound on |W||A||W|^T alone would refuse, or the words wrap
    assert wide >= 2 ** 62 or wrapped.tolist() != x
    case = (w, a, [3] * s, Fraction(5, 7))
    assert _congruences_against_the_oracle([case]) == [machine]
    # beside a block of the other path and one of Python integers, in one batch
    wide = [[1, -1], [-1, 1]] if not machine else [[2 ** 51, -2 ** 51], [-2 ** 51, 2 ** 51]]
    other = (_WIDE, wide, [2, 7], Fraction(3))
    assert _congruences_against_the_oracle([other, _PAST_WORDS, case]) == [not machine, False,
                                                                           machine]


@pytest.fixture(scope="module")
def model_0_24():
    return build_model(0, 24)


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("op", [z_var(1, 1), d_var(1, 1)], ids=["z", "d"])
def test_a_moment_window_past_the_words_is_summed_in_python_integers(monkeypatch, model_0_24,
                                                                     op, degree):
    # z and d pair no neutral term, so the kappa factor of the int64 bound is 0, while at
    # N = 24 their moment window alone passes 2^63
    model = model_0_24
    which = range(len((model.blocks, model.forms)[degree]))
    assert any(mat.dtype == object for mat, _ in _pairings(model, op, degree, which))
    got = _blocks_by_index(model, op, degree)
    monkeypatch.setattr(spectral, "_EXACT", 0)  # no array stays in machine words
    ref = _blocks_by_index(model, op, degree)
    assert all(got[bi].tobytes() == ref[bi].tobytes() for bi in which)


def _spy_on_lanes(monkeypatch):
    """Two lists: each `_machine_congruences` call's (stack width, proved) and the rows W of
    each `_exact_congruence` call."""
    machine, exact = [], []
    real_machine, real_exact = spectral._machine_congruences, spectral._exact_congruence

    def recording(w, a, sizes):
        x, proved = real_machine(w, a, sizes)
        machine.append((w.shape[-1], proved.tolist()))
        return x, proved

    monkeypatch.setattr(spectral, "_machine_congruences", recording)
    monkeypatch.setattr(spectral, "_exact_congruence",
                        lambda w, *rest: exact.append(w) or real_exact(w, *rest))
    return machine, exact


def test_each_block_takes_the_path_its_bound_proves(monkeypatch, model_0_24):
    # a block takes the machine lane exactly when its W and P are int64 and the bound proves
    # its X; the exact lane gets every other block, once
    machine, exact = _spy_on_lanes(monkeypatch)
    zd = mul(z_var(1, 1), d_var(1, 1))
    for model, paths in ((build_model(0, 14), {True}), (model_0_24, {True, False})):
        for degree, blocks in enumerate((model.blocks, model.forms)):
            machine.clear(), exact.clear()
            pairs = _pairings(model, zd, degree, range(len(blocks)))
            words = [bi for bi, (b, (mat, _)) in enumerate(zip(blocks, pairs))
                     if b.w.dtype == mat.dtype == np.int64]
            _blocks_by_index(model, zd, degree)
            # one stacked decision per degree, one entry per machine-word block, in block order
            ((_, proved),) = machine
            assert len(proved) == len(words) and set(proved) <= paths
            unproved = [bi for bi, ok in zip(words, proved) if not ok]
            want = sorted(set(range(len(blocks))).difference(words).union(unproved))
            assert sorted(bi for bi, b in enumerate(blocks) for w in exact if w is b.w) == want
            assert len(exact) == len(want)
        if paths == {True}:  # every z d/dz block of (0, 14) goes on machine words
            assert not exact and len(words) == len(blocks)
    # at (0, 24), 20 blocks have W or P past int64 and the bound refuses 3 more
    assert sum(len(bs) for bs in (model_0_24.blocks, model_0_24.forms)) == 98
    machine.clear(), exact.clear()
    limit_supertrace(model_0_24, zd, [1.0])
    assert len(exact) == 23 and sum(not ok for _, proved in machine for ok in proved) == 3


@pytest.mark.parametrize("k, n", sorted({(0, 14), (1, 10), (2, 8), (3, 13)}
                                         | {(k, max(k + 2, 8)) for k in range(5)}))
def test_the_benchmark_and_suite_queries_stay_in_the_machine_lane(monkeypatch, k, n):
    # the `spectral-sweep` models, whose identity and z d/dz supertraces it reads, and the
    # suite's query models: the mckean-singer model (1, 10) and the harmonic models
    # (k, max(k + 2, 8)); no block of theirs reaches the exact lane
    machine, exact = _spy_on_lanes(monkeypatch)
    model = build_model(k, n)
    for op in (unit(1), mul(z_var(1, 1), d_var(1, 1))):
        harmonic_supertrace(model, op)
        limit_supertrace(model, op, [0.5, 11.0])
    assert not exact
    assert len(machine) == 6 and all(all(proved) for _, proved in machine)


@pytest.mark.parametrize("k, n", [(0, 24), pytest.param(0, 40, marks=pytest.mark.large)])
def test_the_machine_stack_is_as_wide_as_its_largest_block(monkeypatch, k, n):
    # a z d/dz query pads its machine stack to the largest block whose W and P are int64, not
    # to the degree's largest block: at (0, 40) the wide stack took 8-12 ms against 1.7 ms
    machine, _ = _spy_on_lanes(monkeypatch)
    model = build_model(k, n)
    zd = mul(z_var(1, 1), d_var(1, 1))
    for degree, blocks in enumerate((model.blocks, model.forms)):
        machine.clear()
        pairs = _pairings(model, zd, degree, range(len(blocks)))
        _blocks_by_index(model, zd, degree)
        widest = max(len(b.w) for b, (mat, _) in zip(blocks, pairs)
                     if b.w.dtype == mat.dtype == np.int64)
        ((width, _),) = machine
        assert width == widest < max(len(b.w) for b in blocks)


@pytest.mark.parametrize("k, n", [(0, 8), (1, 10), (3, 12)])
def test_one_eigensolve_per_block_size(monkeypatch, k, n):
    stacks, real_eigh = [], np.linalg.eigh

    def recording(a):
        stacks.append(a.shape)
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    model = build_model(k, n)
    sizes = [len(pairs_of(b)) for b in model.blocks + model.forms]
    assert sorted(shape[-1] for shape in stacks) == sorted(set(sizes))
    assert {shape[-1]: shape[0] for shape in stacks} == {s: sizes.count(s) for s in sizes}


def test_certificate_is_taken_once_per_alpha(monkeypatch):
    # degree 0 and degree 1 share M, and every block of one alpha uses a prefix of its rows
    calls = []

    def recording(mom, alpha, w):
        calls.append((alpha, len(w)))
        return _certify(mom, alpha, w)

    monkeypatch.setattr(spectral, "_certify", recording)
    k, n = 2, 7
    model = build_model(k, n)
    largest = {}  # alpha -> its largest block, in either degree
    for b in model.blocks + model.forms:
        pairs = pairs_of(b)
        alpha = abs(pairs[0][0] - pairs[0][1])
        largest[alpha] = max(largest.get(alpha, 0), len(pairs))
    assert sorted(calls) == sorted(largest.items())
    assert len(calls) < len(model.blocks) + len(model.forms)


@pytest.mark.parametrize("k, n", [(1, 8), (0, 14), (3, 13)])
def test_the_certificate_reads_the_moments_not_only_the_rows(k, n):
    # rows made for the weight M are refused against the moments of M + 1, at the first row
    # that fails, and so is one last row made for M among rows made for M + 1: the highest
    # moments, which only the last row of an alpha reads, are read too
    m = 2 * n + k + 2
    moments = [math.factorial(s) * math.factorial(m - 1 - s) for s in range(m)]  # of m + 1
    for alpha in (0, 1, n // 2):
        size = (m - 2 - alpha) // 2 + 1  # the largest block the weight M admits
        wrong, right = _orthogonal_rows(size, alpha, m), _orthogonal_rows(size, alpha, m + 1)
        gram = _hankel_gram(size, alpha, m + 1)
        assert _certify(moments, alpha, right) == [
            sum(wi[r] * gram[r][c] * wi[c] for r in range(size) for c in range(size))
            for wi in right.tolist()]
        with pytest.raises(IllConditionedGramError, match="^row 1 of W does not diagonalize"):
            _certify(moments, alpha, wrong)
        right[-1] = wrong[-1]
        with pytest.raises(IllConditionedGramError, match=f"^row {size - 1} of W does not"):
            _certify(moments, alpha, right)


@pytest.mark.parametrize("position", ["constant", "middle", "leading"])
def test_a_wrong_closed_form_coefficient_is_refused(monkeypatch, capsys, position):
    real_rows = spectral._orthogonal_rows

    def off_by_one(size, alpha, m):
        rows = real_rows(size, alpha, m)
        if alpha == 0:  # the central section block, and the form block at charge 0
            row = rows[-1]
            row[{"constant": 0, "middle": len(row) // 2, "leading": -1}[position]] += 1
        return rows

    monkeypatch.setattr(spectral, "_orthogonal_rows", off_by_one)
    with pytest.raises(IllConditionedGramError, match="does not diagonalize"):
        build_model(1, 8)
    assert main(["spectrum"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""



def _gauss(m, rhs):
    """(det m, m^-1 rhs) by exact Gauss-Jordan elimination; the reference."""
    s = len(m)
    rows = [[Fraction(v) for v in m[i] + rhs[i]] for i in range(s)]
    det = Fraction(1)
    for c in range(s):
        piv = next((i for i in range(c, s) if rows[i][c]), None)
        if piv is None:
            return Fraction(0), None
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for i in range(s):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det, [row[s:] for row in rows]


@st.composite
def spd_with_rhs(draw):
    """A random small symmetric positive definite integer G = B B^T + I and an integer A."""
    s = draw(st.integers(1, 5))
    entries = st.lists(st.lists(st.integers(-4, 4), min_size=s, max_size=s), min_size=s, max_size=s)
    b, a = draw(entries), draw(entries)
    g = [[sum(x * y for x, y in zip(b[i], b[j])) + (i == j) for j in range(s)] for i in range(s)]
    return g, a


@given(spd_with_rhs())
@settings(max_examples=80, deadline=None)
def test_bareiss_reduction_is_exact(case):
    g, a = case
    s = len(g)
    rows, deltas = _bareiss(g, a)
    w = [row[s:2 * s] for row in rows]
    # the deltas are the leading principal minors
    assert deltas == [_gauss([row[:j] for row in g[:j]], [[] for _ in range(j)])[0]
                      for j in range(s + 1)]
    # W G W^T = diag(deltas[j] deltas[j+1]) and the last third is W A
    wg = [[sum(w[i][r] * g[r][c] for r in range(s)) for c in range(s)] for i in range(s)]
    wgwt = [[sum(wg[i][c] * w[j][c] for c in range(s)) for j in range(s)] for i in range(s)]
    assert wgwt == [[deltas[i] * deltas[i + 1] if i == j else 0 for j in range(s)]
                    for i in range(s)]
    assert [row[2 * s:] for row in rows] == [
        [sum(w[i][r] * a[r][c] for r in range(s)) for c in range(s)] for i in range(s)]


def _reference_congruence(gram, mat):
    """D^(-1/2) L^-1 M L^-T D^(-1/2) for G = L D L^T, each entry to 200 bits, then rounded."""
    s = len(gram)
    lower = [[Fraction(int(i == j)) for j in range(s)] for i in range(s)]
    diag = []
    for j in range(s):
        diag.append(gram[j][j] - sum(lower[j][r] ** 2 * diag[r] for r in range(j)))
        for i in range(j + 1, s):
            lower[i][j] = (gram[i][j] - sum(lower[i][r] * lower[j][r] * diag[r]
                                            for r in range(j))) / diag[j]
    _, linv = _gauss(lower, [[int(i == j) for j in range(s)] for i in range(s)])
    z = [[sum(linv[i][r] * mat[r][c] * linv[j][c] for r in range(s) for c in range(s))
          for j in range(s)] for i in range(s)]
    out = np.zeros((s, s))
    for i in range(s):
        for j in range(s):
            r = z[i][j] ** 2 / (diag[i] * diag[j])
            root = Fraction(math.isqrt((r.numerator << 400) // r.denominator), 1 << 200)
            out[i, j] = float(root) if z[i][j] >= 0 else -float(root)
    return out


def test_congruence_entries_are_within_two_ulp():
    # each degree's largest block, against its own Gram, in its own basis
    k, n = 1, 8
    model = build_model(k, n)
    zd = mul(z_var(1, 1), d_var(1, 1))
    for degree, (basis, extra) in enumerate([(_chi, k + 2), (_psi, k)]):
        blocks = (model.blocks, model.forms)[degree]
        bi = max(range(len(blocks)), key=lambda i: len(pairs_of(blocks[i])))
        pairs = pairs_of(blocks[bi])
        gram = [[mono_integral(a + b2, 2 * n + k + 2) for (_, b2) in pairs] for (a, _) in pairs]
        funcs = [basis(a, b, n) for a, b in pairs]
        got = _blocks_by_index(model, zd, degree)[bi]
        ref = _reference_congruence(
            gram, [[pair_weighted(_apply_weyl(zd, fj), fi, extra) for fj in funcs] for fi in funcs])
        assert np.count_nonzero(ref) > len(pairs)
        for x, y in zip(got.ravel(), ref.ravel()):
            assert abs(x - y) <= 2 * math.ulp(y)


# ---------------------------------------------------------------------------
# the lifted operator assembly against the generic pairing kernel
# ---------------------------------------------------------------------------


_Z, _D = z_var(1, 1), d_var(1, 1)
_OPERATORS = [unit(1), mul(_Z, _D), _Z, _D, mul(mul(_Z, _Z), mul(_D, _D)), add(_Z, _D),
              add(WeylElement.from_terms(1, [(((1,), (1,)), Fraction(1, 2))]), scale(3, unit(1)))]


def _scaled(entries):
    """A matrix of (numerator, m) pairings as a reduced integer matrix and one rational scale."""
    weights = {m for row in entries for num, m in row if num}
    top = math.factorial(max(weights, default=1) - 1)
    mat = [[num * (top // math.factorial(m - 1)) if num else 0 for num, m in row]
           for row in entries]
    return _reduced(mat, Fraction(1, top))


def _pairing_matrix(funcs, op, extra):
    """<op f_j, f_i> with one `_pairing` call per entry, row by row; the reference."""
    den = math.lcm(*(c.denominator for _, c in op.terms))
    applied = [{key: int(c * den) for key, c in _apply_weyl(op, f).items()} for f in funcs]
    mat, scale = _scaled([[_pairing(fj, fi, extra) for fj in applied] for fi in funcs])
    return mat, scale / den


def _reference_pairings(model, op, degree, bi):
    """The reference pairing of one block: chi with weight k+2, or psi with weight k."""
    basis, extra = [(_chi, model.k + 2), (_psi, model.k)][degree]
    pairs = pairs_of((model.blocks, model.forms)[degree][bi])
    return _pairing_matrix([basis(a, b, model.trunc) for a, b in pairs], op, extra)


def _moments(m):
    return [math.factorial(s) * math.factorial(m - s - 2) for s in range(m - 1)]


def _outcome(assemble):
    """The assembled blocks, or the class of the error the assembly raised."""
    try:
        return assemble()
    except (OperatorEscapeError, DivergentIntegralError) as exc:
        return type(exc)


def _pairings(model, op, degree, which):
    """`_operator_pairings` as the list of each block's (integer matrix, scale): the int64 stack
    cut to the block, or its Python-integer matrix, and the pairing's own scale, the returned
    ratio times the block's Gram scale."""
    which = list(which)
    mat, alone, num, den = _operator_pairings(model, op, degree, which)
    blocks = (model.blocks, model.forms)[degree]
    return [(alone.get(row, mat[row, :len(blocks[bi].w), :len(blocks[bi].w)]),
             Fraction(int(num[row]), int(den[row])) * blocks[bi].scale)
            for row, bi in enumerate(which)]


def _as_lists(pairings):
    """Each (integer array, scale) as nested lists of Python ints divided by their gcd, and the
    scale times it (`_reduced`): the form every reference pairing takes."""
    return [_reduced(mat.tolist(), scale) for mat, scale in pairings]


def _both_assemblies(model, op, degree):
    which = range(len((model.blocks, model.forms)[degree]))
    return (_outcome(lambda: _as_lists(_pairings(model, op, degree, which))),
            _outcome(lambda: [_reference_pairings(model, op, degree, bi) for bi in which]))


@pytest.mark.parametrize("k, n", [(0, 6), (1, 10), (3, 12)])
def test_lifted_operator_blocks_equal_the_pairing_kernel(k, n):
    model = build_model(k, n)
    for op in _OPERATORS:
        for degree in (0, 1):
            new, ref = _both_assemblies(model, op, degree)
            assert isinstance(ref, list)
            assert new == ref


@st.composite
def one_variable_elements(draw, max_z):
    """A one-variable element whose terms have z-degree at most max_z."""
    terms = draw(st.lists(st.tuples(st.integers(0, max_z), st.integers(0, 3),
                                    st.fractions(-3, 3, max_denominator=4).filter(bool)),
                          min_size=1, max_size=4))
    return WeylElement.from_terms(1, [(((z,), (d,)), c) for z, d, c in terms])


@given(st.sampled_from([(0, 3), (1, 4), (2, 5)]).flatmap(
    lambda kn: st.tuples(st.just(kn), one_variable_elements(kn[1]))),
    st.sampled_from([0, 1]))
@settings(max_examples=60, deadline=None)
def test_lifted_operator_blocks_equal_the_pairing_kernel_on_random_elements(case, degree):
    (k, n), op = case
    new, ref = _both_assemblies(build_model(k, n), op, degree)
    assert new == ref


def test_lifted_assembly_raises_what_the_pairing_kernel_raises():
    model = build_model(0, 8)
    for op in (monomial(1, (9,), (0,)), monomial(1, (8,), (0,))):
        for degree in (0, 1):
            assert _both_assemblies(model, op, degree) == (OperatorEscapeError,) * 2
    for degree in (0, 1):
        with pytest.raises(OperatorEscapeError):
            _blocks_by_index(model, z_var(1, n=2), degree)
        with pytest.raises(OperatorEscapeError):
            _reference_pairings(model, z_var(1, n=2), degree, 0)
    # one image against one basis function: a neutral term too high diverges, and the
    # identically zero image of test_pairing_handles_cancelling_divergences lifts to 0
    one = {(0, 0, 0): 1}
    with pytest.raises(DivergentIntegralError):
        _pairing({(2, 2, 1): 1}, one, 2)
    with pytest.raises(DivergentIntegralError):
        _moment_block([_lift({(2, 2, 1): 1}, 1)], [(0, 0)], _moments(3))
    zero = {(1, 1, 1): 1, (1, 1, 2): -1, (2, 2, 2): -1}
    assert _pairing(zero, one, 2)[0] == 0
    assert _moment_block([_lift(zero, 2)], [(0, 0)], _moments(4)) == [[0]]


def test_lifted_image_converges_where_its_terms_diverge_one_by_one():
    # at (k, N) = (0, 8), with w = 1+|z|^2,
    #   z^3 d/dz chi_(8,8) = 8 z^10 zbar^8 w^-8 - 8 z^11 zbar^9 w^-9 = 8 z^10 zbar^8 w^-9:
    # each term alone escapes against chi_(8,8), their sum does not
    model = build_model(0, 8)
    op = monomial(1, (3,), (1,))
    image = _apply_weyl(op, _chi(8, 8, 8))
    assert len(image) == 2
    for key, c in image.items():
        with pytest.raises(OperatorEscapeError):
            _pairing({key: c}, _chi(8, 8, 8), 2)
    new, ref = _both_assemblies(model, op, 0)
    assert isinstance(ref, list)
    assert new == ref


# ---------------------------------------------------------------------------
# the closed-form image coefficients against the images built term by term
# ---------------------------------------------------------------------------


def _blocks_or_refusal(assemble):
    """The assembled blocks, or the class and message of the error the assembly raised."""
    try:
        return list(assemble())
    except (OperatorEscapeError, DivergentIntegralError) as exc:
        return type(exc), str(exc)


def _both_pairings(model, op, degree):
    """The closed-form pairings and the term-by-term ones of every block of one degree."""
    which = range(len((model.blocks, model.forms)[degree]))
    return (_blocks_or_refusal(lambda: _as_lists(_pairings(model, op, degree, which))),
            _blocks_or_refusal(lambda: lifted_pairings(model, op, degree, which)))


_MORE_OPERATORS = _OPERATORS + [mul(_Z, _Z), monomial(1, (1,), (2,)), monomial(1, (2,), (2,)),
                                monomial(1, (2,), (1,)), mul(mul(_Z, _D), mul(_Z, _D)),
                                monomial(1, (3,), (0,), Fraction(-2, 3)), zero(1)]


@pytest.mark.parametrize("k, n", [(0, 2), (1, 4), (0, 6), (2, 8), (1, 10), (5, 12)])
def test_closed_form_pairings_equal_the_lifted_images(k, n):
    # blocks and refusals alike: z^(N+1) escapes on every model
    model = build_model(k, n)
    outcomes = set()
    for op in _MORE_OPERATORS + [monomial(1, (n + 1,), (0,))]:
        for degree in (0, 1):
            new, ref = _both_pairings(model, op, degree)
            assert new == ref
            outcomes.add(type(new))
    assert outcomes == {list, tuple}


@given(st.sampled_from([(0, 2), (1, 4), (2, 5)]).flatmap(
    lambda kn: st.tuples(st.just(kn), one_variable_elements(kn[1] + 2))),
    st.sampled_from([0, 1]))
@settings(max_examples=80, deadline=None)
def test_closed_form_pairings_equal_the_lifted_images_on_random_elements(case, degree):
    (k, n), op = case
    new, ref = _both_pairings(build_model(k, n), op, degree)
    assert new == ref


def _cz_plus_z_d(c, e):
    """c z^e + z^(e+1) d/dz: both terms shift the charge by e."""
    return WeylElement.from_terms(1, [(((e,), (0,)), Fraction(c)), (((e + 1,), (1,)), Fraction(1))])


@pytest.mark.parametrize("k, n", [(1, 4), (2, 6)])
def test_a_top_coefficient_that_cancels_for_one_basis_function(k, n):
    # on z^a zbar^b w^-g, w = 1+|z|^2, lifted to w^-(g+1), c z^e + z^(e+1) d/dz has the top
    # charged coefficient c + a - g, which vanishes at a = g - c; g = N for the sections
    # chi and N+1 for the forms psi, so with c = -k it vanishes at the largest a of each
    model = build_model(k, n)
    for degree in (0, 1):
        # e = 1, c = N - 1: it vanishes at a = 1 (chi) and a = 2 (psi); nothing escapes anyway
        new, ref = _both_assemblies(model, _cz_plus_z_d(n - 1, 1), degree)
        assert isinstance(ref, list) and new == ref
        # e = 2: the pair of the largest-a basis function with itself integrates only
        # because its top term cancels; one more or one less in c and it escapes
        op = _cz_plus_z_d(-k, 2)
        new, ref = _both_assemblies(model, op, degree)
        assert isinstance(ref, list) and new == ref == _both_pairings(model, op, degree)[1]
        for c in (-k - 1, -k + 1):
            assert _both_assemblies(model, _cz_plus_z_d(c, 2), degree) == (OperatorEscapeError,) * 2


def test_an_integrability_check_reads_only_the_nonzero_coefficients():
    # image z^3 zbar w^-1 of the constant: charged, radial degree 4 > 2m - 3 at m = 3
    with pytest.raises(OperatorEscapeError, match="radial degree 4, weight 3"):
        _check_integrable([4], 1, 0, 3)
    with pytest.raises(OperatorEscapeError, match="radial degree 4, weight 3"):
        _moment_block([_lift({(3, 1, 1): 1}, 1)], [(0, 0)], _moments(3))
    # a zero kappa[2, 1] leaves kappa[2, 0] on top
    _check_integrable([2], 1, 0, 3)
    # the first escaping pair in row-major order is named
    with pytest.raises(OperatorEscapeError, match="image 1 paired with basis function 1 .*"
                                                  r"\(radial degree 6, weight 4\)"):
        _check_integrable([-math.inf, 2], 2, 0, 4)
    # no charged term: nothing escapes
    _check_integrable([-math.inf], 1, 0, 3)
    _check_integrable([], 0, 0, 3)
    # the table reads each a's nonzero charged coefficients only.  On the section block of
    # charge k, -k z^2 + z^3 d/dz has the top charged coefficient a - N - k (kappa[2, 1],
    # sigma + 2 tau = 4), zero at the last image j = N, whose pair with i = N is the only
    # one that this term would take past 2m - 3 = 4N + 2k + 3; kappa[2, 0] = a - k is not
    k, n = 1, 4
    model = build_model(k, n)
    assert len(_as_lists(_pairings(model, _cz_plus_z_d(-k, 2), 0, [n + k]))) == 1
    with pytest.raises(OperatorEscapeError, match=f"image {n} paired with basis function {n} .*"
                                                  rf"\(radial degree {4 * n + 2 * k + 4}, "
                                                  rf"weight {2 * n + k + 3}\)"):
        _pairings(model, _cz_plus_z_d(-k + 1, 2), 0, [n + k])
    # a neutral term is not read: z^2 d^2 lifts to w^-(g+2), and none of its terms diverges
    assert len(_as_lists(_pairings(model, monomial(1, (2,), (2,)), 0, [n + k]))) == 1


@given(st.integers(0, 12).flatmap(lambda s: st.lists(
    st.one_of(st.integers(-6, 30), st.just(-math.inf)), min_size=s, max_size=s)),
    st.integers(0, 10), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_the_escape_is_the_first_pair_of_a_row_major_search(tops, alpha, m):
    s = len(tops)
    first = next(((i, j, e + 2 * (i + j + alpha)) for i in range(s) for j, e in enumerate(tops)
                  if e + 2 * (i + j + alpha) > 2 * m - 3), None)  # row-major
    if first is None:
        _check_integrable(tops, s, alpha, m)
    else:
        with pytest.raises(OperatorEscapeError) as info:
            _check_integrable(tops, s, alpha, m)
        i, j, degree = first
        assert str(info.value) == (f"image {j} paired with basis function {i} leaves the "
                                   f"square-integrable truncation (radial degree {degree}, "
                                   f"weight {m})")


def test_no_neutral_pairing_of_an_admitted_block_can_diverge():
    # _check_integrable reads only charged terms because alpha + 2 (s-1) <= M - 2 in every
    # block, in both degrees, of every model build_model admits; the bound is attained.  Each
    # block (charge c, size s) of `_layout` holds the reference indices z^(b+c) zbar^b,
    # b = max(0, -c) .. max(0, -c) + s - 1, and `_incidence`'s rows come block by block in
    # that order: the first coefficient of dbar chi_(a,b) is b, of dbar* psi_(a,b) it is -a
    worst, models = -math.inf, 0
    for k in range(spectral.MAX_TRUNC - 1):
        for n in range(k + 2, spectral.MAX_TRUNC + 1):
            models += 1
            top = 2 * n + k + 2 - 2  # M - 2
            for degree, (a_max, b_max) in enumerate(((n + k, n), (n + k + 1, n - 1))):
                charges = range(degree - n, n + k + 1 + degree)
                pairs = [charge_pairs(c, a_max, b_max) for c in charges]
                layout = _layout(k, n, degree).tolist()
                assert layout == [[c, len(p)] for c, p in zip(charges, pairs)]
                assert all(p == [(b + c, b) for b in range(max(0, -c), max(0, -c) + s)]
                           for (c, s), p in zip(layout, pairs))
                first = _incidence(k, n, degree)[1][:, 0].tolist()
                assert first == [(b, -a)[degree] for p in pairs for a, b in p]
                worst = max(worst, max(abs(c) + 2 * (s - 1) - top for c, s in layout))
    assert models == 780 and worst == 0


def _spy_on_built_blocks(monkeypatch):
    """A list that gets (degree, block indices) of each `_operator_pairings` call."""
    built, real = [], spectral._operator_pairings

    def spy(model, op, degree, which):
        built.append((degree, list(which)))
        return real(model, op, degree, which)

    monkeypatch.setattr(spectral, "_operator_pairings", spy)
    return built


def test_harmonic_supertrace_builds_only_the_kernel_blocks(monkeypatch):
    model = build_model(0, 14)
    built = _spy_on_built_blocks(monkeypatch)
    harmonic_supertrace(model, unit(1))
    kernel_blocks = sorted({bi for bi, _ in model.harmonic0})
    assert len(kernel_blocks) == model.k + 1 < len(model.blocks)
    # for k >= 0 the degree-1 kernel is empty, so no degree-1 block is built
    assert not model.harmonic1 and built == [(0, kernel_blocks)]
    built.clear()
    grid = [0.5, 2.0, 11.0]
    fresh = build_model(0, 14)
    assert limit_supertrace(model, unit(1), grid) == limit_supertrace(fresh, unit(1), grid)
    assert built == [(0, list(range(len(model.blocks)))), (1, list(range(len(model.forms))))] * 2


# ---------------------------------------------------------------------------
# the array pass of a query against each block built on its own
# ---------------------------------------------------------------------------


def _queried_operators(k):
    """1, z d/dz, z^2 d^2, z, F = d/dz and E = z^2 d/dz - k z, by name."""
    e = WeylElement.from_terms(1, [(((2,), (1,)), Fraction(1)), (((1,), (0,)), Fraction(-k))])
    return {"1": unit(1), "z d/dz": mul(_Z, _D), "z^2 d^2": mul(mul(_Z, _Z), mul(_D, _D)),
            "z": _Z, "F = d": _D, "E": e}


def _blocks_alone(model, op, degree, which):
    """Each listed block built on its own: its term-by-term pairing (`lifted_pairings`) and
    its congruence formed and rounded alone (`_round_congruence`), as bytes by block index;
    or the text of the escape the pairings raise, the first in `which` order."""
    blocks = (model.blocks, model.forms)[degree]
    try:
        pairs = list(lifted_pairings(model, op, degree, which))
    except OperatorEscapeError as exc:
        return str(exc)
    return {bi: _round_congruence(blocks[bi].w, np.array(mat, dtype=object), blocks[bi].norms,
                                  scale / blocks[bi].scale).tobytes()
            for bi, (mat, scale) in zip(which, pairs)}


def _blocks_of_one_query(model, op, degree, which=None):
    """What `_blocks_by_index` returns, as bytes by block index, or the text of its escape."""
    try:
        return {bi: mat.tobytes() for bi, mat in _blocks_by_index(model, op, degree, which).items()}
    except OperatorEscapeError as exc:
        return str(exc)


@pytest.mark.parametrize("k, n", [(0, 14), (1, 10), (2, 8), (3, 13), (0, 24), (5, 20),
                                  pytest.param(0, 40, marks=pytest.mark.large),
                                  pytest.param(38, 40, marks=pytest.mark.large)])
def test_each_operator_block_gets_the_bits_it_gets_alone(k, n):
    # the spectral sweep's four models and two past its machine words, where the query mixes
    # int64 and Python-integer pairings and congruences; at (0, 40) and (38, 40), z d/dz alone,
    # whose congruences take int64, uint64 and Python integers
    model = build_model(k, n)
    ops = _queried_operators(k) if n < 40 else {"z d/dz": mul(_Z, _D)}
    for op in ops.values():
        for degree, blocks in enumerate((model.blocks, model.forms)):
            assert (_blocks_of_one_query(model, op, degree)
                    == _blocks_alone(model, op, degree, range(len(blocks))))


def _terms_or_escape(terms, model, op, columns):
    """The bytes of the eigenvalues and signed diagonals `terms` returns, or its escape's text."""
    try:
        lam, diag = terms(model, op, columns)
    except OperatorEscapeError as exc:
        return str(exc)
    return lam.tobytes(), diag.tobytes()


@pytest.mark.parametrize("k, n", [(0, 14), (1, 10), (2, 8), (3, 13), (0, 24), (5, 20),
                                  pytest.param(0, 40, marks=pytest.mark.large),
                                  pytest.param(38, 40, marks=pytest.mark.large)])
def test_the_supertrace_terms_are_those_of_each_block_alone(k, n):
    # the limit supertrace's terms (every column of every block) and the harmonic one's (the
    # kernel columns) against each block built term by term, rounded alone and read as
    # y^T A y one block at a time; at (0, 40) and (38, 40), z d/dz alone, whose blocks take
    # the Python-integer congruence
    model = build_model(k, n)
    ops = _queried_operators(k) if n < 40 else {"z d/dz": mul(_Z, _D)}
    every = [dict.fromkeys(range(len(b)), slice(None)) for b in (model.blocks, model.forms)]
    kernel = [{}, {}]
    for chosen, harmonic in zip(kernel, (model.harmonic0, model.harmonic1)):
        for bi, col in harmonic:
            chosen.setdefault(bi, []).append(col)
    for name, op in ops.items():
        for columns in (every, kernel):
            got = _terms_or_escape(spectral._supertrace_terms, model, op, columns)
            assert got == _terms_or_escape(supertrace_terms_alone, model, op, columns)
            assert name != "z d/dz" or isinstance(got, tuple)


def _entries(x, scale, left, right):
    """The (x, scale, left right) of each entry of one `_signed_root` call, sorted."""
    return sorted(zip(*(a.ravel().tolist() for a in np.broadcast_arrays(
        *(np.asarray(v, dtype=object) for v in (x, scale, left * right))))))


@pytest.mark.parametrize("k, n", [(0, 14), (3, 13), (0, 24)])
def test_the_python_integer_lane_gets_exactly_the_entries_past_2_to_the_53(monkeypatch, k, n):
    # in the machine lane an entry's radicand X_ij^2 num^2 / (p_i den^2 p_j) is rounded in
    # Python integers exactly when its numerator or its denominator is at or past 2^53, all
    # in one `_signed_root` call, and no padding entry is; each exact-lane block reaches
    # `_signed_root` once, with all s^2 of its entries.  X is formed here in Python integers
    # from the query's own pairings, rows and norms.  Only (0, 24) reaches the exact lane
    model = build_model(k, n)
    zd = mul(_Z, _D)
    calls = []  # the machine lane's call, if any, then each exact block's W and its call
    real_root, real_exact = spectral._signed_root, spectral._exact_congruence
    monkeypatch.setattr(spectral, "_signed_root",
                        lambda *args: calls.append(_entries(*args)) or real_root(*args))
    monkeypatch.setattr(spectral, "_exact_congruence",
                        lambda w, *rest: calls.append(w) or real_exact(w, *rest))
    for degree, blocks in enumerate((model.blocks, model.forms)):
        calls.clear()
        _blocks_by_index(model, zd, degree)
        mat, alone, num, den = _operator_pairings(model, zd, degree, range(len(blocks)))
        entries = []  # each block's (X_ij, num^2, p_i den^2 p_j), sorted
        for row, block in enumerate(blocks):
            s = len(block.w)
            w = block.w.astype(object)
            x = w.dot(alone.get(row, mat[row, :s, :s]).astype(object)).dot(w.T).tolist()
            scale, p = (num[row] ** 2, den[row] ** 2), block.norms
            entries.append(sorted((x[i][j], scale[0], p[i] * scale[1] * p[j])
                                  for i in range(s) for j in range(s)))
        m = len(calls) % 2  # 1 when the machine lane called, since it calls first
        exact = {next(bi for bi, b in enumerate(blocks) if b.w is w): got
                 for w, got in zip(calls[m::2], calls[m + 1::2])}
        assert exact == {bi: entries[bi] for bi in exact} and bool(exact) == (n == 24)
        rest = [e for bi, block in enumerate(entries) if bi not in exact for e in block]
        want = sorted(e for e in rest if max(e[0] ** 2 * e[1], e[2]) >= 2 ** 53)
        assert 0 < len(want) < len(rest) and calls[:m] == [want]


def test_a_later_escape_raises_the_first_in_which_order_and_builds_nothing(monkeypatch):
    # at (0, 8), z^6 escapes in degree 0 at the section blocks 6 to 10 only: a query raises what
    # the first of them in `which` order raises alone, before it rounds any of its blocks
    model = build_model(0, 8)
    op = monomial(1, (6,), (0,))
    rounded, real = [], spectral._round_congruences
    monkeypatch.setattr(spectral, "_round_congruences",
                        lambda x, *args: rounded.append(len(x)) or real(x, *args))
    texts = set()
    for which in (range(len(model.blocks)), range(len(model.blocks))[::-1], [0, 1, 9, 2, 6]):
        got = _blocks_of_one_query(model, op, 0, which)
        assert isinstance(got, str) and got == _blocks_alone(model, op, 0, which)
        assert not rounded
        texts.add(got)
    assert len(texts) == 2  # block 9 names another pair than block 6
    assert _blocks_of_one_query(model, op, 0, range(6)) == _blocks_alone(model, op, 0, range(6))
    assert rounded == [6]


def test_a_query_tests_only_the_blocks_it_builds(monkeypatch):
    # z^6 escapes only at the section blocks 6 to 10 of (0, 8): a model whose kernel sat in
    # block 0 would build that block alone, so its harmonic supertrace does not escape
    # while its limit supertrace does
    model = build_model(0, 8)
    op = monomial(1, (6,), (0,))
    moved = dataclasses.replace(model, harmonic0=[(0, 0)])
    built = _spy_on_built_blocks(monkeypatch)
    assert harmonic_supertrace(moved, op) == 0.0
    assert built == [(0, [0])]
    with pytest.raises(OperatorEscapeError, match="leaves the square-integrable truncation"):
        limit_supertrace(moved, op, [1.0])
    with pytest.raises(OperatorEscapeError):
        harmonic_supertrace(model, op)


@pytest.mark.parametrize("k", range(4))
def test_the_charged_operators_f_and_e_get_what_each_block_gets_alone(k):
    # F = d/dz and E = z^2 d/dz - k z shift the charge by -1 and +1, so no block pairs a term
    # and every supertrace is 0; each block, and whether it escapes, is the one it is alone
    ops = _queried_operators(k)
    for n in (k + 2, 8, 12):
        model = build_model(k, n)
        for op in (ops["F = d"], ops["E"]):
            for degree, blocks in enumerate((model.blocks, model.forms)):
                assert (_blocks_of_one_query(model, op, degree)
                        == _blocks_alone(model, op, degree, range(len(blocks))))
            assert harmonic_supertrace(model, op) == 0.0
            assert limit_supertrace(model, op, [0.5, 11.0]) == ([0.0, 0.0], 0.0)
