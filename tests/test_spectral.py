"""Tests for the truncated spectral model of O(k) on the sphere."""

import json
import math
import operator
import os
import random
import time
from fractions import Fraction

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
    _charge_pairs,
    _dbar_chi,
    _dbar_star,
    _expand,
    _gram,
    _incidence,
    _operator_blocks,
    _operator_pairings,
    _orthogonal_rows,
    _reduced,
    _round_congruence,
    build_model,
    harmonic_supertrace,
    heat_supertrace,
    limit_supertrace,
    load_spectrum,
    store_spectrum,
)
from hochheat.weyl import WeylElement, d_var, mul, unit, z_var
from oracles import (DivergentIntegralError, _apply_weyl, _congruence, _lift, _moment_block,
                     _pairing, _round_each_entry, add, harmonic0_coordinates, lifted_pairings,
                     mono_integral, monomial, pair_weighted, scale, zero)


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
            alpha = abs(block.pairs[0][0] - block.pairs[0][1])
            gram = _gram(len(block.pairs), alpha, fact)
            for i, (a1, b1) in enumerate(block.pairs):
                for j, (a2, b2) in enumerate(block.pairs):
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


def _block_incidences(k, n, q):
    """Section and form indices of charge q and q + 1, their (M-1)! Grams, D and T."""
    fact = [math.factorial(i) for i in range(2 * n + k + 2)]
    pairs = _charge_pairs(q, n + k, n)
    fpairs = _charge_pairs(q + 1, n + k + 1, n - 1)
    dbar = _incidence([_dbar_chi(a, b, n) for a, b in pairs], fpairs, n + 1)
    star = _incidence([_dbar_star(a, b, n, k) for a, b in fpairs], pairs, n)
    return (pairs, fpairs, _gram(len(pairs), abs(q), fact), _gram(len(fpairs), abs(q + 1), fact),
            dbar, star)


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
            images = [_dbar_chi(a, b, n) for a, b in pairs]
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
    with pytest.raises(OperatorEscapeError):
        _incidence([{(3, 0, 4): 1}], [(0, 0), (1, 1)], 4)
    with pytest.raises(OperatorEscapeError):
        _incidence([{(1, 1, 5): 1}], [(0, 0), (1, 1)], 4)

    def off_by_one(a, b, n_trunc, k):
        # keeps the second term at a = N+k+1, where it would leave the sections
        return {**_dbar_star(a, b, n_trunc, k), (a, b + 1, n_trunc): n_trunc + k + 2 - a}

    monkeypatch.setattr(spectral, "_dbar_star", off_by_one)
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
        mat, scale = _pairing_matrix([_dbar_chi(a, b, n) for a, b in block.pairs], op, k)
        pairing = _round_congruence(block.w, mat, block.norms, scale / block.scale)
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
    mats = _operator_blocks(model, op, degree)
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


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_time_that_is_not_finite_is_refused(t):
    # nan and inf once gave nan with a RuntimeWarning: inf times a zero eigenvalue is nan
    model = build_model(0, 6)
    with pytest.raises(ValueError, match=f"got {t}"):
        heat_supertrace(model, t)
    for grid in ([t], [0.5, t], [t, 1.0, 2.0]):
        with pytest.raises(ValueError, match=f"got {t}"):
            limit_supertrace(model, unit(1), grid)


def test_eigenvalues_are_nonnegative():
    model = build_model(3, 10)
    assert model._flat0.min() >= 0.0
    assert model._flat1.min() >= -1e-12


def _shifted_stiffness(shift, stiffness=spectral._stiffness):
    """`spectral._stiffness` minus shift times the identity: indefinite for shift > 0."""
    def shifted(*args):
        x = stiffness(*args)
        return x - shift * np.eye(len(x))
    return shifted


def test_a_negative_eigenvalue_beyond_tolerance_is_refused(monkeypatch, capsys):
    # shifting what eigh returns would shift its residual alike; shift the matrix instead
    monkeypatch.setattr(spectral, "_stiffness", _shifted_stiffness(1e-6))
    with pytest.raises(IllConditionedGramError, match="negative eigenvalue -1.000e-06 below its "
                                                      "measured error"):
        build_model(1, 8)
    assert main(["spectrum", "--no-cache"]) == 2
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
    store_spectrum(str(tmp_path), model)
    data = load_spectrum(str(tmp_path), 1, 8)
    assert data is not None
    assert data["dim_harmonic0"] == 2
    # the sorted nonzero eigenvalues: l (l + 2) repeated 2 l + 2 times, l = 1..8
    assert len(data["eigs0"]) == len(data["eigs1"]) == sum(2 * l + 2 for l in range(1, 9))
    assert data["eigs0"] == sorted(data["eigs0"]) and abs(data["eigs0"][0] - 3.0) <= 1e-12
    assert load_spectrum(str(tmp_path), 2, 8) is None


def test_spectrum_cache_from_another_version_is_a_miss(tmp_path):
    path = store_spectrum(str(tmp_path), build_model(1, 8))
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["version"] == spectral.__version__
    data["version"] = "0.1.0"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    assert load_spectrum(str(tmp_path), 1, 8) is None


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
    assert len(closed) == size
    for j, (row, ref) in enumerate(zip(closed, rows)):
        ref = ref[size:2 * size]
        assert len(row) == j + 1 and not any(ref[j + 1:])
        # row * ref[j] == ref * row[j], with both leading coefficients positive
        assert row[j] > 0 and ref[j] > 0
        assert [v * ref[j] for v in row] == [v * row[j] for v in ref[:j + 1]]
    wg = [[sum(map(operator.mul, wi, col)) for col in zip(*gram)] for wi in closed]
    wgwt = [[sum(map(operator.mul, u, wj)) for wj in closed] for u in wg]
    assert all(wgwt[i][j] == 0 if i != j else wgwt[i][i] > 0
               for i in range(size) for j in range(size))


@pytest.mark.parametrize("k, n", [(0, 6), (1, 10), (3, 12), (0, 14), (2, 8),
                                  pytest.param(0, spectral.MAX_TRUNC, marks=pytest.mark.large)])
def test_closed_form_path_is_bit_identical_to_the_bareiss_oracle(monkeypatch, k, n):
    solved = []  # the rounded congruence of each block, in the order the blocks are assembled
    real_stiffness = spectral._stiffness

    def recording(*args):
        solved.append(real_stiffness(*args))
        return solved[-1]

    monkeypatch.setattr(spectral, "_stiffness", recording)
    model = build_model(k, n)
    # one degree-0 and one degree-1 block per charge, assembled in that order; each
    # stiffness is the plain congruence of its own incidence, D G1 D^T or T G0 T^T,
    # and (M-1)! scales the Gram and the stiffness alike
    assert len(solved) == 2 * len(model.blocks)
    for q, got0, got1 in zip(range(-n, n + k + 1), solved[::2], solved[1::2]):
        _, _, g0, g1, dbar, star = _block_incidences(k, n, q)
        for got, gram, incidence, other in ((got0, g0, dbar, g1), (got1, g1, star, g0)):
            ref = _oracle_congruence(gram, _congruence(incidence, other), Fraction(1))
            assert got.tobytes() == ref.tobytes()
    zd = mul(z_var(1, 1), d_var(1, 1))
    fact = [math.factorial(i) for i in range(2 * n + k + 2)]
    for degree, blocks in enumerate((model.blocks, model.forms)):
        got = _operator_blocks(model, zd, degree)
        which = range(len(blocks))
        for bi, (mat, scale) in zip(which, _operator_pairings(model, zd, degree, which)):
            pairs = blocks[bi].pairs
            gram = _gram(len(pairs), abs(pairs[0][0] - pairs[0][1]), fact)
            ref = _oracle_congruence(gram, mat, scale * fact[-1])
            assert got[bi].tobytes() == ref.tobytes()


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


@pytest.mark.parametrize("k, n", [(0, 8), (1, 10), (3, 12)])
def test_one_eigensolve_per_block_size(monkeypatch, k, n):
    stacks, real_eigh = [], np.linalg.eigh

    def recording(a):
        stacks.append(a.shape)
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    model = build_model(k, n)
    sizes = [len(b.pairs) for b in model.blocks + model.forms]
    assert sorted(shape[-1] for shape in stacks) == sorted(set(sizes))
    assert {shape[-1]: shape[0] for shape in stacks} == {s: sizes.count(s) for s in sizes}


def test_certificate_is_taken_once_per_alpha(monkeypatch):
    # degree 0 and degree 1 share M, and every block of one alpha uses a prefix of its rows
    calls = []

    def recording(gram, w):
        calls.append(len(w))
        return _certify(gram, w)

    monkeypatch.setattr(spectral, "_certify", recording)
    k, n = 2, 7
    model = build_model(k, n)
    alphas = {abs(b.pairs[0][0] - b.pairs[0][1]) for b in model.blocks + model.forms}
    assert len(calls) == len(alphas) < len(model.blocks) + len(model.forms)


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
    assert main(["spectrum", "--no-cache"]) == 2
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
        bi = max(range(len(blocks)), key=lambda i: len(blocks[i].pairs))
        pairs = blocks[bi].pairs
        gram = [[mono_integral(a + b2, 2 * n + k + 2) for (_, b2) in pairs] for (a, _) in pairs]
        funcs = [basis(a, b, n) for a, b in pairs]
        got = _operator_blocks(model, zd, degree)[bi]
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
    pairs = (model.blocks, model.forms)[degree][bi].pairs
    return _pairing_matrix([basis(a, b, model.trunc) for a, b in pairs], op, extra)


def _moments(m):
    return [math.factorial(s) * math.factorial(m - s - 2) for s in range(m - 1)]


def _outcome(assemble):
    """The assembled blocks, or the class of the error the assembly raised."""
    try:
        return assemble()
    except (OperatorEscapeError, DivergentIntegralError) as exc:
        return type(exc)


def _both_assemblies(model, op, degree):
    which = range(len((model.blocks, model.forms)[degree]))
    return (_outcome(lambda: list(_operator_pairings(model, op, degree, which))),
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
            _operator_blocks(model, z_var(1, n=2), degree)
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
    return (_blocks_or_refusal(lambda: _operator_pairings(model, op, degree, which)),
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
        _check_integrable({(2, 1): [1]}, 1, 0, 3)
    with pytest.raises(OperatorEscapeError, match="radial degree 4, weight 3"):
        _moment_block([_lift({(3, 1, 1): 1}, 1)], [(0, 0)], _moments(3))
    _check_integrable({(2, 1): [0], (2, 0): [5]}, 1, 0, 3)
    # the first escaping pair in row-major order is named
    with pytest.raises(OperatorEscapeError, match="image 1 paired with basis function 1 .*"
                                                  r"\(radial degree 6, weight 4\)"):
        _check_integrable({(2, 0): [0, 1], (0, 1): [0, 1]}, 2, 0, 4)
    # a neutral term is not read: in an admitted block none can diverge
    _check_integrable({(0, 2): [1]}, 1, 0, 3)
    _check_integrable({}, 1, 0, 3)


def test_no_neutral_pairing_of_an_admitted_block_can_diverge():
    # _check_integrable reads only charged terms because alpha + 2 (s-1) <= M - 2 in every
    # block, in both degrees, of every model build_model admits; the bound is attained
    worst, models = -math.inf, 0
    for k in range(spectral.MAX_TRUNC - 1):
        for n in range(k + 2, spectral.MAX_TRUNC + 1):
            models += 1
            top = 2 * n + k + 2 - 2  # M - 2
            for q in range(-n, n + k + 1):
                for alpha, size in ((abs(q), len(_charge_pairs(q, n + k, n))),
                                    (abs(q + 1), len(_charge_pairs(q + 1, n + k + 1, n - 1)))):
                    worst = max(worst, alpha + 2 * (size - 1) - top)
    assert models == 780 and worst == 0


def test_harmonic_supertrace_builds_only_the_kernel_blocks():
    model = build_model(0, 14)
    harmonic_supertrace(model, unit(1))
    kernel_blocks = {bi for bi, _ in model.harmonic0}
    assert len(kernel_blocks) == model.k + 1 < len(model.blocks)
    assert set(model._op_cache) == {(0, unit(1), bi) for bi in kernel_blocks}
    # for k >= 0 the degree-1 kernel is empty, so no degree-1 block is built
    assert not model.harmonic1 and all(degree == 0 for degree, _, _ in model._op_cache)
    grid = [0.5, 2.0, 11.0]
    fresh = build_model(0, 14)
    assert limit_supertrace(model, unit(1), grid) == limit_supertrace(fresh, unit(1), grid)
    assert len(model._op_cache) == len(model.blocks) + len(model.forms)
