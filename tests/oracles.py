"""Independent oracles that the library is checked against.

Nothing in the program calls these; each computes a quantity the library
also computes, by a route that shares none of its shortcuts:

* `_pairing`, the generic Hermitian pairing of weighted chart functions, and
  its wrappers `mono_integral` and `pair_weighted`, against the closed-form
  Grams and the operator pairings of `hochheat.spectral`;
* `lifted_pairings`, the operator pairings built term by term: each image
  applied to one basis function (`_apply_weyl`), lifted to one power of
  1+|z|^2 (`_lift`) and paired with one moment sum per entry
  (`_moment_block`), against their closed form, refusals included;
* `_round_each_entry`, the congruence rounded one entry at a time by
  `_scaled_root`, against the batched rounding of
  `hochheat.spectral._round_congruences` and the stiffness;
* `_round_congruence` and `_machine_congruence`, the operator congruence of
  one block formed and rounded on its own, in machine words where a float
  bound proves them exact, against the one array pass over every block of
  a query in `hochheat.spectral._round_congruences`;
* `_congruence`, the stiffness R G R^T of an incidence R as one sum per
  entry, against the rows the model build expands in the other degree's
  certified basis;
* `charge_pairs`, the indices (a, b) of one charge block picked out of the
  whole truncation box, against the closed-form layout of
  `hochheat.spectral._layout`, with `pairs_of` to read a model block's
  indices back from its charge and size;
* `incidence_by_images`, the d-bar and d-bar* incidences looked up term by
  term from the images `dbar_chi` and `dbar_star` of single basis
  functions, against the closed-form arrays of
  `hochheat.spectral._incidence`;
* `_expand`, the exact expansion of one row in triangular rows, peeled one
  row at a time, against the batched expansion of every row in
  `hochheat.spectral._peel`;
* `harmonic0_coordinates`, the kernel vectors of a model back-solved to the
  (a, b) basis, against the holomorphic sections they must be;
* `apply`, the action of a Weyl element on an ordinary polynomial, against
  the reordering closed form of `hochheat.weyl.mul`, with `commutator`,
  `disjoint_embed`, `monomial`, `add`, `scale` and `zero` to build the inputs;
* `key_product`, the product of two monomials on their exponent tuples, one
  variable at a time, against the packed-key kernel
  `hochheat.weyl.mono_product`, and the product of the chain oracles;
* `mono_product_by_variables`, the packed-key product reordered one
  variable at a time, against the terms and the term order of
  `hochheat.weyl.mono_product`, which reads its contractions from a table;
* `normalized_omega_by_inversions`, the alternating permutation sum with
  each sign counted from its permutation's inversions, against the
  sign-carrying closed form `hochheat.chains.normalized_omega_formula`;
* `parse_element`, the general reader of the element text format, which
  multiplies its factors out in the algebra, against `format_element`,
  `parse_monomial` and the chain JSON reader;
* `symbol_by_words`, the symbol summed word by word over the products of
  the slots' differentials, against the array kernel
  `hochheat.forms.hkr_symbol`;
* `draw_element`, `draw_chain` and `draw_column_vector`, the seeded samples
  built through `Fraction` coefficients and the validating constructors,
  against the generators of `hochheat.randomgen`, which draw straight into
  packed keys;
* `todd_density`, `integrate_todd_p1`, `volume_density` and
  `transformed_density`, densities whose integrals over the chart are
  known, and `integrate_product`, the integral over a product of spheres
  by Fubini.

It also keeps the readers that only the tests need: `report_from_json`,
`column` of a bicomplex vector and `form_from_terms`, and `_reduced`, which
divides an integer matrix given as lists by the gcd of its entries; and
`dbar_chi_without_its_second_term`, a broken section incidence that more
than one test runs the model build under.

The tests import this module as ``from oracles import ...``.
"""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction
from itertools import chain, permutations, product
from math import comb, factorial
from numbers import Rational
from operator import mul as _times
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from hochheat import spectral
from hochheat.chains import TensorChain, TsyganColumnVector
from hochheat.chern import ChartDensity, QuadratureResult, chern_density, integrate_chart
from hochheat.forms import EvenExps, FormKey, PolyForm
from hochheat.report import CheckResult, VerificationReport
from hochheat.spectral import OperatorEscapeError, SpectralModel
from hochheat.weyl import (FIELD_BITS, MAX_DEGREE, MAX_VARIABLES, Exponents, Key, WeylElement,
                           d_var, mul, pack, unit, unpack, z_var)

# ---------------------------------------------------------------------------
# spectral: the generic pairing kernel
# ---------------------------------------------------------------------------

#: a pairing value numerator / (m - 1)! as (numerator, m)
Pairing = Tuple[int, int]

#: weighted chart function: (z exponent, zbar exponent, denominator power)
#: -> rational coefficient (int or Fraction), denoting
#: sum c * z^a zbar^b (1+|z|^2)^(-g)
WeightedFn = Dict[Tuple[int, int, int], Rational]


def _reduced(mat: List[List[int]], scale: Fraction) -> Tuple[List[List[int]], Fraction]:
    """scale * mat as an integer matrix divided by the gcd of its entries, and the new scale."""
    g = math.gcd(*chain.from_iterable(mat))
    if g < 2:
        return mat, scale * g
    return [[v // g for v in row] for row in mat], scale * g


class DivergentIntegralError(ArithmeticError):
    """A requested closed-form integral does not converge.

    Only the generic kernels here can meet one: no pairing of a block that
    `hochheat.spectral.build_model` admits diverges.
    """


def _lift(f: WeightedFn, power: int) -> Dict[Tuple[int, int], int]:
    """The numerator of f over (1+|z|^2)^power >= every power in f, as {(a, b): c}."""
    flat: Dict[Tuple[int, int], int] = {}
    for (a, b, g), c in f.items():
        lift = power - g
        for j in range(lift + 1):
            key = (a + j, b + j)
            flat[key] = flat.get(key, 0) + c * comb(lift, j)
    return {key: c for key, c in flat.items() if c}


def _pairing(f: WeightedFn, g: WeightedFn, extra: int) -> Pairing:
    """Hermitian pairing of integer-coefficient functions, as an exact integer kernel.

    Returns (numerator, m) with <f, g> = numerator / (m-1)!, the pairing
    taken with an additional weight (1+|z|^2)^(-extra).  The product is
    brought to a common denominator before integrating so that divergent
    pieces that cancel algebraically are recognized; any surviving
    non-integrable term raises.
    """
    prod: Dict[Tuple[int, int, int], int] = {}
    for (a1, b1, g1), c1 in f.items():
        for (a2, b2, g2), c2 in g.items():
            key = (a1 + b2, b1 + a2, g1 + g2)
            prod[key] = prod.get(key, 0) + c1 * c2
    prod = {key: c for key, c in prod.items() if c}
    if not prod:
        return 0, 1
    gmax = max(gk for (_, _, gk) in prod)
    flat = _lift(prod, gmax)
    m = gmax + extra
    # angular components with nonzero net charge integrate to zero, but the
    # leading radial power must still be absolutely integrable
    for zp, bp in flat:
        if zp != bp and zp + bp > 2 * m - 3:
            raise OperatorEscapeError(
                "pairing leaves the square-integrable truncation "
                f"(angular charge {zp - bp}, radial degree {zp + bp}, weight {m})"
            )
    total = 0
    for (zp, bp), c in flat.items():
        if zp != bp:
            continue
        if m < zp + 2:
            raise DivergentIntegralError(
                f"integral of |z|^{2 * zp} against (1+|z|^2)^(-{m}) diverges")
        total += c * factorial(zp) * factorial(m - zp - 2)
    return total, m


def _as_fraction(value: Pairing) -> Fraction:
    num, m = value
    return Fraction(num, factorial(m - 1)) if num else Fraction(0)


def _cleared(f: WeightedFn) -> Tuple[Dict[Tuple[int, int, int], int], int]:
    """f times the lcm of its coefficient denominators, and that lcm."""
    den = math.lcm(*(Fraction(c).denominator for c in f.values()))
    return {key: int(c * den) for key, c in f.items()}, den


def mono_integral(s: int, m: int) -> Fraction:
    """integral z^s zbar^s (1+|z|^2)^(-m) (1/pi) dx dy, exact."""
    mono = {(s, 0, 0): 1}
    return _as_fraction(_pairing(mono, mono, m))


def pair_weighted(f: WeightedFn, g: WeightedFn, extra: int) -> Fraction:
    """Hermitian pairing <f, g> with an additional weight (1+|z|^2)^(-extra), exact."""
    fi, df = _cleared(f)
    gi, dg = _cleared(g)
    return _as_fraction(_pairing(fi, gi, extra)) / (df * dg)


def _accumulate(acc: Dict[tuple, Fraction], key: tuple, c) -> None:
    """acc[key] += c, dropping the key when the sum is zero."""
    tot = acc.get(key, 0) + c
    if tot:
        acc[key] = tot
    elif key in acc:
        del acc[key]


def _apply_weyl(op: WeylElement, f: WeightedFn, den: int = 1) -> WeightedFn:
    """Act with den * op, for a one-variable operator element, on a weighted chart function.

    d/dz (z^a zbar^b (1+|z|^2)^(-g)) = a z^(a-1) zbar^b (1+|z|^2)^(-g)
                                       - g z^a zbar^(b+1) (1+|z|^2)^(-g-1).
    Each power of d/dz is taken once; with den clearing the coefficient
    denominators of op, an integer f has an integer image.
    """
    if op.n != 1:
        raise OperatorEscapeError("operators on the model must be one-variable elements")
    derivs = [f]  # derivs[e] = (d/dz)^e f
    out: WeightedFn = {}
    for ((z_exp,), (d_exp,)), coeff in op.terms:
        c_op = coeff * den
        c_op = c_op.numerator if c_op.denominator == 1 else c_op
        while len(derivs) <= d_exp:
            nxt: WeightedFn = {}
            for (a, b, g), c in derivs[-1].items():
                if a:
                    _accumulate(nxt, (a - 1, b, g), c * a)
                if g:
                    _accumulate(nxt, (a, b + 1, g + 1), -c * g)
            derivs.append(nxt)
        for (a, b, g), c in derivs[d_exp].items():
            _accumulate(out, (a + z_exp, b, g), c * c_op)
    return out


def _moment_block(images: List[Dict[Tuple[int, int], int]], pairs: List[Tuple[int, int]],
                  mom: List[int]) -> List[List[int]]:
    """(m-1)! <image_j, f_i> for lifted images and f_i = z^a_i zbar^b_i, (a_i, b_i) in pairs.

    Given mom[s] = s! (m-s-2)! and one charge q = a_i - b_i, entry (i, j) is
    sum c mom[a + b_i] over the charge-q terms c z^a zbar^b of image j.  A
    pair escapes (diverges) when the top degree of the image's other-charge
    (charge-q) terms plus a_i + b_i exceeds 2m - 3; pairs are checked in
    row-major order, as `_pairing` would check them.
    """
    m = len(mom) + 1
    q = pairs[0][0] - pairs[0][1]

    def top(keys: Iterable[Tuple[int, int]]) -> float:
        return max((a + b for a, b in keys), default=-math.inf)

    charged = [top(key for key in img if key[0] - key[1] != q) for img in images]
    neutral = [top(key for key in img if key[0] - key[1] == q) for img in images]
    for i, (a_i, b_i) in enumerate(pairs):
        for j, (e, v) in enumerate(zip(charged, neutral)):
            if e + a_i + b_i > 2 * m - 3:
                raise OperatorEscapeError(
                    f"image {j} paired with basis function {i} leaves the square-integrable "
                    f"truncation (radial degree {e + a_i + b_i}, weight {m})")
            if v + a_i + b_i > 2 * m - 3:
                raise DivergentIntegralError(
                    f"image {j} paired with basis function {i} diverges "
                    f"(radial degree {v + a_i + b_i}, weight {m})")
    rows = [[(a, c) for (a, b), c in img.items() if a - b == q] for img in images]
    return [[sum(c * mom[a + b_i] for a, c in row) for row in rows] for _, b_i in pairs]


def lifted_pairings(model: SpectralModel, op: WeylElement, degree: int,
                    which: Iterable[int]) -> Iterator[Tuple[List[List[int]], Fraction]]:
    """What `hochheat.spectral._operator_pairings` yields, one image at a time.

    Each image den * op f_j is built as a dict of terms, lifted to the
    largest power of 1+|z|^2 the operator reaches and paired by one moment
    sum per entry, so a cancelled term drops out of the dict before its
    degree is read.
    """
    n, k = model.trunc, model.k
    den = math.lcm(*(c.denominator for _, c in op.terms))
    power, extra = (n, k + 2) if degree == 0 else (n + 1, k)
    top = power + max((d for ((_,), (d,)), _ in op.terms), default=0)
    m = top + power + extra
    mom = [factorial(s) * factorial(m - s - 2) for s in range(m - 1)]
    unit = Fraction(1, den * factorial(m - 1))
    blocks = (model.blocks, model.forms)[degree]
    for bi in which:
        pairs = pairs_of(blocks[bi])
        images = [_lift(_apply_weyl(op, {(a, b, power): 1}, den), top) for a, b in pairs]
        yield _reduced(_moment_block(images, pairs, mom), unit)


def _scaled_root(x: int, num: int, den: int) -> float:
    """x * sqrt(num / den) for integers num, den > 0, as a float within one ulp.

    The radicand x^2 num / den leaves exact arithmetic as one correctly
    rounded int/int quotient, so no intermediate overflows.
    """
    root = math.sqrt(x * x * num / den)
    return -root if x < 0 else root


def dbar_chi(a: int, b: int, n_trunc: int) -> WeightedFn:
    """Coefficient of dzbar in dbar applied to chi_(a,b)."""
    out: WeightedFn = {}
    if b:
        out[(a, b - 1, n_trunc + 1)] = b
    if b != n_trunc:
        out[(a + 1, b, n_trunc + 1)] = b - n_trunc
    return out


def dbar_star(a: int, b: int, n_trunc: int, k: int) -> WeightedFn:
    """dbar* of psi_(a,b) = z^a zbar^b (1+|z|^2)^(-N-1) dzbar, over the sections chi.

    The adjoint of dbar is g dzbar -> -(1+|z|^2)^(k+2) d/dz ((1+|z|^2)^(-k) g).
    """
    out: WeightedFn = {}
    if a:
        out[(a - 1, b, n_trunc)] = -a
    if a != n_trunc + k + 1:
        out[(a, b + 1, n_trunc)] = n_trunc + k + 1 - a
    return out


def charge_pairs(q: int, a_max: int, b_max: int) -> List[Tuple[int, int]]:
    """The indices (a, b) with a - b = q, 0 <= a <= a_max and 0 <= b <= b_max, by ascending b.

    Block q of the sections for (a_max, b_max) = (N+k, N), and of the forms
    for (N+k+1, N-1), each index tested against the box one at a time.
    """
    return [(b + q, b) for b in range(b_max + 1) if 0 <= b + q <= a_max]


def pairs_of(block) -> List[Tuple[int, int]]:
    """The indices (a, b) of a model block's basis: z^(b+c) zbar^b for b = max(0, -c), ...,
    one for each of its rows, c its charge."""
    lo = max(0, -block.charge)
    return [(b + block.charge, b) for b in range(lo, lo + len(block.w))]


def incidence_by_images(k: int, n: int, degree: int) -> List[Dict[int, int]]:
    """The incidence of dbar (degree 0) or dbar* (degree 1), one {column: coefficient} per row.

    Each basis function's image (`dbar_chi` or `dbar_star`) is looked up
    term by term in the other degree's block of the same charge pair; the
    rows run over the blocks in charge order.
    """
    out = []
    for q in range(-n, n + k + 1):
        pairs, fpairs = charge_pairs(q, n + k, n), charge_pairs(q + 1, n + k + 1, n - 1)
        if degree == 0:
            images, other, power = [dbar_chi(a, b, n) for a, b in pairs], fpairs, n + 1
        else:
            images, other, power = [dbar_star(a, b, n, k) for a, b in fpairs], pairs, n
        index = {(a, b, power): j for j, (a, b) in enumerate(other)}
        out += [{index[key]: c for key, c in img.items()} for img in images]
    return out


def _expand(u: List[int], w: List[List[int]]) -> Tuple[int, Dict[int, int]]:
    """(den, c) with den > 0 and den * u = sum of c[m] * w[m] exactly.

    w is lower triangular (row m has m+1 entries; any past them are not
    read) with a nonzero diagonal and u has len(w) entries, so the rows are
    peeled off from the last column down and nothing is left over; den
    grows only when a diagonal entry does not divide what is left in its
    column.
    """
    rest, den, c = list(u), 1, {}
    for m in range(len(w) - 1, -1, -1):
        if not rest[m]:
            continue
        wm = w[m]
        f = abs(wm[m]) // math.gcd(rest[m], wm[m])
        if f != 1:
            den *= f
            rest = [v * f for v in rest[:m + 1]]
            c = {key: v * f for key, v in c.items()}
        c[m] = t = rest[m] // wm[m]
        for j in range(m + 1):
            rest[j] -= t * wm[j]
    return den, c


def dbar_chi_without_its_second_term(k: int, n: int, degree: int, incidence=spectral._incidence
                                     ) -> Tuple[np.ndarray, np.ndarray]:
    """`spectral._incidence` with dbar chi_(a,b) missing its term (b - N) psi_(a+1,b).

    Degree 0's second coefficient is zeroed.  Its rows in the form basis are
    no longer spanned by two certified rows: the model build expands them in
    up to N steps, and rows far apart share a certified row.
    """
    col, coef = incidence(k, n, degree)
    if degree == 0:
        coef = coef.copy()
        coef[:, 1] = 0
    return col, coef


def doubled_dbar_star(k: int, n: int, degree: int, incidence=spectral._incidence
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """`spectral._incidence` with dbar*'s first coefficient, -a of -a chi_(a-1,b), doubled.

    Degree 1's rows in the section basis then take up to N + 1 expansion steps.
    """
    col, coef = incidence(k, n, degree)
    return col, coef * [2, 1] if degree == 1 else coef


def _round_each_entry(v: List[List[int]], w: List[List[int]], norms: Sequence[int],
                      scale: Fraction) -> np.ndarray:
    """float(scale * X_ij / sqrt(p_i p_j)), X = V W^T, rounded one entry at a time.

    Given V = W A with W G W^T = diag(norms), p_i = norms[i], this is the
    congruence S L^-1 A L^-T S, S = D^(-1/2), for G = L D L^T.
    """
    s = len(w)
    out = np.zeros((s, s))
    num, den = scale.numerator ** 2, scale.denominator ** 2
    for i in range(s):
        for j in range(s):
            out[i, j] = _scaled_root(sum(map(_times, v[i], w[j])), num,
                                     den * norms[i] * norms[j])
    return out


def _machine_congruence(w: np.ndarray, a: np.ndarray) -> Optional[np.ndarray]:
    """X = W A W^T of one block in int64 where a float error bound proves that exact, else None.

    Only int64 W and A qualify, made so only below 2^52: exact in float64.
    By |fl(BC) - BC| <= g |B||C|, g = s u / (1 - s u), u = 2^-53 (Higham,
    sec. 3.5), for both products, |X| < |Xh| + 4 s u Bh with
    Xh = fl(fl(W A) W^T) and Bh = fl(|W||A||W|^T); below 2^62, the uint64
    product, exact modulo 2^64, read as int64 is X itself.
    """
    if w.dtype != np.int64 or a.dtype != np.int64:
        return None
    wf, af = w.astype(float), a.astype(float)
    bound = np.abs(wf) @ np.abs(af) @ np.abs(wf).T
    if not (np.abs(wf @ af @ wf.T) + 4 * len(w) * 2.0 ** -53 * bound).max() < 2.0 ** 62:
        return None
    wu = w.astype(np.uint64)
    return (wu @ a.astype(np.uint64) @ wu.T).view(np.int64)


def _round_congruence(w: np.ndarray, mat: np.ndarray, norms: Sequence[int],
                      scale: Fraction) -> np.ndarray:
    """float(scale * S L^-1 A L^-T S), S = D^(-1/2), of one block, formed and rounded alone.

    W is lower triangular with W G W^T = diag(norms); W and A are integer
    arrays, int64 or Python integers.  X = W A W^T is exact: in machine words
    where `_machine_congruence` proves it, otherwise in Python integers over
    W's lower triangle.  Each radicand X_ij^2 scale^2 / (p_i p_j),
    p_i = norms[i], is one correctly rounded Python int / int quotient.
    """
    x = _machine_congruence(w, mat)
    if x is None:
        s = len(w)
        w, a = w.astype(object), mat.astype(object)
        v, x = np.empty((s, s), dtype=object), np.empty((s, s), dtype=object)
        for i in range(s):  # V = W A, then X = V W^T, each over W's lower triangle
            v[i] = w[i, :i + 1].dot(a[:i + 1])
        for j in range(s):
            x[:, j] = v[:, :j + 1].dot(w[j, :j + 1])
    p = np.array(norms, dtype=object)
    radicand = x.astype(object) ** 2 * scale.numerator ** 2 / (
        (p * scale.denominator ** 2)[:, None] * p)
    root = np.sqrt(radicand.astype(float))
    return np.where(x < 0, -root, root)


def _congruence(rows: List[Dict[int, int]], gram: List[List[int]]) -> List[List[int]]:
    """R G R^T for a sparse integer R given as one {column: coefficient} dict per row.

    G is symmetric, so is the product: the lower triangle is summed and mirrored.
    """
    out = [[0] * len(rows) for _ in rows]
    for i, ri in enumerate(rows):
        for j, rj in enumerate(rows[:i + 1]):
            out[i][j] = out[j][i] = sum(c * d * gram[r][s]
                                        for r, c in ri.items() for s, d in rj.items())
    return out


def harmonic0_coordinates(model: SpectralModel) -> List[Dict[Tuple[int, int], float]]:
    """Numerical kernel vectors of a model as coordinates over the (a, b) basis.

    The coordinates are R^T y for a reduced eigenvector y, with
    R = D^(-1/2) L^-1 = diag(1 / sqrt(scale norms[j])) W rounded once per
    entry, W the block's lower triangular rows.
    """
    out = []
    for bi, col in model.harmonic0:
        block = model.blocks[bi]
        sc = block.scale
        r = np.zeros((len(block.w), len(block.w)))
        for j, row in enumerate(block.w.tolist()):
            r[j, :j + 1] = [_scaled_root(v, sc.denominator, sc.numerator * block.norms[j])
                            for v in row[:j + 1]]
        x = r.T @ block.vecs[:, col]
        out.append({pair: x[i] for i, pair in enumerate(pairs_of(block))})
    return out


# ---------------------------------------------------------------------------
# weyl: the polynomial action
# ---------------------------------------------------------------------------

#: plain commutative polynomial in z1..zn: exponent vector -> coefficient
Polynomial = Dict[Exponents, Fraction]


def zero(n: int) -> WeylElement:
    return WeylElement(n, (), 1)


def add(a: WeylElement, b: WeylElement) -> WeylElement:
    if a.n != b.n:
        raise ValueError("cannot add elements with different variable counts")
    return WeylElement.from_terms(a.n, a.terms + b.terms)


def scale(c, a: WeylElement) -> WeylElement:
    c = Fraction(c)
    return WeylElement.from_terms(a.n, ((m, c * k) for m, k in a.terms))


def monomial(n: int, z_exp: Exponents, d_exp: Exponents, coeff=1) -> WeylElement:
    return WeylElement.from_terms(n, [((z_exp, d_exp), Fraction(coeff))])


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    return add(mul(a, b), scale(-1, mul(b, a)))


def apply(a: WeylElement, p: Mapping[Exponents, Fraction]) -> Polynomial:
    """Act with a on a polynomial in z1..zn (the differential-operator action).

    This is the independent oracle for the reordering rule: the action of
    z^p d^q is defined directly by falling factorials, so
    apply(mul(a, b), f) == apply(a, apply(b, f)) exercises `mul` without
    assuming its closed form.
    """
    out: Polynomial = {}
    for (z_exp, d_exp), coeff in a.terms:
        for exps, pc in p.items():
            if len(exps) != a.n:
                raise ValueError("polynomial arity does not match element")
            c = coeff * pc
            ok = True
            new = []
            for i in range(a.n):
                q = d_exp[i]
                m = exps[i]
                if q > m:
                    ok = False
                    break
                for r in range(q):
                    c *= m - r
                new.append(m - q + z_exp[i])
            if not ok or not c:
                continue
            key = tuple(new)
            tot = out.get(key, Fraction(0)) + c
            if tot:
                out[key] = tot
            elif key in out:
                del out[key]
    return out


def key_product(a: Key, b: Key) -> List[Tuple[Key, int]]:
    """Expand (z^p d^q)(z^r d^s), keys (z_exp, d_exp), into (key, coefficient) terms.

    Per variable, d^q z^r = sum_j C(q,j) C(r,j) j! z^(r-j) d^(q-j), and the
    one-variable sums multiply out over the variables.
    """
    terms = [((), (), 1)]
    for p, q, r, s in zip(a[0], a[1], b[0], b[1]):
        terms = [(z + (p + r - j,), d + (q + s - j,), c * comb(q, j) * comb(r, j) * factorial(j))
                 for z, d, c in terms for j in range(min(q, r) + 1)]
    return [((z, d), c) for z, d, c in terms]


def mono_product_by_variables(a: int, b: int, n: int) -> Tuple[Tuple[int, int], ...]:
    """The (packed key, coefficient) terms of the product of packed keys a and b in n variables.

    The key sum a + b, reordered one variable at a time from n down to 1:
    a contraction of j in a variable takes j from its z and d fields of
    every term so far, j = 0 first, with coefficient C(q,j) C(r,j) j! for
    the d exponent q of a and the z exponent r of b.
    """
    half, mask = n * FIELD_BITS, (1 << FIELD_BITS) - 1
    terms = [(a + b, 1)]
    for shift in range(0, half, FIELD_BITS):  # variable n first, the least significant field
        q, r = a >> shift & mask, b >> (half + shift) & mask
        step = (1 << (half + shift)) | (1 << shift)
        terms = [(key - j * step, c * comb(q, j) * comb(r, j) * factorial(j))
                 for key, c in terms for j in range(min(q, r) + 1)]
    return tuple(terms)


def disjoint_embed(a: WeylElement, offset: int, total: int) -> WeylElement:
    """Re-index a into the algebra on `total` variables, shifting by `offset`."""
    if offset < 0 or a.n + offset > total:
        raise ValueError("embedding does not fit in target algebra")
    pad_l = (0,) * offset
    pad_r = (0,) * (total - a.n - offset)
    return WeylElement.from_terms(total, (((pad_l + z + pad_r, pad_l + d + pad_r), c)
                                          for (z, d), c in a.terms))


# ---------------------------------------------------------------------------
# weyl: the general text reader, "3/2*z1^2*d1 + 1", "-z2 + 2/3", "0"
# ---------------------------------------------------------------------------

# a nonzero denominator is part of the grammar, so "3/0" is a malformed factor
_FACTOR_RE = re.compile(r"^(?:(?P<num>\d+(?:/0*[1-9]\d*)?)|(?P<gen>[zd])(?P<idx>\d+)(?:\^(?P<pow>\d+))?)$")
_SIGN_RE = re.compile(r"\s*([+-])\s*")

#: no product in a term may exceed MAX_TERMS monomials
MAX_TERMS = 1024


def normalized_omega_by_inversions(n: int) -> TensorChain:
    """sum over permutations sigma of the 2n interior slots of sgn(sigma)
    1 (x) sigma(d1 (x) z1 (x) ... (x) dn (x) zn), sgn from the inversion count."""
    letters = [pack(el.terms[0][0]) for i in range(1, n + 1) for el in (d_var(i, n), z_var(i, n))]
    words = {}
    for perm in permutations(range(2 * n)):
        inv = sum(1 for i in range(2 * n) for j in range(i + 1, 2 * n) if perm[i] > perm[j])
        # distinct letters give distinct words, so nothing merges
        words[(0,) + tuple(letters[p] for p in perm)] = -1 if inv % 2 else 1
    return TensorChain(n, words, 1)


def parse_element(text: str, n: int | None = None) -> WeylElement:
    """Parse the text format.  If n is omitted, the highest index seen is used.

    Factors within a term are multiplied left to right in the algebra, so
    "z1*d1" is the normal-ordered monomial while "d1*z1" expands to
    z1*d1 + 1.  Terms are joined by single signs and only the first term
    may carry a sign of its own; any other input raises `ValueError`.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty element string")
    indices = [int(i) for i in re.findall(r"[zd](\d+)", s)]
    if n is None:
        n = max(indices + [1])
    if not 1 <= n <= MAX_VARIABLES:
        raise ValueError(f"element {text!r} needs 1 <= n <= {MAX_VARIABLES}, got n={n}")
    if not all(1 <= i <= n for i in indices):
        raise ValueError(f"element {text!r} needs variable indices in 1..n with n={n}")
    # term, sign, term, ...; a leading sign leaves an empty first piece
    pieces = _SIGN_RE.split(s)
    pieces = pieces[1:] if not pieces[0] and len(pieces) > 1 else ["+"] + pieces
    none = (0,) * n
    total = zero(n)
    for sign, body in zip(pieces[0::2], pieces[1::2]):
        coeff = Fraction(1 if sign == "+" else -1)
        term = None  # the product of the generator factors so far
        degree = 0
        for f in body.split("*"):
            m = _FACTOR_RE.match(f.strip())
            if not m:
                raise ValueError(f"cannot parse factor {f.strip()!r} in {text!r}")
            if m.group("num"):
                coeff *= Fraction(m.group("num"))
                continue
            i, power = int(m.group("idx")) - 1, int(m.group("pow") or 1)
            degree += power
            if degree > MAX_DEGREE:
                raise ValueError(f"term {body!r} in {text!r} has degree above {MAX_DEGREE}")
            # the regex has checked the factor, so the monic generator power is built as is
            e = tuple(power if j == i else 0 for j in range(n))
            gen = WeylElement.from_terms(n, [((e, none) if m.group("gen") == "z" else (none, e), 1)])
            if term is None:
                term = gen
                continue
            # a product with g^power turns each monomial into at most power + 1
            if len(term.terms) * (power + 1) > MAX_TERMS:
                raise ValueError(f"term {body!r} in {text!r} expands beyond {MAX_TERMS} monomials")
            term = mul(term, gen)
        term = unit(n) if term is None else term
        total = add(total, term if coeff == 1 else scale(coeff, term))
    return total


# ---------------------------------------------------------------------------
# forms: the symbol word by word
# ---------------------------------------------------------------------------


def _d_symbol(exps: EvenExps, n: int) -> Tuple[Tuple[int, EvenExps, int], ...]:
    """d(sigma) for sigma = z^exps[:n] y^exps[n:], as (one-form index, lowered
    exponents, factor) entries."""
    return tuple((2 * i if i < n else 2 * (i - n) + 1, exps[:i] + (e - 1,) + exps[i + 1:], e)
                 for i, e in enumerate(exps) if e)


def symbol_by_words(c: TensorChain) -> PolyForm:
    """The antisymmetrized symbol of `c`, one word and one choice of the slots'
    differential pieces at a time, summed over c.den * K! for the top degree K."""
    n, top = c.n, max((len(w) - 1 for w in c.nums), default=0)
    lift = [factorial(top) // factorial(k) for k in range(top + 1)]  # K!/k!
    # sigma(z^a d^b) = z^a y^b, as the one vector a + b, of each distinct slot key
    sigma = {key: sum(unpack(key, n), ()) for key in {key for w in c.nums for key in w}}
    d_sigma = {key: _d_symbol(exps, n) for key, exps in sigma.items()}
    acc: Dict[FormKey, int] = {}
    for word, num in c.nums.items():
        head = sigma[word[0]]
        scaled = num * lift[len(word) - 1]
        for pieces in product(*map(d_sigma.__getitem__, word[1:])):
            odd = [p[0] for p in pieces]
            if len(set(odd)) < len(odd):
                continue  # a repeated one-form
            inversions = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
            even = tuple(map(sum, zip(head, *(p[1] for p in pieces))))
            value = scaled * math.prod(p[2] for p in pieces)
            key = (even, tuple(sorted(odd)))
            acc[key] = acc.get(key, 0) + (-value if inversions % 2 else value)
    den = c.den * factorial(top)
    return PolyForm(c.n, tuple(sorted((key, Fraction(v, den)) for key, v in acc.items() if v)))


# ---------------------------------------------------------------------------
# randomgen: the samples through Fraction coefficients
# ---------------------------------------------------------------------------


def draw_element(rng: random.Random, n: int, max_deg: int = 2) -> WeylElement:
    """A nonzero element of one or two terms, exponents up to `max_deg`."""
    while True:
        terms = []
        for _ in range(rng.randint(1, 2)):
            z_exp = tuple(rng.randint(0, max_deg) for _ in range(n))
            d_exp = tuple(rng.randint(0, max_deg) for _ in range(n))
            coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            terms.append(((z_exp, d_exp), coeff))
        el = WeylElement.from_terms(n, terms)
        if not el.is_zero():
            return el


def draw_chain(rng: random.Random, n: int, degree: int, words: int = 2,
               max_deg: int = 2) -> TensorChain:
    raw = []
    for _ in range(words):
        word = tuple(draw_element(rng, n, max_deg=max_deg) for _ in range(degree + 1))
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        raw.append((coeff, word))
    return TensorChain.from_terms(n, raw)


def draw_column_vector(rng: random.Random, n: int) -> TsyganColumnVector:
    """One or two entries in columns 0..3, each a chain of degree 0..3."""
    entries = []
    for _ in range(rng.randint(1, 2)):
        col = rng.randint(0, 3)
        degree = rng.randint(0, 3)
        entries.append((col, draw_chain(rng, n, degree, words=rng.randint(1, 2), max_deg=1)))
    return TsyganColumnVector.from_entries(n, entries)


# ---------------------------------------------------------------------------
# chern: densities with known integrals
# ---------------------------------------------------------------------------


def todd_density() -> ChartDensity:
    """Degree-2 Todd density of the sphere: half the O(2) curvature."""
    half = chern_density(2)
    return lambda x, y: 0.5 * half(x, y)


def integrate_product(densities: Sequence[ChartDensity], **kwargs) -> QuadratureResult:
    """Integral of an outer product density over a product of spheres.

    Fubini: the integral is the product of the factor integrals.  The error
    estimate propagates the factor estimates to first order, the result
    converged only if every factor did, and `levels_used` is the largest
    of the factors'.
    """
    if not 1 <= len(densities) <= 4:
        raise ValueError(f"product integrals support 1 to 4 factors, got {len(densities)}")
    factors = tuple(integrate_chart(d, **kwargs) for d in densities)
    value = math.prod(f.value for f in factors)
    err = 0.0
    for i, f in enumerate(factors):
        err += f.error_estimate * math.prod(abs(g.value) for j, g in enumerate(factors) if j != i)
    return QuadratureResult(value, err, all(f.converged for f in factors),
                            max(f.levels_used for f in factors))


def volume_density() -> ChartDensity:
    """Unit-mass volume density of the chart metric."""
    return lambda x, y: (1.0 + x * x + y * y) ** -2.0 / math.pi


def transformed_density(density: ChartDensity, angle: float,
                        shift: Tuple[float, float]) -> ChartDensity:
    """Pullback under a rotation followed by a shift (area preserving)."""
    c, s = math.cos(angle), math.sin(angle)
    dx, dy = shift
    return lambda x, y: density(c * x - s * y + dx, s * x + c * y + dy)


def integrate_todd_p1(**kwargs) -> QuadratureResult:
    """Integral of the sphere's Todd density; the exact answer is 1."""
    return integrate_chart(todd_density(), **kwargs)


# ---------------------------------------------------------------------------
# readers only the tests need
# ---------------------------------------------------------------------------


def report_from_json(text: str) -> VerificationReport:
    """The report that `VerificationReport.to_json` wrote."""
    payload = json.loads(text)
    checks = tuple(CheckResult(**c) for c in payload["checks"])
    return VerificationReport(payload["version"], payload["timestamp"], checks)


def column(v: TsyganColumnVector, p: int) -> TensorChain:
    """The chain in column p of a bicomplex vector (zero if absent)."""
    return dict(v.entries).get(p, TensorChain(v.n, {}, 1))


def form_from_terms(n: int, raw: Iterable[Tuple[FormKey, Fraction]]) -> PolyForm:
    """The form sum(coeff * term), merged once into sorted nonzero terms."""
    acc: Dict[FormKey, Fraction] = {}
    for key, coeff in raw:
        acc[key] = acc.get(key, Fraction(0)) + coeff
    return PolyForm(n, tuple(sorted((key, c) for key, c in acc.items() if c)))
