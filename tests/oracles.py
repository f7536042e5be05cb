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
* `_round_each_entry`, the congruence rounded one entry at a time, against
  the whole-block rounding of `hochheat.spectral._round_congruence`;
* `_congruence`, the stiffness R G R^T of an incidence R as one sum per
  entry, against the rows the model build expands in the other degree's
  certified basis;
* `harmonic0_coordinates`, the kernel vectors of a model back-solved to the
  (a, b) basis, against the holomorphic sections they must be;
* `apply`, the action of a Weyl element on an ordinary polynomial, against
  the reordering closed form of `hochheat.weyl.mul`, with `commutator`,
  `disjoint_embed`, `monomial`, `add`, `scale` and `zero` to build the inputs;
* `key_product`, the product of two monomials on their exponent tuples, one
  variable at a time, against the packed-key kernel
  `hochheat.weyl.mono_product`, and the product of the chain oracles;
* `normalized_omega_by_inversions`, the alternating permutation sum with
  each sign counted from its permutation's inversions, against the
  sign-carrying closed form `hochheat.chains.normalized_omega_formula`;
* `parse_element`, the general reader of the element text format, which
  multiplies its factors out in the algebra, against `format_element`,
  `parse_monomial` and the chain JSON reader;
* `todd_density`, `integrate_todd_p1`, `volume_density` and
  `transformed_density`, densities whose integrals over the chart are
  known, and `integrate_product`, the integral over a product of spheres
  by Fubini.

It also keeps the readers that only the tests need: `report_from_json`,
`column` of a bicomplex vector and `form_from_terms`.

The tests import this module as ``from oracles import ...``.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from operator import mul as _times
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from hochheat.chains import TensorChain, TsyganColumnVector
from hochheat.chern import ChartDensity, QuadratureResult, chern_density, integrate_chart
from hochheat.forms import FormKey, PolyForm
from hochheat.report import CheckResult, VerificationReport
from hochheat.spectral import (
    OperatorEscapeError,
    SpectralModel,
    WeightedFn,
    _reduced,
    _scaled_root,
)
from hochheat.weyl import (MAX_DEGREE, MAX_VARIABLES, Exponents, Key, WeylElement, d_var, mul,
                           pack, unit, z_var)

# ---------------------------------------------------------------------------
# spectral: the generic pairing kernel
# ---------------------------------------------------------------------------

#: a pairing value numerator / (m - 1)! as (numerator, m)
Pairing = Tuple[int, int]


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
        pairs = blocks[bi].pairs
        images = [_lift(_apply_weyl(op, {(a, b, power): 1}, den), top) for a, b in pairs]
        yield _reduced(_moment_block(images, pairs, mom), unit)


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
    entry.
    """
    out = []
    for bi, col in model.harmonic0:
        block = model.blocks[bi]
        sc = block.scale
        r = np.zeros((len(block.w), len(block.w)))
        for j, row in enumerate(block.w):
            r[j, :j + 1] = [_scaled_root(v, sc.denominator, sc.numerator * block.norms[j])
                            for v in row]
        x = r.T @ block.vecs[:, col]
        out.append({pair: x[i] for i, pair in enumerate(block.pairs)})
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
