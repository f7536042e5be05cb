"""Exact normal-ordered arithmetic for polynomial differential operators.

The algebra has generators z1..zn and d1..dn (di = d/dzi) subject to
[di, zj] = delta_ij, with all generators of distinct index commuting.
Every element is kept in normal order: z factors to the left of d
factors.  A monomial is a pair of exponent vectors, an element a finite
rational combination of monomials.  Coefficients are `fractions.Fraction`
throughout; this module never touches floating point.

A monomial's key is its pair of exponent vectors (z_exp, d_exp).  Every
product of monomials, in `mul` and in the chain operators, goes through
`mono_product` on keys.  Reordering a single variable uses the closed form

    d^p z^q = sum_{j>=0} C(p,j) C(q,j) j! z^(q-j) d^(p-j)

whose coefficients `_reorder` keeps in a small table, and distinct
variables reorder independently.  The formula is cross-checked in the
tests against `apply`, the action of an element on an ordinary
polynomial, which is defined without any reordering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, Iterable, List, Mapping, Tuple

Exponents = Tuple[int, ...]
#: a normal-ordered monomial z^z_exp d^d_exp as (z_exp, d_exp)
Key = Tuple[Exponents, Exponents]
#: plain commutative polynomial in z1..zn: exponent vector -> coefficient
Polynomial = Dict[Exponents, Fraction]


@dataclass(frozen=True)
class WeylMonomial:
    """Normal-ordered monomial z^z_exp d^d_exp in n variables."""

    n: int
    z_exp: Exponents
    d_exp: Exponents

    def __post_init__(self) -> None:
        if len(self.z_exp) != self.n or len(self.d_exp) != self.n:
            raise ValueError("exponent vectors must have length n")
        if any(e < 0 for e in self.z_exp) or any(e < 0 for e in self.d_exp):
            raise ValueError("exponents must be non-negative")

    @property
    def sort_key(self) -> tuple:
        # lexicographic on (z_exp, d_exp); used for canonical term order
        return (self.z_exp, self.d_exp)


def _merge_terms(n: int, terms: Iterable[Tuple[WeylMonomial, Fraction]]):
    acc: Dict[WeylMonomial, Fraction] = {}
    for mono, coeff in terms:
        if mono.n != n:
            raise ValueError("mixed variable counts in one element")
        acc[mono] = acc.get(mono, Fraction(0)) + coeff
    return tuple(sorted(((m, c) for m, c in acc.items() if c),
                        key=lambda mc: mc[0].sort_key, reverse=True))


@dataclass(frozen=True)
class WeylElement:
    """Finite rational combination of normal-ordered monomials."""

    n: int
    terms: Tuple[Tuple[WeylMonomial, Fraction], ...]

    @staticmethod
    def from_terms(n: int, terms: Iterable[Tuple[WeylMonomial, Fraction]]) -> "WeylElement":
        return WeylElement(n, _merge_terms(n, terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "WeylElement") -> "WeylElement":
        return add(self, other)

    def __sub__(self, other: "WeylElement") -> "WeylElement":
        return add(self, scale(Fraction(-1), other))

    def __neg__(self) -> "WeylElement":
        return scale(Fraction(-1), self)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return mul(self, other)

    def __rmul__(self, c) -> "WeylElement":
        return scale(Fraction(c), self)

    def __str__(self) -> str:
        return format_element(self)


def unit(n: int) -> WeylElement:
    mono = WeylMonomial(n, (0,) * n, (0,) * n)
    return WeylElement(n, ((mono, Fraction(1)),))


def zero(n: int) -> WeylElement:
    return WeylElement(n, ())


def z_var(i: int, n: int) -> WeylElement:
    """Generator z_i (1-indexed) in n variables."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")
    e = tuple(1 if j == i - 1 else 0 for j in range(n))
    return WeylElement(n, ((WeylMonomial(n, e, (0,) * n), Fraction(1)),))


def d_var(i: int, n: int) -> WeylElement:
    """Generator d_i = d/dz_i (1-indexed) in n variables."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")
    e = tuple(1 if j == i - 1 else 0 for j in range(n))
    return WeylElement(n, ((WeylMonomial(n, (0,) * n, e), Fraction(1)),))


def monomial(n: int, z_exp: Exponents, d_exp: Exponents, coeff=1) -> WeylElement:
    return WeylElement.from_terms(n, [(WeylMonomial(n, tuple(z_exp), tuple(d_exp)), Fraction(coeff))])


def add(a: WeylElement, b: WeylElement) -> WeylElement:
    if a.n != b.n:
        raise ValueError("cannot add elements with different variable counts")
    return WeylElement(a.n, _merge_terms(a.n, list(a.terms) + list(b.terms)))


def scale(c, a: WeylElement) -> WeylElement:
    c = Fraction(c)
    if not c:
        return zero(a.n)
    return WeylElement(a.n, tuple((m, c * k) for m, k in a.terms))


@lru_cache(maxsize=1024)
def _reorder(p: int, r: int) -> Tuple[int, ...]:
    """C(p,j) C(r,j) j! for j = 0..min(p, r): the terms of d^p z^r."""
    return tuple(comb(p, j) * comb(r, j) * factorial(j) for j in range(min(p, r) + 1))


def mono_product(a: Key, b: Key) -> List[Tuple[Key, int]]:
    """Expand (z^p d^q)(z^r d^s) into normal-ordered (key, coefficient) terms.

    Per variable, d^q z^r = sum_j C(q,j) C(r,j) j! z^(r-j) d^(q-j); the
    cross-variable factors commute, so contractions are independent and
    the result is the product over variables of the one-variable sums.
    """
    (az, ad), (bz, bd) = a, b
    terms = [((), (), 1)]
    for p, q, r, s in zip(az, ad, bz, bd):
        if q and r:
            terms = [(z + (p + r - j,), d + (q + s - j,), c * cj)
                     for z, d, c in terms for j, cj in enumerate(_reorder(q, r))]
        else:
            terms = [(z + (p + r,), d + (q + s,), c) for z, d, c in terms]
    return [((z, d), c) for z, d, c in terms]


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    if a.n != b.n:
        raise ValueError("cannot multiply elements with different variable counts")
    return WeylElement.from_terms(a.n, (
        (WeylMonomial(a.n, *key), ca * cb * m)
        for ma, ca in a.terms for mb, cb in b.terms
        for key, m in mono_product(ma.sort_key, mb.sort_key)))


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
    for mono, coeff in a.terms:
        for exps, pc in p.items():
            if len(exps) != a.n:
                raise ValueError("polynomial arity does not match element")
            c = coeff * pc
            ok = True
            new = []
            for i in range(a.n):
                q = mono.d_exp[i]
                m = exps[i]
                if q > m:
                    ok = False
                    break
                for r in range(q):
                    c *= m - r
                new.append(m - q + mono.z_exp[i])
            if not ok or not c:
                continue
            key = tuple(new)
            tot = out.get(key, Fraction(0)) + c
            if tot:
                out[key] = tot
            elif key in out:
                del out[key]
    return out


def disjoint_embed(a: WeylElement, offset: int, total: int) -> WeylElement:
    """Re-index a into the algebra on `total` variables, shifting by `offset`."""
    if offset < 0 or a.n + offset > total:
        raise ValueError("embedding does not fit in target algebra")
    pad_l = (0,) * offset
    pad_r = (0,) * (total - a.n - offset)
    terms = [
        (WeylMonomial(total, pad_l + m.z_exp + pad_r, pad_l + m.d_exp + pad_r), c)
        for m, c in a.terms
    ]
    return WeylElement(total, tuple(terms))


# ---------------------------------------------------------------------------
# text format: "3/2*z1^2*d1 + 1", "-z2 + 2/3", "0"
# ---------------------------------------------------------------------------

# a nonzero denominator is part of the grammar, so "3/0" is a malformed factor
_FACTOR_RE = re.compile(r"^(?:(?P<num>\d+(?:/0*[1-9]\d*)?)|(?P<gen>[zd])(?P<idx>\d+)(?:\^(?P<pow>\d+))?)$")
_SIGN_RE = re.compile(r"\s*([+-])\s*")


def _format_monomial(mono: WeylMonomial, coeff: Fraction) -> str:
    factors = []
    for i, e in enumerate(mono.z_exp):
        if e == 1:
            factors.append(f"z{i + 1}")
        elif e > 1:
            factors.append(f"z{i + 1}^{e}")
    for i, e in enumerate(mono.d_exp):
        if e == 1:
            factors.append(f"d{i + 1}")
        elif e > 1:
            factors.append(f"d{i + 1}^{e}")
    mag = abs(coeff)
    if not factors:
        return str(mag)
    if mag != 1:
        factors.insert(0, str(mag))
    return "*".join(factors)


def format_element(a: WeylElement) -> str:
    """Render in the canonical term order; inverse of `parse_element`."""
    if not a.terms:
        return "0"
    pieces = []
    for idx, (mono, coeff) in enumerate(a.terms):
        body = _format_monomial(mono, coeff)
        if idx == 0:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


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
    if n < 1 or not all(1 <= i <= n for i in indices):
        raise ValueError(f"element {text!r} needs variable indices in 1..n with n={n}")
    # term, sign, term, ...; a leading sign leaves an empty first piece
    pieces = _SIGN_RE.split(s)
    pieces = pieces[1:] if not pieces[0] and len(pieces) > 1 else ["+"] + pieces
    none = (0,) * n
    total = zero(n)
    for sign, body in zip(pieces[0::2], pieces[1::2]):
        term = unit(n) if sign == "+" else scale(-1, unit(n))
        for f in body.split("*"):
            m = _FACTOR_RE.match(f.strip())
            if not m:
                raise ValueError(f"cannot parse factor {f.strip()!r} in {text!r}")
            if m.group("num"):
                term = scale(Fraction(m.group("num")), term)
                continue
            i, power = int(m.group("idx")) - 1, int(m.group("pow") or 1)
            e = tuple(power if j == i else 0 for j in range(n))
            gen = monomial(n, e, none) if m.group("gen") == "z" else monomial(n, none, e)
            term = mul(term, gen)
        total = add(total, term)
    return total
