"""Exact normal-ordered arithmetic for polynomial differential operators.

The algebra has generators z1..zn and d1..dn (di = d/dzi) subject to
[di, zj] = delta_ij, with all generators of distinct index commuting.
Every element is kept in normal order: z factors to the left of d
factors.  A monomial is a pair of exponent vectors, an element a finite
rational combination of monomials.  Coefficients are exact: int
numerators over one int denominator, read out as `fractions.Fraction`;
this module never touches floating point.

Monomials are stored as packed keys: `pack` writes the exponents z1..zn,
d1..dn of (z_exp, d_exp) into one int, FIELD_BITS bits per exponent, most
significant field first, and `unpack` reads them back.  Integer order of
packed keys is then the order of (z_exp, d_exp) keys, and the unit
monomial is 0.  Every exponent stays at or below MAX_EXPONENT, which
leaves each field's high bit clear: `pack` refuses a larger exponent
with `ValueError`, so the sum of two packed keys carries into no other
field, and `mono_product` raises `ValueError` when that sum sets a high
bit rather than keep an exponent past the bound.  `pack` also refuses a key
in more than MAX_VARIABLES variables: the high-bit masks are a table by n.

A `WeylElement` is the element-side twin of a chain (`chains.TensorChain`):
(n, nums, den), with `nums` a tuple of (packed key, nonzero int numerator)
pairs in descending key order over one reduced denominator, so equal
elements are equal tuples and hash equal.  `WeylElement.from_terms`, the
one validating constructor, reads ((z_exp, d_exp), coefficient) pairs,
refuses a coefficient that is not an int or a `Fraction`, and packs the
keys, so the exponent bound is checked at construction; the
cached `terms` is the view back in that form, with `Fraction`
coefficients, for the text writer and the spectral operator readers.

`mono_product` is the one product kernel: every product of monomials, in
`mul` and in the chain operators, goes through it.  Without contractions
the product of z^p d^q and z^r d^s is the key a + b; reordering variable
i uses the closed form

    d^q z^r = sum_{j>=0} C(q,j) C(r,j) j! z^(r-j) d^(q-j)

each contraction taking j from both z_i and d_i, and distinct variables
reorder independently.  The terms of a product are then a + b minus
offsets fixed by the contraction pattern alone, the d fields of a against
the z fields of b where both are nonzero, and `_contractions` keeps those
(offset, coefficient) terms in a table.  The formula is cross-checked in
the tests against the action of an element on an ordinary polynomial,
which is defined without any reordering (`apply` in `tests/oracles.py`),
and the terms and their order against the per-variable loop
(`mono_product_by_variables`).

Four pure per-key functions keep an `lru_cache`: `mono_product`,
`format_monomial` and `_contractions` of 256 entries each, so a chain
operator needs no product table of its own, and `unpack` of 4096.  Their values are tuples and strings, which no caller can change, and the
cache keeps no exception, so a refusal is raised again on every call.  The
product cache's bound is measured on the benchmark's random chains
(`exact-random`, 3 runs each on one 2-CPU host): 256 entries answer 80% of
some 10,500 products a pass; 1024 answer 82% at the same speed for 0.25 MB
more peak memory, and 4096 answer 88%, 4-5% faster for 1.6-1.8 MB (5%)
more; an unbounded product cache cost 18.6 MB.  About 59% of the misses
contract, and the contraction table answers all but about 2 of them a pass:
an `exact-random` run meets 147 distinct patterns in its setup and 20
passes, `hochheat all` 102 and `hochheat cycles --n 4` 10.  An entry holds
the product over the contracting variables of min(q_i, r_i) + 1 terms, as
many as the product that made it (at most 9 in those runs), so the table's
worst case is that of the product cache.

Text goes out through `format_element` (an element) and `format_monomial`
(a monic monomial).  The one reader, `parse_monomial`, reads exactly what
`format_monomial` writes: the slot grammar of chain JSON, whose reader
keeps the table of slot texts (`chains._slot_key`).  The general element
parser and the sums and scalings of elements, which no program path
needs, are test oracles in `tests/oracles.py`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, factorial, gcd, lcm
from numbers import Rational
from typing import Dict, Iterable, List, Tuple

Exponents = Tuple[int, ...]
#: a normal-ordered monomial z^z_exp d^d_exp as (z_exp, d_exp)
Key = Tuple[Exponents, Exponents]


def _sum_over_lcm(expanded: List[Tuple[int, int, object]]) -> Tuple[Dict[object, int], int]:
    """(acc, den), den the lcm of the q, with sum(acc[x] * x) / den = sum(p/q * x) over the
    (p, q, x) of `expanded`, q >= 1; x is a packed key or a chain word."""
    den = lcm(*(q for _, q, _ in expanded))
    acc: Dict[object, int] = {}
    get = acc.get
    for p, q, x in expanded:
        acc[x] = get(x, 0) + p * (den // q)
    return acc, den


def _shown(value) -> str:
    """repr(value) cut to its first 40 characters, for an error message."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _rational(coeff) -> Tuple[int, int]:
    """(p, q) of an int or a `Fraction`; any other coefficient raises `ValueError`."""
    if not isinstance(coeff, Rational):
        raise ValueError(f"coefficient {_shown(coeff)} is not an int or a Fraction")
    return int(coeff.numerator), int(coeff.denominator)


def _canonical(n: int, acc: Dict[int, int], den: int) -> "WeylElement":
    """The element sum(acc[key] * key) / den for den >= 1, in canonical form."""
    nums = sorted(((key, k) for key, k in acc.items() if k), reverse=True)
    g = gcd(den, *(k for _, k in nums)) if den > 1 else 1
    if g > 1:
        nums = [(key, k // g) for key, k in nums]
    return WeylElement(n, tuple(nums), den // g)


@dataclass(frozen=True)
class WeylElement:
    """Finite rational combination of normal-ordered monomials.

    The element is sum(k * key) / den over the (packed key, numerator)
    pairs of `nums`: distinct keys in descending order, each with a
    nonzero int numerator, over den >= 1 with gcd(den, *numerators) == 1,
    so the zero element is ((), 1).  Build elements with `from_terms`.
    """

    n: int
    nums: Tuple[Tuple[int, int], ...]
    den: int

    @staticmethod
    def from_terms(n: int, terms: Iterable[Tuple[Key, Fraction]]) -> "WeylElement":
        """The element sum(coeff * z^z_exp d^d_exp) over ((z_exp, d_exp), coeff) pairs."""
        if type(n) is not int:
            raise ValueError(f"element needs an integer n, got {n!r}")
        expanded = []
        for (z_exp, d_exp), coeff in terms:
            key = (tuple(z_exp), tuple(d_exp))
            if len(key[0]) != n or len(key[1]) != n:
                raise ValueError("exponent vectors must have length n")
            expanded.append((*_rational(coeff), pack(key)))
        return _canonical(n, *_sum_over_lcm(expanded))

    @cached_property
    def terms(self) -> Tuple[Tuple[Key, Fraction], ...]:
        """((z_exp, d_exp), coefficient) pairs in descending key order."""
        n, den = self.n, self.den
        return tuple((unpack(key, n), Fraction(k, den)) for key, k in self.nums)

    def is_zero(self) -> bool:
        return not self.nums


def _monic(n: int, key: Key) -> WeylElement:
    return WeylElement(n, ((pack(key), 1),), 1)


def unit(n: int) -> WeylElement:
    return _monic(n, ((0,) * n, (0,) * n))


def z_var(i: int, n: int) -> WeylElement:
    """Generator z_i (1-indexed) in n variables."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")
    e = tuple(1 if j == i - 1 else 0 for j in range(n))
    return _monic(n, (e, (0,) * n))


def d_var(i: int, n: int) -> WeylElement:
    """Generator d_i = d/dz_i (1-indexed) in n variables."""
    if not 1 <= i <= n:
        raise ValueError(f"variable index {i} out of range 1..{n}")
    e = tuple(1 if j == i - 1 else 0 for j in range(n))
    return _monic(n, ((0,) * n, e))


#: bits of one exponent field of a packed key
FIELD_BITS = 16
#: the largest exponent a packed key holds: each field's high bit stays clear
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1
#: the most variables an element or a chain has, far above the 4 the checks use
MAX_VARIABLES = 16
#: by n, the high bit of each of the 2n fields of a packed key in n variables
_HIGH_BITS = tuple(sum(1 << (FIELD_BITS * i + FIELD_BITS - 1) for i in range(2 * n))
                   for n in range(MAX_VARIABLES + 1))
#: by n, MAX_EXPONENT in each of n fields: adding it to n fields of a packed key sets the
#: high bit of exactly the nonzero ones
_FILL = tuple(sum(MAX_EXPONENT << (FIELD_BITS * i) for i in range(n))
              for n in range(MAX_VARIABLES + 1))


def pack(key: Key) -> int:
    """The packed key of (z_exp, d_exp): fields z1..zn, d1..dn, most significant first."""
    if len(key[0]) > MAX_VARIABLES:
        raise ValueError(f"a key in {len(key[0])} variables, more than {MAX_VARIABLES}")
    packed = 0
    for e in key[0] + key[1]:
        if not 0 <= e <= MAX_EXPONENT:
            raise ValueError(f"exponent {e} is outside 0..{MAX_EXPONENT}")
        packed = packed << FIELD_BITS | e
    return packed


@lru_cache(maxsize=4096)
def unpack(packed: int, n: int) -> Key:
    """The (z_exp, d_exp) key of a packed key in n variables: the inverse of `pack`."""
    exps = [packed >> (FIELD_BITS * i) & _FIELD_MASK for i in range(2 * n - 1, -1, -1)]
    return tuple(exps[:n]), tuple(exps[n:])


@lru_cache(maxsize=256)
def _contractions(q_fields: int, r_fields: int, n: int) -> Tuple[Tuple[int, int], ...]:
    """(offset, coefficient) terms of the contractions of d^q against z^r in n variables.

    `q_fields` holds the d exponents of the left factor and `r_fields` the z
    exponents of the right one, n fields each, both nonzero in the same
    fields.  A contraction of j in variable i takes j from the z_i and d_i
    fields of the key sum, with coefficient C(q_i,j) C(r_i,j) j!; the
    variables multiply out from n down to 1, each one's j = 0 term first.
    """
    terms = [(0, 1)]
    step = (1 << (n * FIELD_BITS)) | 1  # z_n and d_n of a key in n variables, by one
    while q_fields:
        q, r = q_fields & _FIELD_MASK, r_fields & _FIELD_MASK
        if q:
            terms = [(off + j * step, c * comb(q, j) * comb(r, j) * factorial(j))
                     for off, c in terms for j in range(min(q, r) + 1)]
        q_fields >>= FIELD_BITS
        r_fields >>= FIELD_BITS
        step <<= FIELD_BITS
    return tuple(terms)


@lru_cache(maxsize=256)
def mono_product(a: int, b: int, n: int) -> Tuple[Tuple[int, int], ...]:
    """Expand (z^p d^q)(z^r d^s), packed keys in n variables, into (packed key, coefficient) terms.

    Per variable, d^q z^r = sum_j C(q,j) C(r,j) j! z^(r-j) d^(q-j); the
    cross-variable factors commute, so contractions are independent and
    the result is the product over variables of the one-variable sums.
    Uncontracted, the exponents add: the key a + b.  The contractions
    subtract offsets that depend only on the fields where a's d and b's z
    are both nonzero, which `_contractions` tabulates.  An n outside
    1..MAX_VARIABLES raises `ValueError`, as does an exponent past the bound;
    the caches keep no refusal, so a repeated call raises again.
    """
    if not 1 <= n <= MAX_VARIABLES:
        raise ValueError(f"a product in {n} variables, outside 1..{MAX_VARIABLES}")
    top, high = a + b, _HIGH_BITS[n]
    if top & high:
        raise ValueError(f"a product has an exponent above {MAX_EXPONENT}")
    half, fill = n * FIELD_BITS, _FILL[n]
    # the d fields of a and the z fields of b; `both` has the high bit of each field
    # where the two are nonzero, and `keep` the other bits of those fields
    q_fields, r_fields = a & ((1 << half) - 1), b >> half
    both = (q_fields + fill) & (r_fields + fill) & high
    if not both:
        return ((top, 1),)
    keep = both - (both >> (FIELD_BITS - 1))
    terms = _contractions(q_fields & keep, r_fields & keep, n)
    return tuple([(top - off, c) for off, c in terms])


def mul(a: WeylElement, b: WeylElement) -> WeylElement:
    """The normal-ordered product a b.

    The numerator products accumulate as plain ints on the packed keys of
    `mono_product`, over the product of the two denominators, and the sum
    is reduced once.
    """
    if a.n != b.n:
        raise ValueError("cannot multiply elements with different variable counts")
    n = a.n
    acc: Dict[int, int] = {}
    get = acc.get
    for pa, na in a.nums:
        for pb, nb in b.nums:
            c = na * nb
            for key, m in mono_product(pa, pb, n):
                acc[key] = get(key, 0) + c * m
    return _canonical(n, acc, a.den * b.den)


# ---------------------------------------------------------------------------
# text format: "3/2*z1^2*d1 + 1", "-z2 + 2/3", "0"
# ---------------------------------------------------------------------------

# Cost bound on chain JSON input, far above what the checks use (terms of
# degree at most 18): the exponents of one slot sum to at most MAX_DEGREE.
MAX_DEGREE = 64


@lru_cache(maxsize=256)
def format_monomial(key: Key) -> str:
    """The text of the monic monomial z^z_exp d^d_exp: "1", or its factors
    joined by "*", z factors before d factors, each by increasing index."""
    factors = []
    for gen, exps in zip("zd", key):
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(f"{gen}{i + 1}")
            elif e > 1:
                factors.append(f"{gen}{i + 1}^{e}")
    return "*".join(factors) or "1"


#: one factor as `format_monomial` writes it: no leading zeros, no ^0 or ^1, and at
#: most three digits (far above MAX_VARIABLES and MAX_DEGREE)
_MONIC_FACTOR_RE = re.compile(r"([zd])([1-9][0-9]{0,2})(?:\^([2-9]|[1-9][0-9]{1,2}))?")


def parse_monomial(text: str, n: int) -> Key | None:
    """The key that `format_monomial` writes as `text`, or None.

    The exact inverse of `format_monomial` on keys with indices at most n
    and degree at most MAX_DEGREE.  Any other text gives None, also other
    spellings of an element, such as "d1*z1", "z1^1" or "2*z1".
    """
    if text == "1":
        return ((0,) * n, (0,) * n)
    exps = [0] * (2 * n)  # z1..zn, then d1..dn
    last, degree = -1, 0
    for f in text.split("*"):
        m = _MONIC_FACTOR_RE.fullmatch(f)
        if m is None:
            return None
        i, e = int(m[2]), int(m[3] or 1)
        pos = i - 1 if m[1] == "z" else n + i - 1
        degree += e
        if i > n or pos <= last or degree > MAX_DEGREE:
            return None
        exps[pos], last = e, pos
    return tuple(exps[:n]), tuple(exps[n:])


def format_element(a: WeylElement) -> str:
    """Render in the canonical term order, each term a coefficient times `format_monomial`."""
    if not a.terms:
        return "0"
    pieces = []
    for idx, (key, coeff) in enumerate(a.terms):
        body, mag = format_monomial(key), abs(coeff)
        if mag != 1:
            body = str(mag) if body == "1" else f"{mag}*{body}"
        if idx == 0:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)
