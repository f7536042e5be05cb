"""Polynomial differential forms and the symbol map on tensor chains.

Forms live on the commutative polynomial algebra in z1..zn, y1..yn.  A
term is a commuting monomial (exponents over the 2n coordinates) times an
anticommuting monomial (a strictly increasing tuple of one-form indices);
one-form index 2(i-1) is dz_i and 2(i-1)+1 is dy_i.  Coefficients are
exact rationals.

The symbol map sends the normal-ordered monomial z^a d^b to z^a y^b; a
degree-k tensor word a0 (x) ... (x) ak maps to

    (1/k!) sigma(a0) d(sigma(a1)) ^ ... ^ d(sigma(ak))

extended linearly to chains.  It reads the chain's own monomial keys:
sigma of a slot key, unpacked to (a, b), is the exponent vector a + b,
its differential is a short tuple, both formed once per distinct key in
one call, and a word's form is the product of those tuples, signed by
the order in which the one-forms enter.  Words with a scalar interior
slot die under this map because d(1) = 0, so it factors through
`normalize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, prod
from typing import Dict, Tuple

from .chains import TensorChain
from .weyl import unpack

EvenExps = Tuple[int, ...]  # exponents of z1..zn then y1..yn
OddKey = Tuple[int, ...]    # strictly increasing one-form indices
FormKey = Tuple[EvenExps, OddKey]


@dataclass(frozen=True)
class PolyForm:
    """Rational polynomial form in z1..zn, y1..yn and their differentials."""

    n: int
    terms: Tuple[Tuple[FormKey, Fraction], ...]

    def is_zero(self) -> bool:
        return not self.terms


def _d_symbol(exps: EvenExps, n: int) -> Tuple[Tuple[int, EvenExps, int], ...]:
    """d(sigma) for sigma = z^exps[:n] y^exps[n:], as (one-form index, lowered
    exponents, factor) entries."""
    return tuple((2 * i if i < n else 2 * (i - n) + 1, exps[:i] + (e - 1,) + exps[i + 1:], e)
                 for i, e in enumerate(exps) if e)


def hkr_symbol(c: TensorChain) -> PolyForm:
    """The antisymmetrized symbol of `c`, read from its words of monomial keys.

    The sum is kept in integers over the one denominator c.den * K!, with K
    the top degree of `c`, and divided once per form term at the end.
    """
    n, top = c.n, max(c.degrees(), default=0)
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
            value = scaled * prod(p[2] for p in pieces)
            key = (even, tuple(sorted(odd)))
            acc[key] = acc.get(key, 0) + (-value if inversions % 2 else value)
    den = c.den * factorial(top)
    return PolyForm(c.n, tuple(sorted((key, Fraction(v, den)) for key, v in acc.items() if v)))


def volume_form(n: int) -> PolyForm:
    """dy1 ^ dz1 ^ dy2 ^ dz2 ^ ... ^ dyn ^ dzn.

    Each dy_i ^ dz_i is -dz_i ^ dy_i, and these 2-forms commute, so in
    sorted index order the form is the single term (-1)^n dz1 ^ dy1 ^ ...
    ^ dzn ^ dyn.
    """
    return PolyForm(n, ((((0,) * (2 * n), tuple(range(2 * n))), Fraction((-1) ** n)),))
