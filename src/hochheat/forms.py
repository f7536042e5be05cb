"""Polynomial differential forms and the symbol map on tensor chains.

Forms live on the commutative polynomial algebra in z1..zn, y1..yn.  A
term is a commuting monomial (exponents over the 2n coordinates) times an
anticommuting monomial (a strictly increasing tuple of one-form indices);
one-form index 2(i-1) is dz_i and 2(i-1)+1 is dy_i.  Coefficients are
exact rationals.

The symbol map sends the normal-ordered monomial z^a d^b to z^a y^b; a
degree-k tensor word a0 (x) ... (x) ak maps to

    (1/k!) sigma(a0) d(sigma(a1)) ^ ... ^ d(sigma(ak))

extended linearly to chains.  It reads the chain's key arrays
(`TensorChain._key_arrays`): sigma of a slot key, unpacked to (a, b), is
the exponent vector a + b, and its differential is one piece per nonzero
exponent e at position p, the one-form of p with factor e and exponent p
lowered by one; both are tables over the distinct keys.  The words expand
into one row per choice of a piece in each interior slot, all slots at
once, and a row's sign is the parity of the order in which its one-forms
enter.  A row's form key is its word's total exponent vector with the
chosen positions lowered by one, and its set of one-forms; since a
one-form names its position, the key is coded as one int64, the word's
interned total above a bit per one-form.  Words with a scalar interior
slot die under this map because d(1) = 0, so it factors through
`normalize`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Dict, Tuple

import numpy as np

from .chains import TensorChain, _sum_runs, _sums_fit
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


def _alternation(odd: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(distinct, parity) of each row of one-form indices: whether the row has no
    repeated index, and the parity of its inversions."""
    distinct = np.ones(len(odd), dtype=bool)
    parity = np.zeros(len(odd), dtype=bool)
    for a in range(odd.shape[1]):
        for b in range(a + 1, odd.shape[1]):
            distinct &= odd[:, a] != odd[:, b]
            parity ^= odd[:, a] > odd[:, b]
    return distinct, parity


def hkr_symbol(c: TensorChain) -> PolyForm:
    """The antisymmetrized symbol of `c`, read from its key arrays.

    The sum is kept in integers over the one denominator c.den * K!, with K
    the top degree of `c`, and divided once per form term at the end.  A
    row's value is at most max|num| * K! * (largest exponent)^K, and the
    rows sum in int64 where `_sums_fit` allows it for all rows of `c`, and
    as ints in object arrays otherwise.
    """
    n, (keys, groups) = c.n, c._key_arrays
    top = max(groups, default=1) - 1
    # sigma(z^a d^b) = z^a y^b, as the one vector a + b, of each distinct key
    sigma = np.array([sum(unpack(key, n), ()) for key in keys], dtype=np.int32).reshape(-1, 2 * n)
    # the one-form of each exponent position: dz_i at z_i, dy_i at y_i
    form_of = np.concatenate([2 * np.arange(n), 2 * np.arange(n) + 1])
    # d(sigma) of key i: pieces start[i] .. start[i] + count[i] - 1, by exponent position
    owner, position = np.nonzero(sigma)
    factor = sigma[owner, position]
    count = np.count_nonzero(sigma, axis=1).astype(np.int32)
    start = np.cumsum(count, dtype=np.int32) - count
    one_form = form_of[position].astype(np.int8)
    form_bit = np.left_shift(1, form_of[position], dtype=np.int64)
    # a word has one row per choice of a piece in each interior slot
    combos = {}
    for length, (ids, _) in groups.items():
        combos[length] = np.ones(len(ids), dtype=np.int64)
        for j in range(1, length):
            combos[length] *= count[ids[:, j]]
    largest = (max(map(abs, c.nums.values()), default=0) * factorial(top)
               * max(1, int(sigma.max(initial=0))) ** top)
    dtype = np.int64 if _sums_fit(largest, sum(int(k.sum()) for k in combos.values())) else object
    factor = factor.astype(dtype)
    acc: Dict[FormKey, int] = {}  # words of distinct lengths give distinct form keys
    for length, (ids, nums) in groups.items():
        live = np.flatnonzero(combos[length])  # the words that give rows
        ids, nums, rows = ids[live], nums[live], combos[length][live]
        word = np.repeat(np.arange(len(ids), dtype=np.int32), rows)
        # a row's place among its word's rows, in the mixed radix of the interior
        # slots' piece counts, read off one slot at a time from the last
        local = np.arange(len(word), dtype=np.int64) - np.repeat(np.cumsum(rows) - rows, rows)
        chosen = np.empty((len(word), length - 1), dtype=np.int32)
        for j in range(length - 2, -1, -1):
            slot = ids[word, j + 1]
            radix = count[slot]
            chosen[:, j] = start[slot] + local % radix
            local //= radix
        del local
        value = nums[word].astype(dtype) * (factorial(top) // factorial(length - 1))
        for j in range(length - 1):
            value *= factor[chosen[:, j]]
        distinct, parity = _alternation(one_form[chosen])
        word, chosen, value = word[distinct], chosen[distinct], value[distinct]
        value[parity[distinct]] *= -1
        # the words' total exponent vectors, interned as byte strings
        totals, total_id = np.unique(sum(sigma[ids[:, j]] for j in range(length)).view(
            np.dtype((np.void, 8 * n))).ravel(), return_inverse=True)
        totals = totals.view(np.int32).reshape(-1, 2 * n)
        codes = total_id.astype(np.int64)[word] << 2 * n
        for j in range(length - 1):
            codes |= form_bit[chosen[:, j]]
        del word, chosen
        codes, sums = _sum_runs(codes, value)
        bits = codes[:, None] >> np.arange(2 * n) & 1  # by one-form index
        even = totals[codes >> 2 * n] - bits[:, form_of]
        odd = np.nonzero(bits)[1].reshape(len(codes), length - 1)
        acc.update(((tuple(e), tuple(o)), v)
                   for e, o, v in zip(even.tolist(), odd.tolist(), sums.tolist()))
    den = c.den * factorial(top)
    return PolyForm(c.n, tuple(sorted((key, Fraction(v, den)) for key, v in acc.items())))


def volume_form(n: int) -> PolyForm:
    """dy1 ^ dz1 ^ dy2 ^ dz2 ^ ... ^ dyn ^ dzn.

    Each dy_i ^ dz_i is -dz_i ^ dy_i, and these 2-forms commute, so in
    sorted index order the form is the single term (-1)^n dz1 ^ dy1 ^ ...
    ^ dzn ^ dyn.
    """
    return PolyForm(n, ((((0,) * (2 * n), tuple(range(2 * n))), Fraction((-1) ** n)),))
