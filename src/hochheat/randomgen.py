"""Seeded random elements, chains and column vectors for property checks.

Everything here is driven by an explicit `random.Random` so that runs are
reproducible from a single integer seed (the CLI exposes --seed).

The draws are made straight into packed keys and int numerators: the
exponents z1..zn, d1..dn of a monomial are shifted into its key in the
order they are drawn, and a coefficient p/q with q in {1, 2} is kept as
the numerator p * (2 // q) over 2.  Each draw of one of `size` values is
CPython's `_randbelow(size)`, written out inline on `rng.getrandbits`, one
`while` line per draw: `size.bit_length()` bits, drawn again while they are
`size` or more.  CPython draws `choice(seq)` as seq[_randbelow(len(seq))]
and `randint(a, b)` as a + _randbelow(b - a + 1), so the stream and every
value are the ones of the `Fraction`-built generator in `tests/oracles.py`,
which these functions are checked against.
"""

from __future__ import annotations

import random
from itertools import product
from math import prod

from . import chains, weyl
from .chains import TensorChain, TsyganColumnVector
from .weyl import FIELD_BITS, WeylElement


def random_element(rng: random.Random, n: int, max_deg: int = 2) -> WeylElement:
    """A nonzero element of one or two terms, exponents up to `max_deg`."""
    bits, size = rng.getrandbits, max_deg + 1
    width = size.bit_length()
    while True:
        acc = {}
        while (terms := bits(2)) > 1: pass  # one or two terms
        for _ in range(terms + 1):
            key = 0
            for _ in range(2 * n):
                while (e := bits(width)) >= size: pass
                key = key << FIELD_BITS | e
            while (p := bits(3)) > 6: pass  # the numerator p - 3
            while (q := bits(2)) > 1: pass  # the denominator q + 1
            acc[key] = acc.get(key, 0) + (2 * (p - 3) if q == 0 else p - 3)
        el = weyl._canonical(n, acc, 2)
        if el.nums:
            return el


def random_chain(
    rng: random.Random,
    n: int,
    degree: int,
    words: int = 2,
    max_deg: int = 2,
) -> TensorChain:
    """`words` words of degree + 1 random elements, each with a coefficient p/q,
    |p| <= 3 and q in {1, 2}, expanded multilinearly over the one denominator
    2^(degree + 2), which every slot denominator and q divide."""
    bits, den = rng.getrandbits, 1 << (degree + 2)
    acc = {}
    get = acc.get
    for _ in range(words):
        slots = [random_element(rng, n, max_deg) for _ in range(degree + 1)]
        while (p := bits(3)) > 6: pass  # the numerator p - 3
        while (q := bits(2)) > 1: pass  # the denominator q + 1
        scale = (p - 3) * (den // (q + 1) // prod(el.den for el in slots))
        for terms in product(*(el.nums for el in slots)):
            w = tuple(key for key, _ in terms)
            acc[w] = get(w, 0) + scale * prod(m for _, m in terms)
    return chains._canonical(n, acc, den)


def random_column_vector(rng: random.Random, n: int) -> TsyganColumnVector:
    """One or two entries in columns 0..3, each a chain of degree 0..3."""
    bits, entries = rng.getrandbits, []
    while (count := bits(2)) > 1: pass  # one or two entries
    for _ in range(count + 1):
        while (col := bits(3)) > 3: pass
        while (degree := bits(3)) > 3: pass
        while (words := bits(2)) > 1: pass  # one or two words
        entries.append((col, random_chain(rng, n, degree, words=words + 1, max_deg=1)))
    return TsyganColumnVector.from_entries(n, entries)
