"""Seeded random elements, chains and column vectors for property checks.

Everything here is driven by an explicit `random.Random` so that runs are
reproducible from a single integer seed (the CLI exposes --seed).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .chains import TensorChain, TsyganColumnVector
from .weyl import WeylElement


def random_element(rng: random.Random, n: int, max_deg: int = 2) -> WeylElement:
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


def random_chain(
    rng: random.Random,
    n: int,
    degree: int,
    words: int = 2,
    max_deg: int = 2,
) -> TensorChain:
    raw = []
    for _ in range(words):
        word = tuple(random_element(rng, n, max_deg=max_deg) for _ in range(degree + 1))
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        raw.append((coeff, word))
    return TensorChain.from_terms(n, raw)


def random_column_vector(rng: random.Random, n: int) -> TsyganColumnVector:
    """One or two entries in columns 0..3, each a chain of degree 0..3."""
    entries = []
    for _ in range(rng.randint(1, 2)):
        col = rng.randint(0, 3)
        degree = rng.randint(0, 3)
        entries.append((col, random_chain(rng, n, degree, words=rng.randint(1, 2), max_deg=1)))
    return TsyganColumnVector.from_entries(n, entries)
