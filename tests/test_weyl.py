"""Exact arithmetic in the normal-ordered operator algebra.

The reordering closed form is never trusted on its own: `apply` (the
action on polynomials, defined by falling factorials only) serves as the
independent oracle, and associativity / composition are checked on seeded
random elements.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochheat.weyl import (
    WeylElement,
    WeylMonomial,
    add,
    apply,
    commutator,
    d_var,
    disjoint_embed,
    format_element,
    mono_product,
    monomial,
    mul,
    parse_element,
    scale,
    unit,
    z_var,
    zero,
)


def random_element(rng: random.Random, n: int, max_deg: int = 2, max_terms: int = 3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        z_exp = tuple(rng.randint(0, max_deg) for _ in range(n))
        d_exp = tuple(rng.randint(0, max_deg) for _ in range(n))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms.append((WeylMonomial(n, z_exp, d_exp), coeff))
    return WeylElement.from_terms(n, terms)


def random_poly(rng: random.Random, n: int, max_deg: int = 3):
    p = {}
    for _ in range(rng.randint(1, 4)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        p[exps] = p.get(exps, Fraction(0)) + Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return {e: c for e, c in p.items() if c}


def test_commutation_relation():
    n = 2
    for i in (1, 2):
        for j in (1, 2):
            expected = unit(n) if i == j else zero(n)
            assert commutator(d_var(i, n), z_var(j, n)) == expected


def test_reordering_example_d2_z2():
    # d1^2 * z1^2 = z1^2 d1^2 + 4 z1 d1 + 2
    n = 1
    lhs = mul(mul(d_var(1, n), d_var(1, n)), mul(z_var(1, n), z_var(1, n)))
    expected = add(
        add(monomial(n, (2,), (2,)), monomial(n, (1,), (1,), 4)),
        monomial(n, (0,), (0,), 2),
    )
    assert lhs == expected
    # oracle: the operator sends f to (z^2 f)'', so z^m -> (m+2)(m+1) z^m
    for m in range(5):
        via_mul = apply(lhs, {(m,): Fraction(1)})
        assert via_mul == {(m,): Fraction((m + 2) * (m + 1))}


def test_commutator_euler_with_z():
    n = 1
    euler = mul(z_var(1, n), d_var(1, n))
    assert commutator(euler, z_var(1, n)) == z_var(1, n)


def test_mul_matches_apply_oracle():
    rng = random.Random(20240817)
    for _ in range(200):
        n = rng.choice([1, 2])
        a = random_element(rng, n)
        b = random_element(rng, n)
        p = random_poly(rng, n)
        assert apply(mul(a, b), p) == apply(a, apply(b, p))


def test_mono_product_matches_apply_oracle():
    rng = random.Random(4711)
    for _ in range(300):
        n = rng.randint(1, 3)

        def exps():
            return tuple(rng.randint(0, 3) for _ in range(n))

        a, b = (exps(), exps()), (exps(), exps())
        product = WeylElement.from_terms(
            n, [(WeylMonomial(n, *key), Fraction(c)) for key, c in mono_product(a, b)])
        p = random_poly(rng, n, max_deg=5)
        assert apply(product, p) == apply(monomial(n, *a), apply(monomial(n, *b), p))


def test_mul_associative():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.choice([1, 2])
        a, b, c = (random_element(rng, n) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_distributivity_and_scaling():
    rng = random.Random(7)
    for _ in range(100):
        n = 2
        a, b, c = (random_element(rng, n) for _ in range(3))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert scale(Fraction(3, 2), add(a, b)) == add(
            scale(Fraction(3, 2), a), scale(Fraction(3, 2), b)
        )


def test_unit_is_neutral():
    rng = random.Random(3)
    for _ in range(20):
        a = random_element(rng, 2)
        assert mul(unit(2), a) == a
        assert mul(a, unit(2)) == a


def test_disjoint_embed_centralizes():
    # images of disjoint blocks commute
    rng = random.Random(5)
    for _ in range(50):
        a = random_element(rng, 1)
        b = random_element(rng, 1)
        ea = disjoint_embed(a, 0, 2)
        eb = disjoint_embed(b, 1, 2)
        assert commutator(ea, eb) == zero(2)
    # and embedding is an algebra map
    for _ in range(50):
        a = random_element(rng, 1)
        b = random_element(rng, 1)
        assert disjoint_embed(mul(a, b), 1, 3) == mul(
            disjoint_embed(a, 1, 3), disjoint_embed(b, 1, 3)
        )


def test_text_round_trip_examples():
    e = add(monomial(1, (2,), (1,), Fraction(3, 2)), unit(1))
    assert format_element(e) == "3/2*z1^2*d1 + 1"
    assert parse_element("3/2*z1^2*d1 + 1", 1) == e
    assert parse_element("0") == zero(1)
    assert format_element(zero(2)) == "0"


def test_text_round_trip_random():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.choice([1, 2, 3])
        a = random_element(rng, n)
        assert parse_element(format_element(a), n) == a


@st.composite
def elements(draw):
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    terms = draw(st.lists(st.tuples(exps, exps, coeffs), max_size=4))
    return WeylElement.from_terms(n, [(WeylMonomial(n, z, d), c) for z, d, c in terms])


@settings(deadline=None)
@given(elements())
def test_text_round_trip_property(a):
    assert parse_element(format_element(a), a.n) == a


def test_parse_reorders_products():
    # d1*z1 is a product, not a normal-ordered monomial
    assert parse_element("d1*z1", 1) == add(monomial(1, (1,), (1,)), unit(1))


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_element("z1^^2")
    with pytest.raises(ValueError):
        parse_element("q3 + 1")
    with pytest.raises(ValueError):
        parse_element("z3", n=2)


@pytest.mark.parametrize(
    "text",
    ["z1 - - d1", "2*z1 + + d1", "z1 -", "z1 +", "3/0*z1"],
    ids=["double-minus", "double-plus", "trailing-minus", "trailing-plus", "zero-denominator"],
)
def test_parse_rejects_malformed_terms(text):
    with pytest.raises(ValueError):
        parse_element(text)
