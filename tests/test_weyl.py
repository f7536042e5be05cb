"""Exact arithmetic in the normal-ordered operator algebra.

The reordering closed form is never trusted on its own: `oracles.apply`
(the action on polynomials, defined by falling factorials only) serves as
the independent oracle, and associativity / composition are checked on
seeded random elements.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hochheat
from hochheat import chains, weyl
from hochheat.weyl import (
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_VARIABLES,
    WeylElement,
    d_var,
    format_element,
    format_monomial,
    mono_product,
    mul,
    pack,
    parse_monomial,
    unit,
    unpack,
    z_var,
)
from oracles import (MAX_TERMS, add, apply, commutator, disjoint_embed, key_product, monomial,
                     mono_product_by_variables, parse_element, scale, zero)


def random_element(rng: random.Random, n: int, max_deg: int = 2, max_terms: int = 3):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        z_exp = tuple(rng.randint(0, max_deg) for _ in range(n))
        d_exp = tuple(rng.randint(0, max_deg) for _ in range(n))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms.append(((z_exp, d_exp), coeff))
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
        terms = [(unpack(key, n), c) for key, c in mono_product(pack(a), pack(b), n)]
        assert sorted(terms) == sorted(key_product(a, b))
        product = WeylElement.from_terms(n, [(key, Fraction(c)) for key, c in terms])
        p = random_poly(rng, n, max_deg=5)
        assert apply(product, p) == apply(monomial(n, *a), apply(monomial(n, *b), p))


def _key_pairs(rng: random.Random, n: int, count: int):
    """`count` random pairs of packed keys in n variables, exponents 0..8, of at most 4096
    product terms; past 4 variables most fields are 0."""
    live = min(1.0, 4 / n)
    pairs = []
    while len(pairs) < count:
        a, b = ([rng.randint(1, 8) if rng.random() < live else 0 for _ in range(2 * n)]
                for _ in range(2))
        if math.prod(min(q, r) + 1 for q, r in zip(a[n:], b[:n])) <= 4096:
            pairs.append(tuple(pack((tuple(e[:n]), tuple(e[n:]))) for e in (a, b)))
    return pairs


@pytest.mark.parametrize("n", [1, 2, 4, MAX_VARIABLES])
def test_mono_product_returns_the_reference_terms_in_their_order(n):
    pairs = _key_pairs(random.Random(4231 + n), n, 300)
    want = [mono_product_by_variables(a, b, n) for a, b in pairs]
    assert sum(len(terms) > 1 for terms in want) > 50
    mono_product.cache_clear()
    weyl._contractions.cache_clear()
    assert [mono_product(a, b, n) for a, b in pairs] == want  # both tables cold
    mono_product.cache_clear()
    # each pair twice: from the warm contraction table, then from the product cache
    assert [mono_product(a, b, n) for a, b in pairs for _ in range(2)
            ] == [terms for terms in want for _ in range(2)]
    unit_key, top = pack(((0,) * n, (0,) * n)), pack(((MAX_EXPONENT,) + (0,) * (n - 1), (0,) * n))
    one = pack(((1,) + (0,) * (n - 1), (0,) * n))
    d_top, d_one = (pack(((0,) * n, (0,) * (n - 1) + (e,))) for e in (MAX_EXPONENT, 1))
    for _ in range(3):
        for bad_n in (0, MAX_VARIABLES + 1):
            with pytest.raises(ValueError, match="variables"):
                mono_product(one, one, bad_n)
        for a, b in ((top, one), (one, top), (d_top, d_one), (d_one, d_top)):
            with pytest.raises(ValueError, match=str(MAX_EXPONENT)):
                mono_product(a, b, n)
        assert mono_product(top, unit_key, n) == ((top, 1),)


@pytest.mark.parametrize("n", [3, MAX_VARIABLES])
def test_mono_product_matches_the_apply_oracle_on_the_end_fields(n):
    # the first and the last variable are the fields at both ends of a key; a few
    # others may be nonzero too, so a product has at most 4^4 terms
    rng = random.Random(2718 + n)
    for _ in range(100):
        live = {0, n - 1, *rng.sample(range(n), 2)}

        def exps():
            return tuple(rng.randint(0, 3) if i in live else 0 for i in range(n))

        a, b = (exps(), exps()), (exps(), exps())
        terms = [(unpack(key, n), c) for key, c in mono_product(pack(a), pack(b), n)]
        assert sorted(terms) == sorted(key_product(a, b))
        product = WeylElement.from_terms(n, [(key, Fraction(c)) for key, c in terms])
        p = random_poly(rng, n, max_deg=5)
        assert apply(product, p) == apply(monomial(n, *a), apply(monomial(n, *b), p))


_KEYS = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, MAX_EXPONENT)] * (2 * n)).map(lambda e: (e[:n], e[n:])),
    min_size=1, max_size=6))


@settings(deadline=None)
@given(_KEYS)
def test_packing_preserves_key_and_word_order(keys):
    n = len(keys[0][0])
    packed = [pack(key) for key in keys]
    assert [unpack(p, n) for p in packed] == keys
    assert pack(((0,) * n, (0,) * n)) == 0
    for i in range(len(keys)):
        for j in range(len(keys)):
            assert (packed[i] < packed[j]) == (keys[i] < keys[j])
        # two words of keys, of lengths i and len(keys) - i
        assert ((tuple(packed[:i]) < tuple(packed[i:]))
                == (tuple(keys[:i]) < tuple(keys[i:])))


@pytest.mark.parametrize("key", [((MAX_EXPONENT + 1,), (0,)), ((0, 0), (0, MAX_EXPONENT + 1)),
                                 ((-1,), (0,))], ids=["z-field", "last-field", "negative"])
def test_pack_refuses_an_exponent_outside_the_field_bound(key):
    with pytest.raises(ValueError, match=str(MAX_EXPONENT)):
        pack(key)


_ZEROS = (0,) * MAX_VARIABLES


@pytest.mark.parametrize("a, b", [
    (((MAX_EXPONENT,), (0,)), ((1,), (0,))),
    (((0, 0), (0, MAX_EXPONENT)), ((0, 0), (0, 1))),
    (((1, MAX_EXPONENT), (1, 0)), ((1, 1), (0, 0))),
    # no contraction, in the end fields of a key in the most variables
    (((MAX_EXPONENT,) + _ZEROS[1:], _ZEROS), ((1,) + _ZEROS[1:], _ZEROS)),
    ((_ZEROS, _ZEROS[1:] + (MAX_EXPONENT,)), (_ZEROS, _ZEROS[1:] + (1,)))],
    ids=["first-field", "last-field", "inner-field-with-a-contraction",
         "first-field-of-the-most-variables", "last-field-of-the-most-variables"])
def test_a_product_past_the_field_bound_raises_and_does_not_carry(a, b):
    n = len(a[0])
    with pytest.raises(ValueError, match=str(MAX_EXPONENT)):
        mono_product(pack(a), pack(b), n)
    with pytest.raises(ValueError, match=str(MAX_EXPONENT)):
        mul(monomial(n, *a), monomial(n, *b))


def test_a_product_reaches_the_field_bound_exactly():
    top = pack(((MAX_EXPONENT, 0), (0, MAX_EXPONENT)))
    assert mono_product(pack(((MAX_EXPONENT - 1, 0), (0, 0))), pack(((1, 0), (0, MAX_EXPONENT))),
                        2) == ((top, 1),)


@pytest.mark.parametrize("n", [0, -1, MAX_VARIABLES + 1])
def test_mono_product_refuses_a_variable_count_outside_the_bound(n):
    for _ in range(2):  # the cache keeps no refusal: a repeat raises again
        with pytest.raises(ValueError, match=f"outside 1..{MAX_VARIABLES}"):
            mono_product(1, 1, n)


def test_a_repeated_product_past_the_field_bound_raises_every_time():
    a, b = pack(((MAX_EXPONENT, 0), (0, 0))), pack(((1, 0), (0, 0)))
    for _ in range(3):
        with pytest.raises(ValueError, match=str(MAX_EXPONENT)):
            mono_product(a, b, 2)


def _is_frozen(value):
    """Whether value is built of tuples, ints and strings only, so no caller can change it."""
    if isinstance(value, tuple):
        return all(map(_is_frozen, value))
    return type(value) in (int, str)


def test_the_memoized_kernels_return_immutable_values():
    a, b = pack(((0, 1), (2, 0))), pack(((3, 0), (0, 1)))
    terms = mono_product(a, b, 2)
    assert _is_frozen(terms) and len(terms) == 3
    assert mono_product(a, b, 2) is terms
    key = parse_monomial("z2*d1^2", 2)
    assert key == ((0, 1), (2, 0)) and _is_frozen(key)
    text = format_monomial(key)
    assert text == "z2*d1^2" and format_monomial(key) is text
    slot = chains._slot_key(text, 2)
    assert slot == pack(key) and chains._slot_key(text, 2) is slot
    assert _is_frozen(chains._coefficient("-3/4")) and chains._coefficient("-3/4") == (-3, 4)


def test_every_cache_of_the_package_is_bounded():
    modules = [importlib.import_module(f"hochheat.{info.name}")
               for info in pkgutil.iter_modules(hochheat.__path__)]
    caches = {f"{mod.__name__}.{name}": obj.cache_info().maxsize
              for mod in modules for name, obj in vars(mod).items()
              if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__}
    assert {"hochheat.weyl.unpack", "hochheat.weyl._contractions",
            "hochheat.chains._shuffles"} <= set(caches)
    assert all(size is not None and 0 < size <= 4096 for size in caches.values()), caches
    assert [caches[name] for name in ("hochheat.weyl.mono_product", "hochheat.weyl.format_monomial",
                                      "hochheat.weyl._contractions", "hochheat.chains._slot_key",
                                      "hochheat.chains._coefficient")] == [256] * 5


def _is_canonical(e):
    keys = [key for key, _ in e.nums]
    return (e.den >= 1 and all(type(k) is int and k for _, k in e.nums)
            and math.gcd(e.den, *(k for _, k in e.nums)) == 1 and keys == sorted(set(keys), reverse=True))


def test_one_element_has_one_canonical_form():
    a, b, c = ((2,), (1,)), ((0,), (0,)), ((1,), (3,))
    e = WeylElement.from_terms(1, [(a, Fraction(3, 2)), (b, Fraction(1, 2))])
    forms = [
        [(b, Fraction(1, 2)), (a, Fraction(3, 2))],                               # permuted
        [(a, Fraction(1, 2)), (b, Fraction(1, 2)), (a, 1)],                         # a repeated key
        [(a, Fraction(1, 6)), (a, Fraction(4, 3)), (b, Fraction(1, 4)), (b, Fraction(1, 4))],
        [(c, Fraction(2, 7)), (a, Fraction(3, 2)), (b, Fraction(1, 2)), (c, Fraction(-2, 7))],
    ]
    for terms in forms:
        f = WeylElement.from_terms(1, terms)
        assert f == e and hash(f) == hash(e) and _is_canonical(f)
        assert {e: "found"}[f] == "found"  # equal elements are one dict key
    assert (e.nums, e.den) == (((pack(a), 3), (pack(b), 1)), 2)
    gone = WeylElement.from_terms(1, [(a, Fraction(1, 3)), (c, 5), (a, Fraction(-1, 3)), (c, -5)])
    assert gone == zero(1) and (gone.nums, gone.den) == ((), 1) and gone.is_zero()


def test_products_are_canonical():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.choice([1, 2])
        a, b = random_element(rng, n), random_element(rng, n)
        product = mul(a, b)
        assert _is_canonical(product)
        assert product == WeylElement.from_terms(n, product.terms)


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


@pytest.mark.parametrize("i", [0, 3])
def test_generators_refuse_an_index_out_of_range(i):
    with pytest.raises(ValueError, match="out of range"):
        z_var(i, 2)
    with pytest.raises(ValueError, match="out of range"):
        d_var(i, 2)


def test_mul_refuses_different_variable_counts():
    with pytest.raises(ValueError, match="different variable counts"):
        mul(z_var(1, 1), z_var(1, 2))


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
    return WeylElement.from_terms(n, [((z, d), c) for z, d, c in terms])


@settings(deadline=None)
@given(elements())
def test_text_round_trip_property(a):
    assert parse_element(format_element(a), a.n) == a


@settings(deadline=None)
@given(elements())
def test_from_terms_of_the_terms_view_is_the_element(e):
    assert _is_canonical(e)
    assert WeylElement.from_terms(e.n, e.terms) == e
    assert [key for key, _ in e.terms] == sorted((key for key, _ in e.terms), reverse=True)


@pytest.mark.parametrize(
    "z_exp, d_exp",
    [((1,), (0, 0)), ((1, 0, 2), (0, 0)), ((-1, 0), (0, 0)), ((0, 0), (2, -3))],
    ids=["short-d", "long-z", "negative-z", "negative-d"],
)
def test_from_terms_and_monomial_refuse_bad_exponents(z_exp, d_exp):
    with pytest.raises(ValueError):
        WeylElement.from_terms(2, [((z_exp, d_exp), Fraction(1))])
    with pytest.raises(ValueError):
        monomial(2, z_exp, d_exp)


@pytest.mark.parametrize("coeff", [0.5, 0.1, "1/2", None], ids=["binary-float", "float", "text", "none"])
def test_from_terms_refuses_an_inexact_coefficient(coeff):
    # 0.5 used to die with an AttributeError from reading float.numerator
    with pytest.raises(ValueError, match=f"coefficient {re.escape(repr(coeff))} is not an int"):
        WeylElement.from_terms(1, [(((1,), (0,)), coeff)])
    exact = WeylElement.from_terms(1, [(((1,), (0,)), 3), (((0,), (0,)), Fraction(1, 2))])
    assert (exact.nums, exact.den) == (((pack(((1,), (0,))), 6), (0, 1)), 2)


@pytest.mark.parametrize("n", [True, 1.0, "1"], ids=["bool", "float", "text"])
def test_from_terms_refuses_a_variable_count_that_is_not_an_int(n):
    # True and 1.0 used to build an element whose n was not an int
    with pytest.raises(ValueError, match=re.escape(f"element needs an integer n, got {n!r}")):
        WeylElement.from_terms(n, [(((1,), (0,)), 1)])


def test_keys_in_more_than_the_most_variables_are_refused():
    n = MAX_VARIABLES + 1
    assert mul(z_var(1, n - 1), d_var(n - 1, n - 1)) == monomial(n - 1, (1,) + _ZEROS[1:],
                                                                 _ZEROS[1:] + (1,))
    with pytest.raises(ValueError, match=f"more than {MAX_VARIABLES}"):
        z_var(1, n)
    with pytest.raises(ValueError, match=f"more than {MAX_VARIABLES}"):
        WeylElement.from_terms(n, [(((0,) * n, (0,) * n), 1)])


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


def test_parse_bounds_the_variable_index():
    top = MAX_VARIABLES
    assert parse_element(f"z{top}").n == top
    with pytest.raises(ValueError):
        parse_element(f"z{top + 1}")
    with pytest.raises(ValueError):
        parse_element("z1", n=top + 1)


def test_parse_bounds_the_degree_of_a_term():
    assert parse_element(f"d1^{MAX_DEGREE // 2}*z1^{MAX_DEGREE // 2}").n == 1
    with pytest.raises(ValueError):
        parse_element(f"z1^{MAX_DEGREE + 1}")
    # the bound is on the whole term, so repeating a factor does not get round it
    with pytest.raises(ValueError):
        parse_element(f"d1^{MAX_DEGREE}*d1")


def test_parse_bounds_the_expansion_of_a_term():
    # d_i * z_i = z_i d_i + 1, so the first m variable pairs expand to 2^m monomials
    m = MAX_TERMS.bit_length() - 1
    assert len(parse_element("*".join(f"d{i}*z{i}" for i in range(1, m + 1))).terms) == MAX_TERMS
    with pytest.raises(ValueError):
        parse_element("*".join(f"d{i}*z{i}" for i in range(1, m + 2)))
