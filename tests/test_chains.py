"""Chain complexes over the operator algebra: differentials, cyclic
operators, the column bicomplex, shuffles and the canonical cycles.

All identities here are exact; no tolerances appear anywhere.
"""

from __future__ import annotations

import gc
import json
import math
import random
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hochheat import chains as chains_module
from hochheat.chains import (
    ARRAY_TERMS,
    ARRAY_WORDS,
    MAX_COEFF_DIGITS,
    TensorChain,
    _array_boundary,
    _canonical,
    _json_int,
    _shuffles,
    TsyganColumnVector,
    bar_bprime,
    chain_from_json,
    chain_to_json,
    cyclic_tau,
    hochschild_b,
    norm_n,
    normalize,
    normalized_omega_formula,
    omega_cycle,
    shuffle_product,
    tsygan_d,
)
from hochheat.forms import hkr_symbol, volume_form
from hochheat.suite import SuiteConfig, run_suite
from hochheat.randomgen import random_chain, random_column_vector, random_element
from hochheat.weyl import (MAX_DEGREE, MAX_EXPONENT, MAX_VARIABLES, WeylElement, d_var,
                           format_element, format_monomial, mono_product, pack, parse_monomial,
                           unit, unpack, z_var)
from oracles import (column, draw_chain, draw_column_vector, draw_element, key_product, monomial,
                     normalized_omega_by_inversions, parse_element, scale)


def one_word(n, coeff, slots):
    return TensorChain.word(n, coeff, slots)


# ---------------------------------------------------------------------------
# differentials
# ---------------------------------------------------------------------------


def test_b_of_unit_cube():
    n = 1
    c = one_word(n, 1, [unit(n)] * 3)
    assert hochschild_b(c) == one_word(n, 1, [unit(n)] * 2)


def test_b_squared_zero_random():
    rng = random.Random(2024)
    for _ in range(120):
        n = rng.choice([1, 2])
        c = random_chain(rng, n, degree=rng.randint(1, 4))
        assert hochschild_b(hochschild_b(c)).is_zero()


def test_bprime_squared_zero_random():
    rng = random.Random(2025)
    for _ in range(120):
        n = rng.choice([1, 2])
        c = random_chain(rng, n, degree=rng.randint(1, 4))
        assert bar_bprime(bar_bprime(c)).is_zero()


def test_tau_order_and_signs():
    rng = random.Random(31)
    # tau^(k+1) is the identity on degree-k words: k+1 rotations restore the
    # word and the sign (-1)^(k(k+1)) is always +1
    for k in range(5):
        c = random_chain(rng, 1, degree=k, words=1)
        out = c
        for _ in range(k + 1):
            out = cyclic_tau(out)
        assert out == c
    # explicit sign on degree 1: tau(a (x) b) = -(b (x) a)
    a = z_var(1, 1)
    b = d_var(1, 1)
    assert cyclic_tau(one_word(1, 1, [a, b])) == one_word(1, -1, [b, a])


def test_norm_kills_unit_square():
    n = 1
    c = one_word(n, 1, [unit(n), unit(n)])
    assert norm_n(c).is_zero()


def test_complex_identities_random():
    rng = random.Random(777)
    for _ in range(120):
        n = rng.choice([1, 2])
        c = random_chain(rng, n, degree=rng.randint(1, 4))
        one_minus_tau = c - cyclic_tau(c)
        # b (1 - tau) = (1 - tau) b'
        lhs = hochschild_b(one_minus_tau)
        bp = bar_bprime(c)
        assert lhs == bp - cyclic_tau(bp)
        # b' N = N b
        assert bar_bprime(norm_n(c)) == norm_n(hochschild_b(c))
        # N (1 - tau) = (1 - tau) N = 0
        assert norm_n(one_minus_tau).is_zero()
        nc = norm_n(c)
        assert (nc - cyclic_tau(nc)).is_zero()


# ---------------------------------------------------------------------------
# column bicomplex
# ---------------------------------------------------------------------------


def test_tsygan_d_squared_zero_random():
    rng = random.Random(4242)
    for _ in range(60):
        v = random_column_vector(rng, rng.choice([1, 2]))
        assert tsygan_d(tsygan_d(v)).is_zero()


def test_tsygan_d_on_even_column_cycle():
    # a closed chain in an even column maps to just its norm in column p-1
    c = omega_cycle(1)
    v = TsyganColumnVector.from_entries(1, [(2, c)])
    dv = tsygan_d(v)
    assert column(dv, 2).is_zero()
    assert column(dv, 1) == norm_n(c)


def test_tsygan_d_on_odd_column():
    rng = random.Random(9)
    c = random_chain(rng, 1, degree=2)
    v = TsyganColumnVector.from_entries(1, [(3, c)])
    dv = tsygan_d(v)
    assert column(dv, 3) == (-1) * bar_bprime(c)
    assert column(dv, 2) == c - cyclic_tau(c)


# ---------------------------------------------------------------------------
# shuffles
# ---------------------------------------------------------------------------


def test_shuffle_two_by_two_example():
    a0, a1 = z_var(1, 1), d_var(1, 1)
    b0, b1 = d_var(1, 1), z_var(1, 1)
    left = one_word(1, 1, [a0, a1])
    right = one_word(1, 1, [b0, b1])
    got = shuffle_product(left, right)
    # (a0 b0) (x) a1 (x) b1 - (a0 b0) (x) b1 (x) a1, with the second factor
    # moved to the second variable block
    n = 2
    head_terms = []
    from hochheat.weyl import mul
    from oracles import disjoint_embed

    head = mul(disjoint_embed(a0, 0, n), disjoint_embed(b0, 1, n))
    e_a1 = disjoint_embed(a1, 0, n)
    e_b1 = disjoint_embed(b1, 1, n)
    expected = TensorChain.from_terms(
        n,
        [
            (Fraction(1), (head, e_a1, e_b1)),
            (Fraction(-1), (head, e_b1, e_a1)),
        ],
    )
    assert got == expected


def test_shuffle_leibniz_random():
    rng = random.Random(515)
    for _ in range(60):
        p = rng.randint(1, 2)
        q = rng.randint(1, 2)
        x = random_chain(rng, 1, degree=p, words=1, max_deg=1)
        y = random_chain(rng, 1, degree=q, words=1, max_deg=1)
        sign = -1 if p % 2 else 1
        lhs = hochschild_b(shuffle_product(x, y))
        rhs = shuffle_product(hochschild_b(x), y) + sign * shuffle_product(x, hochschild_b(y))
        assert lhs == rhs


def test_shuffle_multiplicativity():
    w = {n: omega_cycle(n) for n in (1, 2, 3)}
    assert shuffle_product(w[1], w[1]) == w[2]
    assert shuffle_product(w[1], w[2]) == w[3]
    assert shuffle_product(w[2], w[1]) == w[3]


# ---------------------------------------------------------------------------
# canonical cycles
# ---------------------------------------------------------------------------


def test_omega_cycles_are_closed():
    for n in (1, 2, 3):
        assert hochschild_b(omega_cycle(n)).is_zero()


def test_omega_two_word_count_regression():
    # Independent enumeration: interleave the three two-letter words of each
    # factor over all (2,2)-shuffles, merging equal letter sequences.  The
    # two factors share the unit letter.
    def shuffles(p, q):
        for pos in combinations(range(p + q), p):
            inv = sum(pos[i] - i for i in range(p))
            yield pos, (-1) ** inv

    base1 = [(1, ("d1", "z1")), (-1, ("z1", "d1")), (1, ("1", "1"))]
    base2 = [(1, ("d2", "z2")), (-1, ("z2", "d2")), (1, ("1", "1"))]
    acc: dict = {}
    for c1, w1 in base1:
        for c2, w2 in base2:
            for pos, sgn in shuffles(2, 2):
                slots: list = [None] * 4
                for i, s in enumerate(pos):
                    slots[s] = w1[i]
                it = iter(w2)
                for s in range(4):
                    if slots[s] is None:
                        slots[s] = next(it)
                key = tuple(slots)
                acc[key] = acc.get(key, 0) + c1 * c2 * sgn
    independent_count = sum(1 for v in acc.values() if v)
    assert independent_count == 49
    assert len(omega_cycle(2).terms) == independent_count


def test_normalize_omega_matches_alternating_sum():
    for n in (1, 2):
        assert normalize(omega_cycle(n)) == normalized_omega_formula(n)


@pytest.mark.parametrize("n", [1, 2, 3, pytest.param(4, marks=pytest.mark.large)])
def test_carried_signs_equal_the_inversion_counts(n):
    formula = normalized_omega_formula(n)
    assert formula == normalized_omega_by_inversions(n)
    assert len(formula.nums) == math.factorial(2 * n)


def test_normalize_idempotent_and_compatible_with_b():
    rng = random.Random(88)
    for _ in range(60):
        c = random_chain(rng, 1, degree=rng.randint(1, 3))
        nc = normalize(c)
        assert normalize(nc) == nc
        # the degenerate words form a subcomplex, so killing them commutes
        # with b up to degenerate terms
        assert normalize(hochschild_b(nc)) == normalize(hochschild_b(c) - hochschild_b(c - nc))
        assert normalize(hochschild_b(normalize(c))) == normalize(hochschild_b(c))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_chain_json_round_trip():
    rng = random.Random(1234)
    for _ in range(25):
        n = rng.choice([1, 2])
        c = random_chain(rng, n, degree=rng.randint(0, 3))
        assert chain_from_json(chain_to_json(c)) == c
    c = omega_cycle(2)
    assert chain_from_json(chain_to_json(c)) == c


@st.composite
def chains(draw):
    n = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    element = st.lists(st.tuples(exps, exps, coeffs), max_size=2).map(
        lambda ts: WeylElement.from_terms(n, [((z, d), c) for z, d, c in ts]))
    words = draw(st.lists(st.tuples(coeffs, st.lists(element, min_size=1, max_size=4)), max_size=3))
    return TensorChain.from_terms(n, [(c, tuple(w)) for c, w in words])


@settings(deadline=None)
@given(chains())
def test_chain_json_round_trip_property(c):
    assert chain_from_json(chain_to_json(c)) == c


def _with_coeff(coeff):
    return {"n": 1, "terms": [{"coeff": coeff, "word": ["z1"]}]}


#: a chain JSON text whose coefficient is a bare 5000-digit integer, which json.dumps
#: cannot write past the interpreter's int() bound
_BARE_INT_TEXT = '{"n": 1, "terms": [{"coeff": ' + "7" * 5000 + ', "word": ["z1"]}]}'

#: one slot of 4000 distinct terms, about 73 kB, which the general element grammar
#: takes seconds to read, its running total merged again after every term
_LONG_SLOT = " + ".join([f"z1^{a}*z2^{b}*d3^{c}" for a in range(2, 20) for b in range(2, 20)
                         for c in range(2, 20)][:4000])


@pytest.mark.parametrize(
    "payload",
    [[], {"n": 0, "terms": []}, {"n": 1, "terms": [{"coeff": "1/0", "word": ["z1"]}]},
     {"n": 1, "terms": [{"coeff": "1", "word": []}]}, {"n": MAX_VARIABLES + 1, "terms": []},
     {"n": 1, "terms": [{"coeff": "1", "word": [f"z1^{MAX_DEGREE + 1}"]}]},
     _with_coeff(True), _with_coeff("1e10000000"), _with_coeff("1.5"), _with_coeff(" 1"),
     _with_coeff("1/2\n"), _with_coeff("+1"), _with_coeff("\u0661"),
     {"n": 3, "terms": [{"coeff": "1", "word": [_LONG_SLOT]}]},
     {"n": 1, "terms": [["1", ["z1"]]]},
     _with_coeff("7" * 5000), _with_coeff("-" + "7" * 5000), _with_coeff("7" * 5000 + "/3"),
     _with_coeff("3/" + "7" * 5000), _BARE_INT_TEXT,
     # a known slot text is looked up straight away; a word that is no list of texts is
     # still refused, also when its characters or keys are known slot texts
     {"n": 1, "terms": [{"coeff": "1", "word": ["1"]}, {"coeff": "1", "word": "1"}]},
     {"n": 1, "terms": [{"coeff": "1", "word": ["z1"]}, {"coeff": "1", "word": {"z1": 0}}]},
     {"n": 1, "terms": [{"coeff": "1", "word": ["z1"]}, {"coeff": "1", "word": ["z1", ["z1"]]}]}],
    ids=["not-an-object", "n-below-one", "zero-denominator", "empty-word", "n-above-bound",
         "degree-above-bound", "bool-coefficient", "exponent-coefficient", "decimal-coefficient",
         "padded-coefficient", "trailing-newline", "plus-sign", "non-ascii-digit",
         "slot-of-4000-terms", "term-not-an-object", "5000-digit-coefficient",
         "5000-digit-negative-coefficient", "5000-digit-numerator", "5000-digit-denominator",
         "5000-digit-bare-integer", "word-a-known-text", "word-an-object", "unhashable-slot"],
)
def test_chain_from_json_rejects_malformed_input(payload):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        chain_from_json(payload if isinstance(payload, str) else json.dumps(payload))
    # "1e10000000" would cost seconds to expand, and one more digit minutes
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text", [json.dumps(_with_coeff("7" * 5000 + "/3")), _BARE_INT_TEXT],
                         ids=["string", "bare-integer"])
def test_chain_from_json_names_the_coefficient_and_the_digit_bound(text):
    # past 4300 digits int() itself refuses, naming neither the coefficient nor a bound
    with pytest.raises(ValueError, match=f"coefficient '{'7' * 39}... has more than "
                                         f"{MAX_COEFF_DIGITS} digits"):
        chain_from_json(text)


def test_chain_from_json_reads_a_coefficient_of_the_largest_digit_count():
    big = int("7" * MAX_COEFF_DIGITS)
    for coeff in (str(big), f"-{big}/{big + 2}"):
        assert chain_from_json(json.dumps(_with_coeff(coeff))).terms[0][0] == Fraction(coeff)
    text = json.dumps(_with_coeff(0)).replace(" 0,", f" {big},")
    assert chain_from_json(text).terms[0][0] == big


@pytest.mark.parametrize("coeff", [Fraction(10 ** MAX_COEFF_DIGITS - 1),
                                   Fraction(-(10 ** MAX_COEFF_DIGITS - 1), 3),
                                   Fraction(2, 10 ** MAX_COEFF_DIGITS - 1)],
                         ids=["numerator", "negative-numerator", "denominator"])
def test_chain_json_round_trips_a_coefficient_of_the_largest_digit_count(coeff):
    c = TensorChain.from_terms(1, [(coeff, (z_var(1, 1),))])
    assert chain_from_json(chain_to_json(c)) == c


@pytest.mark.parametrize("coeff", [Fraction(10 ** MAX_COEFF_DIGITS),
                                   Fraction(-(10 ** MAX_COEFF_DIGITS)),
                                   Fraction(2, 10 ** MAX_COEFF_DIGITS + 1)],
                         ids=["numerator", "negative-numerator", "denominator"])
def test_chain_to_json_names_the_digit_bound(coeff):
    # one digit more: str() past 4300 digits would raise the interpreter's own error
    c = TensorChain.from_terms(1, [(coeff, (z_var(1, 1),))])
    with pytest.raises(ValueError, match=f"more than {MAX_COEFF_DIGITS} digits"):
        chain_to_json(c)


@pytest.mark.parametrize("z, d, text", [(65, 0, "z1^65"), (25, 40, "z1^25*d1^40"),
                                        (1000, 0, "z1^1000")])
def test_chain_to_json_refuses_a_slot_that_chain_from_json_refuses(z, d, text):
    # a key may hold exponents up to MAX_EXPONENT, but a slot text is read back only
    # up to degree MAX_DEGREE: the writer refuses with the reader's own message
    assert z + d > MAX_DEGREE and format_monomial(((z,), (d,))) == text
    c = TensorChain(1, {(0, pack(((z,), (d,)))): 3}, 1)
    with pytest.raises(ValueError) as written:
        chain_to_json(c)
    with pytest.raises(ValueError) as read:
        chain_from_json(json.dumps({"n": 1, "terms": [{"coeff": "3", "word": ["1", text]}]}))
    assert str(written.value) == str(read.value) and f"slot '{text}'" in str(read.value)


@pytest.mark.parametrize(
    "payload, shown",
    [({"n": 1, "terms": [{"coeff": "1", "word": list(range(20000))}]},
      "{'coeff': '1', 'word': [0, 1, 2, 3, 4, 5"),
     (_with_coeff("7" * 20000 + "/x"), "'" + "7" * 39),
     (_with_coeff("7" * 20000 + "/0"), "'" + "7" * 39),
     ({"n": 1, "terms": [{"coeff": "1", "word": ["z1*" * 20000]}]}, "'" + "z1*" * 13)],
    ids=["term", "coefficient", "zero-denominator", "slot"],
)
def test_chain_from_json_cuts_what_it_echoes_to_40_characters(payload, shown):
    with pytest.raises(ValueError) as err:
        chain_from_json(json.dumps(payload))
    # each echo is its repr's first 40 characters: a word of 20,000 non-string slots
    # was once echoed whole, in a 60,079-character message
    message = str(err.value)
    assert len(shown) == 40 and shown + "..." in message and len(message) < 140


@pytest.mark.parametrize("text", ["[" * 100000, '{"n": ' * 100000], ids=["array", "object"])
def test_chain_from_json_rejects_deeply_nested_input(text):
    with pytest.raises(ValueError):
        chain_from_json(text)


# The element-view JSON path that the key-based one replaced, kept as the oracle:
# every slot formatted through `format_element`, every slot text read through
# `parse_element` and every chain built with `from_terms`.


def _element_view_to_json(c):
    return json.dumps({"n": c.n, "terms": [
        {"coeff": str(coeff), "word": [format_element(el) for el in word]}
        for coeff, word in c.terms]}, indent=2)


def _element_view_from_json(text):
    payload = json.loads(text)
    n = payload["n"]
    return TensorChain.from_terms(n, [
        (Fraction(t["coeff"]), tuple(parse_element(s, n) for s in t["word"]))
        for t in payload["terms"]])


_GOLDEN_JSON = """{
  "n": 2,
  "terms": [
    {
      "coeff": "1/2",
      "word": [
        "1",
        "z1^2*d2",
        "d2"
      ]
    },
    {
      "coeff": "-3/4",
      "word": [
        "z2",
        "z1*z2*d1^3"
      ]
    }
  ]
}"""


def test_chain_to_json_writes_the_element_view_bytes():
    golden = TensorChain.from_terms(2, [
        (Fraction(1, 2), (unit(2), monomial(2, (2, 0), (0, 1)), d_var(2, 2))),
        (Fraction(-3, 4), (z_var(2, 2), monomial(2, (1, 1), (3, 0))))])
    assert chain_to_json(golden) == _GOLDEN_JSON
    assert chain_from_json(_GOLDEN_JSON) == golden
    rng = random.Random(4242)
    samples = [omega_cycle(n) for n in (1, 2, 3)]
    samples += [random_chain(rng, rng.choice([1, 2]), degree=rng.randint(0, 3)) for _ in range(60)]
    assert sum(c.den > 1 for c in samples) >= 20
    for c in samples:
        text = chain_to_json(c)
        assert text == _element_view_to_json(c)
        assert chain_from_json(text) == _element_view_from_json(text) == c


def test_chain_to_json_writes_the_zero_chain_as_dumps_does():
    zero = TensorChain(2, {}, 1)
    assert chain_to_json(zero) == json.dumps({"n": 2, "terms": []}, indent=2)
    assert chain_from_json(chain_to_json(zero)) == zero


@settings(deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 12), min_size=2 * n, max_size=2 * n))))
def test_monomial_reader_inverts_the_formatter(drawn):
    n, exps = drawn
    key = (tuple(exps[:n]), tuple(exps[n:]))
    text = format_monomial(key)
    if sum(exps) > MAX_DEGREE:
        assert parse_monomial(text, n) is None
        return
    assert parse_monomial(text, n) == key
    assert parse_element(text, n) == WeylElement.from_terms(n, [(key, 1)])


@pytest.mark.parametrize("text", ["d1*z1", "z1^1", "z1^0", "z01", "z2*z1", "z1*z1", "2*z1",
                                  "z1 + d1", "1", "0", "d1^01", "z4", " z1", "z1*",
                                  f"z1^{MAX_DEGREE // 2}*d1^{MAX_DEGREE // 2 + 1}"])
def test_chain_from_json_reads_other_slot_texts_like_parse_element(text):
    # the reader keeps one slot grammar: of these texts, most of which `parse_element`
    # reads, it reads only the canonical "1" and refuses the rest, naming the slot
    payload = json.dumps({"n": 3, "terms": [{"coeff": "2/3", "word": ["z1*d2", text]},
                                            {"coeff": "-1", "word": [text, "d3^2"]}]})
    if text == "1":
        assert parse_monomial(text, 3) == ((0, 0, 0), (0, 0, 0))
        assert chain_from_json(payload) == _element_view_from_json(payload)
        return
    assert parse_monomial(text, 3) is None
    with pytest.raises(ValueError, match="slot"):
        chain_from_json(payload)


def test_a_refused_slot_text_is_refused_again():
    # the monomial reader gives None for it, and every read of the chain refuses anew
    text = f"z1^{MAX_DEGREE}*d1"
    payload = json.dumps({"n": 1, "terms": [{"coeff": "1", "word": [text]}]})
    for _ in range(3):
        assert parse_monomial(text, 1) is None
        with pytest.raises(ValueError, match="slot"):
            chain_from_json(payload)
    assert parse_monomial(f"z1^{MAX_DEGREE}", 1) == ((MAX_DEGREE,), (0,))


def test_the_longest_slot_text_is_read_and_a_longer_one_is_not_cached(monkeypatch):
    n = MAX_VARIABLES
    # every generator of the most variables squared, of degree MAX_DEGREE: the longest text
    # the writer makes, since a factor's exponent above 2 costs more degree per character
    longest = format_monomial(((2,) * n, (2,) * n))
    assert len(longest) <= chains_module._LONGEST_SLOT
    parsed = []
    monkeypatch.setattr(chains_module, "parse_monomial",
                        lambda text, n: parsed.append(text) or parse_monomial(text, n))
    table = chains_module._slot_key
    table.cache_clear()
    payload = json.dumps({"n": n, "terms": [{"coeff": "1", "word": [longest]}]})
    want = TensorChain(n, {(pack(parse_monomial(longest, n)),): 1}, 1)
    assert chain_from_json(payload) == want and table.cache_info()[:2] == (0, 1)
    assert chain_from_json(payload) == want and table.cache_info()[:2] == (1, 1)
    assert parsed == [longest]
    # a longer text is refused unparsed, and the slot table keeps only the longest text
    for _ in range(2):
        with pytest.raises(ValueError, match="slot"):
            chain_from_json(json.dumps({"n": 1, "terms": [{"coeff": "1", "word": ["z1*" * 10 ** 5]}]}))
        assert parsed == [longest] and table.cache_info().currsize == 1
    assert chain_from_json(payload) == want and table.cache_info().hits == 2


@pytest.mark.parametrize("field,text,match", [
    ("word", f"z1^{MAX_DEGREE}*d1", "slot"), ("word", "d1*z1", "slot"),
    ("coeff", "1/0", "zero denominator"), ("coeff", "1.5", "not an integer"),
    ("coeff", "9" * (MAX_COEFF_DIGITS + 1), "digits")])
def test_a_refused_slot_or_coefficient_text_raises_on_every_call(field, text, match):
    # the slot and coefficient tables keep no refusal: each read is a miss that raises again
    table = chains_module._slot_key if field == "word" else chains_module._coefficient
    term = {"coeff": "1", "word": ["z1"], field: [text] if field == "word" else text}
    payload = json.dumps({"n": 1, "terms": [term]})
    for _ in range(3):
        misses = table.cache_info().misses
        with pytest.raises(ValueError, match=match):
            chain_from_json(payload)
        assert table.cache_info().misses == misses + 1


@pytest.mark.parametrize("text", [None, 5, b'{"n": 1, "terms": []}',
                                  bytearray('{"n": 1, "terms": []}'.encode("utf-16"))],
                         ids=["None", "int", "bytes", "bytearray-utf-16"])
def test_chain_from_json_refuses_any_input_but_a_str(text):
    with pytest.raises(ValueError, match=type(text).__name__):
        chain_from_json(text)


def test_canonical_round_trip_reads_keys_only(monkeypatch):
    rng = random.Random(99)
    samples = [omega_cycle(2)] + [random_chain(rng, 2, degree=rng.randint(0, 3)) for _ in range(20)]
    texts = [chain_to_json(c) for c in samples]

    def refuse(*args):
        raise AssertionError("a canonical chain was built through the element path")

    monkeypatch.setattr(TensorChain, "from_terms", staticmethod(refuse))
    for c, text in zip(samples, texts):
        assert chain_from_json(text) == c


def test_constructors_reject_an_empty_word():
    with pytest.raises(ValueError):
        TensorChain.from_terms(1, [(Fraction(1), ())])
    with pytest.raises(ValueError):
        TensorChain.word(1, 1, [])


def test_constructors_reject_bad_variable_counts():
    with pytest.raises(ValueError, match="n >= 1"):
        TensorChain.from_terms(0, [])
    with pytest.raises(ValueError, match="variable count"):
        TensorChain.word(2, 1, [unit(2), z_var(1, 1)])
    with pytest.raises(ValueError, match="different algebras"):
        TensorChain.word(1, 1, [unit(1)]) + TensorChain.word(2, 1, [unit(2)])
    with pytest.raises(ValueError, match="n >= 1"):
        omega_cycle(0)
    # True used to build a chain that chain_to_json wrote as "n": true, and 1.0 one that
    # chain_to_json failed on with a TypeError
    for n in (True, 1.0, "1"):
        with pytest.raises(ValueError, match=re.escape(f"integer n, got {n!r}")):
            TensorChain.from_terms(n, [(1, (unit(1), z_var(1, 1)))])
        with pytest.raises(ValueError, match=re.escape(f"integer n, got {n!r}")):
            TensorChain.word(n, 1, [unit(1)])


def test_from_terms_refuses_more_than_the_most_variables_as_the_json_reader_does():
    n = MAX_VARIABLES + 1
    message = re.escape(f"needs 1 <= n <= {MAX_VARIABLES}, got {n}")
    with pytest.raises(ValueError, match=message):
        TensorChain.from_terms(n, [])
    with pytest.raises(ValueError, match=message):
        chain_from_json(json.dumps({"n": n, "terms": []}))
    assert TensorChain.from_terms(MAX_VARIABLES, []).is_zero()


_INEXACT = pytest.mark.parametrize("coeff", [0.1, 0.5, "1/2", 1j, None],
                                   ids=["float", "binary-float", "text", "complex", "none"])


@_INEXACT
def test_from_terms_refuses_an_inexact_coefficient(coeff):
    # 0.1 was read as its binary expansion, over the denominator 2**55
    with pytest.raises(ValueError, match=f"coefficient {re.escape(repr(coeff))} is not an int"):
        TensorChain.from_terms(1, [(coeff, (z_var(1, 1),))])
    exact = TensorChain.from_terms(1, [(Fraction(1, 10), (z_var(1, 1),)), (3, (unit(1),))])
    assert (exact.nums, exact.den) == ({(pack(((1,), (0,))),): 1, (0,): 30}, 10)


@_INEXACT
def test_word_refuses_an_inexact_coefficient(coeff):
    with pytest.raises(ValueError, match=f"coefficient {re.escape(repr(coeff))} is not an int"):
        TensorChain.word(1, coeff, [z_var(1, 1)])
    assert TensorChain.word(1, Fraction(1, 2), [z_var(1, 1)]).den == 2


@_INEXACT
def test_scaling_refuses_an_inexact_coefficient(coeff):
    with pytest.raises(ValueError, match=f"coefficient {re.escape(repr(coeff))} is not an int"):
        coeff * omega_cycle(1)
    assert (Fraction(1, 10) * omega_cycle(1)).den == 10
    assert (True * omega_cycle(1)) == omega_cycle(1)


def test_a_shuffle_into_more_than_the_most_variables_is_refused():
    half = MAX_VARIABLES // 2 + 1
    c = TensorChain.word(half, 1, [z_var(1, half), d_var(half, half)])
    assert shuffle_product(c, TensorChain.word(half - 2, 1, [unit(half - 2)])).n == MAX_VARIABLES
    with pytest.raises(ValueError, match=f"more than {MAX_VARIABLES}"):
        shuffle_product(c, c)


def test_from_terms_refuses_an_exponent_past_the_field_bound():
    top = monomial(2, (0, 0), (0, MAX_EXPONENT))
    assert TensorChain.word(2, 1, [unit(2), top]).nums == {(0, MAX_EXPONENT): 1}
    with pytest.raises(ValueError, match=str(MAX_EXPONENT)):
        TensorChain.word(2, 1, [unit(2), monomial(2, (MAX_EXPONENT + 1, 0), (0, 0))])
    # a face whose product passes the bound raises rather than carry into the next field
    c = TensorChain.word(1, 1, [monomial(1, (MAX_EXPONENT,), (0,)), z_var(1, 1)])
    with pytest.raises(ValueError, match=str(MAX_EXPONENT)):
        hochschild_b(c)


def test_normalize_reads_the_packed_unit_as_the_scalar_slot():
    n = 2
    z, d = z_var(1, n), d_var(2, n)
    assert TensorChain.word(n, 1, [unit(n)]).nums == {(0,): 1}
    kept = TensorChain.word(n, 1, [unit(n), z, d]) + TensorChain.word(n, 2, [z, d, z])
    killed = sum((TensorChain.word(n, 1, w) for w in ([z, unit(n), d], [d, z, unit(n)],
                                                      [unit(n), unit(n), z])),
                 TensorChain(n, {}, 1))
    assert normalize(kept + killed) == kept


def test_column_vector_rejects_bad_entries():
    c = TensorChain.word(1, 1, [unit(1), z_var(1, 1)])
    with pytest.raises(ValueError, match="non-negative"):
        TsyganColumnVector.from_entries(1, [(-1, c)])
    with pytest.raises(ValueError, match="variable count"):
        TsyganColumnVector.from_entries(2, [(0, c)])


def test_chain_from_json_reads_an_integer_coefficient():
    payload = {"n": 1, "terms": [{"coeff": -3, "word": ["1", "z1"]}]}
    assert chain_from_json(json.dumps(payload)) == TensorChain.word(1, -3, [unit(1), z_var(1, 1)])


def test_mixed_degree_chains_supported():
    rng = random.Random(5)
    a = random_chain(rng, 1, degree=1)
    b = random_chain(rng, 1, degree=3)
    mixed = a + b
    assert {len(w) - 1 for w in mixed.nums} == {1, 3}
    assert hochschild_b(hochschild_b(mixed)).is_zero()


def test_scalar_slots_are_normalized_into_coefficients():
    # 1 (x) (2 z) and 2 (1 (x) z) are the same chain
    n = 1
    two_z = 2 * TensorChain.word(n, 1, [unit(n), z_var(1, n)])
    packed = TensorChain.word(n, 1, [unit(n), scale(2, z_var(1, n))])
    assert two_z == packed


# ---------------------------------------------------------------------------
# integer numerators over one denominator
# ---------------------------------------------------------------------------


def _is_canonical(c):
    return (c.den >= 1 and all(type(k) is int and k for k in c.nums.values())
            and math.gcd(c.den, *c.nums.values()) == 1)


def test_chains_are_stored_in_canonical_form():
    rng = random.Random(2718)
    z = z_var(1, 1)
    for _ in range(40):
        c = random_chain(rng, rng.choice([1, 2]), degree=rng.randint(0, 3))
        assert _is_canonical(c)
        assert Fraction(1, 3) * (3 * c) == c
        assert c + c - c == c
        # den is the least common denominator of the coefficients
        assert c.den == math.lcm(*(coeff.denominator for coeff, _ in c.terms))
        assert (c - c).den == 1 and (0 * c).den == 1
    assert 2 * one_word(1, Fraction(1, 4), [z]) == one_word(1, Fraction(1, 2), [z])
    half = chain_from_json(json.dumps({"n": 1, "terms": [{"coeff": "2/4", "word": ["z1"]}]}))
    assert half == one_word(1, Fraction(1, 2), [z])
    assert (half.nums, half.den) == ({(pack(((1,), (0,))),): 1}, 2)
    assert 0 * one_word(1, Fraction(1, 4), [z]) == TensorChain(1, {}, 1)


# The Fraction-valued kernels that the integer-numerator operators replaced, on
# chains given as {word of (z_exp, d_exp) keys: Fraction coefficient}, with
# products by `oracles.key_product`; the oracle below.


def _fractions(c):
    return {tuple(unpack(key, c.n) for key in w): Fraction(k, c.den) for w, k in c.nums.items()}


def _merged(pairs):
    acc = {}
    for w, coeff in pairs:
        acc[w] = acc.get(w, 0) + coeff
    return {w: k for w, k in acc.items() if k}


def _oracle_boundary(words, wrap):
    out = []
    for word, coeff in words.items():
        k = len(word) - 1
        faces = [(word[:i], word[i], word[i + 1], word[i + 2:], (-1) ** i) for i in range(k)]
        if wrap and k:
            faces.append(((), word[k], word[0], word[1:k], (-1) ** k))
        for head, a, b, tail, sign in faces:
            out += [(head + (key,) + tail, sign * m * coeff) for key, m in key_product(a, b)]
    return _merged(out)


def _oracle_tau(words):
    return {w[-1:] + w[:-1]: (-1) ** (len(w) - 1) * k for w, k in words.items()}


def _oracle_norm(words):
    return _merged((w[len(w) - j:] + w[:len(w) - j], (-1) ** (j * (len(w) - 1)) * k)
                   for w, k in words.items() for j in range(len(w)))


def _oracle_shuffle(words1, n1, words2, n2):
    pad1, pad2 = (0,) * n1, (0,) * n2
    out = []
    for w1, k1 in words1.items():
        for w2, k2 in words2.items():
            left = tuple((z + pad2, d + pad2) for z, d in w1)
            right = tuple((pad1 + z, pad1 + d) for z, d in w2)
            interior = left[1:] + right[1:]
            (head, m), = key_product(left[0], right[0])
            for order, parity in _shuffles(len(w1) - 1, len(w2) - 1):
                out.append(((head,) + tuple(interior[i] for i in order),
                            (-1) ** parity * m * k1 * k2))
    return _merged(out)


_ORACLE_COEFFS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def _oracle_chain(draw, n, max_degree=4, max_terms=2):
    """Up to three words of degree 0..max_degree, coefficient denominators 1..6."""
    exps = st.tuples(*[st.integers(0, 2)] * n)
    element = st.lists(st.tuples(exps, exps, _ORACLE_COEFFS), min_size=1, max_size=max_terms).map(
        lambda ts: WeylElement.from_terms(n, [((z, d), c) for z, d, c in ts]))
    slots = st.lists(element, min_size=1, max_size=max_degree + 1)
    words = draw(st.lists(st.tuples(_ORACLE_COEFFS, slots), max_size=3))
    return TensorChain.from_terms(n, [(c, tuple(w)) for c, w in words])


@st.composite
def _oracle_inputs(draw):
    """Two chains on the same n, and a small one-variable shuffle factor."""
    n = draw(st.integers(1, 3))
    return draw(_oracle_chain(n)), draw(_oracle_chain(n)), draw(_oracle_chain(1, 2, 1))


@settings(max_examples=300, deadline=None)
@given(_oracle_inputs(), _ORACLE_COEFFS)
def test_integer_kernels_agree_with_the_fraction_oracle(inputs, scalar):
    c, other, small = inputs
    f, g = _fractions(c), _fractions(other)
    one = ((0,) * c.n, (0,) * c.n)
    results = {
        "b": (hochschild_b(c), _oracle_boundary(f, True)),
        "b'": (bar_bprime(c), _oracle_boundary(f, False)),
        # the array kernel, called directly on these small mixed-degree chains
        "array b": (_array_boundary(c, True), _oracle_boundary(f, True)),
        "array b'": (_array_boundary(c, False), _oracle_boundary(f, False)),
        "tau": (cyclic_tau(c), _oracle_tau(f)),
        "N": (norm_n(c), _oracle_norm(f)),
        "normalize": (normalize(c), {w: k for w, k in f.items() if one not in w[1:]}),
        "+": (c + other, _merged(list(f.items()) + list(g.items()))),
        "-": (c - other, _merged(list(f.items()) + [(w, -k) for w, k in g.items()])),
        "neg": (-c, {w: -k for w, k in f.items()}),
        "scalar": (scalar * c, _merged((w, scalar * k) for w, k in f.items())),
        "shuffle": (shuffle_product(c, small),
                    _oracle_shuffle(f, c.n, _fractions(small), small.n)),
    }
    for name, (got, expected) in results.items():
        assert _is_canonical(got), name
        assert _fractions(got) == expected, name


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integer_kernels_agree_with_the_fraction_oracle_on_the_omega_cycles(n):
    # omega_cycle(3) has 1,891 words of 7 slots, so each call's product table is met
    # thousands of times; b(omega) = 0 checks every face sign, b'(omega) is not 0.
    # The array boundary is called directly at every n; `hochschild_b` takes it at n = 3
    omega = omega_cycle(n)
    f = _fractions(omega)
    results = {
        "b": (hochschild_b(omega), _oracle_boundary(f, True)),
        "b'": (bar_bprime(omega), _oracle_boundary(f, False)),
        "array b": (_array_boundary(omega, True), _oracle_boundary(f, True)),
        "array b'": (_array_boundary(omega, False), _oracle_boundary(f, False)),
        "tau": (cyclic_tau(omega), _oracle_tau(f)),
        "N": (norm_n(omega), _oracle_norm(f)),
    }
    assert len(omega.nums) == {1: 3, 2: 49, 3: 1891}[n]
    for name, (got, expected) in results.items():
        assert _is_canonical(got), name
        assert _fractions(got) == expected, name
    assert results["b'"][1]


def test_boundaries_whose_codes_or_sums_could_overflow_take_the_dict_loop(monkeypatch):
    # 34-slot words over four keys: the products add keys, so 33 output slots need
    # more than 63 bits
    rng = random.Random(34)
    letters = [pack(((z,), (d,))) for z in (0, 1) for d in (0, 1)]
    long = _canonical(1, {tuple(rng.choice(letters) for _ in range(34)): rng.randint(1, 9)
                          for _ in range(ARRAY_WORDS)}, 3)
    # numerators of 2^62 and 2^70, the second past int64: the sums could reach 2^62
    omega = omega_cycle(3)
    scaled = [big * omega for big in (1 << 62, 1 << 70)]
    assert [_array_boundary(c, wrap)
            for c in (long, *scaled) for wrap in (True, False)] == [None] * 6
    got = [op(c) for c in (long, *scaled) for op in (hochschild_b, bar_bprime)]
    monkeypatch.setattr(chains_module, "ARRAY_WORDS", math.inf)  # the dict loop only
    assert got == [op(c) for c in (long, *scaled) for op in (hochschild_b, bar_bprime)]
    assert got[2].is_zero() and got[3] == (1 << 62) * bar_bprime(omega)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_dict_loop_agrees_with_the_oracle_at_every_word_length(monkeypatch, n):
    # words of 2, 3 and 4 slots take their own branches of the loop, and words of
    # 1 slot and of 5 or more its slicing loop; every slot has powers of each z and d,
    # so every face contracts and has several product terms
    monkeypatch.setattr(chains_module, "ARRAY_WORDS", math.inf)  # the dict loop only
    rng = random.Random(70 + n)
    letters = [pack((z, d)) for z in ((1,) * n, (2,) * n) for d in ((1,) * n, (2,) * n)]
    for length in range(1, 8):
        c = _canonical(n, {tuple(rng.choice(letters) for _ in range(length)): rng.randint(-9, 9)
                           for _ in range(12)}, 5)
        assert {len(w) for w in c.nums} == {length}
        faces = [mono_product(w[i], w[(i + 1) % length], n)
                 for w in c.nums for i in range(length)]
        assert length == 1 or all(len(terms) > 1 for terms in faces)
        f = _fractions(c)
        for op, wrap in ((hochschild_b, True), (bar_bprime, False)):
            got = op(c)
            assert _is_canonical(got) and _fractions(got) == _oracle_boundary(f, wrap), length
            assert length == 1 or not got.is_zero()


def test_large_chains_take_the_array_boundary_and_small_ones_do_not(monkeypatch):
    # the suite's random chains reach 192 words and omega_6 has 1,891
    assert 192 < ARRAY_WORDS < 1891
    sizes, real = [], chains_module._array_boundary

    def spy(c, wrap):
        sizes.append(len(c.nums))
        return real(c, wrap)

    monkeypatch.setattr(chains_module, "_array_boundary", spy)
    omega = omega_cycle(3)
    assert hochschild_b(omega).is_zero()
    assert sizes == [1891]
    # the largest boundary input of exact-random
    small = TensorChain(3, dict(list(omega.nums.items())[:108]), 1)
    hochschild_b(small)
    bar_bprime(small)
    assert sizes == [1891]


def _fresh(c):
    """c as a new chain object, so that no key arrays are cached on it."""
    return TensorChain(c.n, c.nums, c.den)


def _both_shuffle_paths(monkeypatch, c1, c2):
    """[array shuffle, dict loop] of c1 and c2: the gate at 1 term, then at none."""
    out = []
    for gate in (1, math.inf):
        monkeypatch.setattr(chains_module, "ARRAY_TERMS", gate)
        out.append(shuffle_product(_fresh(c1), _fresh(c2)))
    return out


def _assert_key_arrays_as_read(c):
    """c's key arrays, seeded or not, equal those read from a copy of its nums."""
    keys, groups = c._key_arrays
    read_keys, read_groups = TensorChain(c.n, dict(c.nums), c.den)._key_arrays
    assert keys == read_keys and list(groups) == list(read_groups)
    for length, (ids, nums) in groups.items():
        read_ids, read_nums = read_groups[length]
        assert (ids.dtype, nums.dtype) == (read_ids.dtype, read_nums.dtype)
        assert np.array_equal(ids, read_ids) and np.array_equal(nums, read_nums)


@pytest.mark.parametrize("n1, n2", [(1, 2), (2, 1), (2, 2)])
def test_the_array_shuffle_equals_the_dict_loop_on_the_omega_cycles(monkeypatch, n1, n2):
    array, loop = _both_shuffle_paths(monkeypatch, omega_cycle(n1), omega_cycle(n2))
    assert array == loop and "_key_arrays" in vars(array)
    assert _is_canonical(array) and array.nums
    _assert_key_arrays_as_read(array)


def test_the_array_shuffle_sums_the_groups_of_one_output_length_before_decoding(monkeypatch):
    # every padded unit is key 0, so the word pairs of lengths (2, 3) and (3, 2) each
    # give the word 1 (x) 1 (x) 1 (x) 1, with coefficient 1
    one = unit(1)
    c = TensorChain.word(1, 1, [one] * 2) + TensorChain.word(1, 1, [one] * 3)
    array, loop = _both_shuffle_paths(monkeypatch, c, c)
    assert array == loop and "_key_arrays" in vars(array)
    assert array.nums[0, 0, 0, 0] == 2
    _assert_key_arrays_as_read(array)


@st.composite
def _shuffle_pair(draw):
    """Two chains in 1 or 2 variables each, of mixed word lengths, one of den > 1."""
    c1 = draw(_oracle_chain(draw(st.integers(1, 2)), max_degree=3))
    c2 = draw(_oracle_chain(draw(st.integers(1, 2)), max_degree=3))
    assume(c1.den * c2.den > 1)
    return c1, c2


@settings(max_examples=100, deadline=None)
@given(_shuffle_pair())
def test_the_array_shuffle_equals_the_dict_loop_on_random_pairs(pair):
    with pytest.MonkeyPatch.context() as monkeypatch:
        array, loop = _both_shuffle_paths(monkeypatch, *pair)
    assert array == loop and _is_canonical(array)
    _assert_key_arrays_as_read(array)


def test_the_seeded_key_arrays_equal_those_read_from_the_numerators(monkeypatch):
    monkeypatch.setattr(chains_module, "ARRAY_TERMS", 1)
    omega = {n: omega_cycle(n) for n in (1, 2)}
    z, d = (TensorChain.word(1, 1, [el]) for el in (z_var(1, 1), d_var(1, 1)))
    cases = {
        # every key kept, gcd 1
        "2x4": (omega[1], omega[2]),
        # a gcd of 2 taken from the numerators
        "halved x doubled": (Fraction(1, 2) * omega[1], 2 * omega[2]),
        # one-slot words keep their product key only, so the ids are re-ranked
        "one slot": (z, d),
        # words of 1 and 3 slots give output lengths 1, 3 and 5
        "mixed lengths": (z + d + omega[1], z + Fraction(1, 3) * omega[1]),
        # numerators past int64: the dict loop runs, and its arrays are read as objects
        "2^70": ((1 << 70) * omega[1], omega[2]),
    }
    for name, (c1, c2) in cases.items():
        c = shuffle_product(_fresh(c1), _fresh(c2))
        assert ("_key_arrays" in vars(c)) == (name != "2^70"), name
        _assert_key_arrays_as_read(c)
    assert [nums.dtype for _, nums in c._key_arrays[1].values()] == [object]
    # the array boundary seeds its result's key arrays too
    rng = random.Random(45)
    omega6 = omega_cycle(3)
    # b'(b'(w)) = 0, so b' of omega_6 + b'(w)/2, a chain over 2, is b'(omega_6) over 1
    w = TensorChain(3, random_chain(rng, 3, 7, 4, max_deg=1).nums, 1)
    halved = omega6 + Fraction(1, 2) * bar_bprime(w)
    random_words = random_chain(rng, 1, 3, 2 * ARRAY_WORDS)
    assert halved.den == 2 and len(random_words.nums) >= ARRAY_WORDS
    boundaries = {
        "b' omega_6": (bar_bprime, omega6),
        "b' losing a gcd of 2": (bar_bprime, halved),
        "b random": (hochschild_b, random_words),
        "b' random": (bar_bprime, random_words),
        # numerators past int64: the dict loop runs and seeds nothing
        "b' 2^70": (bar_bprime, (1 << 70) * omega6),
    }
    for name, (op, c) in boundaries.items():
        b = op(_fresh(c))
        assert not b.is_zero() and ("_key_arrays" in vars(b)) == (name != "b' 2^70"), name
        _assert_key_arrays_as_read(b)
    assert bar_bprime(halved) == bar_bprime(omega6)


def test_shuffles_whose_codes_or_sums_could_overflow_take_the_dict_loop(monkeypatch):
    seen, real = [], chains_module._array_shuffle

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(chains_module, "_array_shuffle", spy)
    # 34-slot words over four keys: 35 output slots of at least 2 bits need more than 63
    rng = random.Random(35)
    letters = [pack(((z,), (d,))) for z in (0, 1) for d in (0, 1)]
    long = _canonical(1, {tuple(rng.choice(letters) for _ in range(34)): rng.randint(1, 9)
                          for _ in range(8)}, 3)
    omega = omega_cycle(1)
    # numerators of 2^62 and 2^70, the second past int64: the sums could reach 2^62
    pairs = [(long, omega), ((1 << 62) * omega, omega_cycle(2)), ((1 << 70) * omega, omega)]
    monkeypatch.setattr(chains_module, "ARRAY_TERMS", 1)
    got = [shuffle_product(c1, c2) for c1, c2 in pairs]
    assert seen == [None] * 3
    monkeypatch.setattr(chains_module, "ARRAY_TERMS", math.inf)  # the dict loop only
    assert got == [shuffle_product(c1, c2) for c1, c2 in pairs] and len(seen) == 3
    assert got[1] == (1 << 62) * omega_cycle(3)


def test_omega_products_take_the_array_shuffle_and_leibniz_pairs_do_not(monkeypatch):
    # the largest random pair of the benchmark expands into 252 terms, the omega_6
    # products into 2,205
    assert 252 < ARRAY_TERMS < 2205
    sizes, real = [], chains_module._array_shuffle

    def spy(c1, c2, *args):
        sizes.append((len(c1.nums), len(c2.nums)))
        return real(c1, c2, *args)

    monkeypatch.setattr(chains_module, "_array_shuffle", spy)
    for seed in range(3):
        assert run_suite(["shuffle"], SuiteConfig(seed=seed)).all_passed()
        # omega_2 x omega_4 for the 2x4 check, and omega_4 x omega_2 to build omega_6
        assert sizes == [(3, 49), (49, 3)]
        sizes.clear()


def test_the_seeded_samples_equal_the_fraction_built_draws():
    # the same rng calls in the same order: equal samples, dict order included, and
    # the same stream state after
    for seed in range(250):
        rng, ref = random.Random(seed), random.Random(seed)
        n, degree, words, max_deg = seed % 3 + 1, seed % 5, seed % 4 + 1, seed % 3
        got = [random_element(rng, n, max_deg), random_chain(rng, n, degree, words, max_deg),
               random_chain(rng, n, degree), random_column_vector(rng, n)]
        expected = [draw_element(ref, n, max_deg), draw_chain(ref, n, degree, words, max_deg),
                    draw_chain(ref, n, degree), draw_column_vector(ref, n)]
        assert got == expected
        assert [list(c.nums.items()) for c in got[1:3]] == [list(c.nums.items())
                                                             for c in expected[1:3]]
        assert rng.random() == ref.random()


def test_negation_subtraction_and_rotation_match_the_scaled_and_canonicalized_forms():
    rng = random.Random(1618)
    for _ in range(60):
        n = rng.choice([1, 2])
        a, b = (random_chain(rng, n, degree=rng.randint(0, 3)) for _ in range(2))
        assert -a == (-1) * a and _is_canonical(-a)
        assert a - b == a + (-1) * b and _is_canonical(a - b)
        rotated = _canonical(n, {w[-1:] + w[:-1]: (-1) ** (len(w) - 1) * k
                                 for w, k in a.nums.items()}, a.den)
        assert cyclic_tau(a) == rotated and _is_canonical(cyclic_tau(a))
    assert (a - a).nums == {} and (a - a).den == 1


def test_chain_from_json_pauses_the_collector_and_restores_its_state(monkeypatch):
    text, seen, real = chain_to_json(omega_cycle(1)), [], _json_int

    def spy(digits):  # called by the parse for the bare integer "n"
        seen.append(gc.isenabled())
        return real(digits)

    monkeypatch.setattr("hochheat.chains._DECODER", json.JSONDecoder(parse_int=spy))
    was = gc.isenabled()
    try:
        gc.enable()
        assert chain_from_json(text) == omega_cycle(1)
        assert seen == [False] and gc.isenabled()
        with pytest.raises(ValueError, match="slot"):
            chain_from_json(text.replace('"d1"', '"d1*z1"'))
        assert gc.isenabled()
        gc.disable()
        assert chain_from_json(text) == omega_cycle(1)
        with pytest.raises(ValueError):
            chain_from_json("[")
        assert not gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def _traced_peak_mb(call):
    """The tracemalloc peak of call(), in MB above the traced level it starts at."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - start) / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.large
def test_the_degree_eight_array_kernels_stay_within_their_traced_peaks():
    # measured with numpy 2.4.6 on the two separate kernels that the one kernel
    # replaced: the boundary peaked at 58.9 MB and the shuffle at 32.2 MB (57.9 and
    # 29.6 MB on the one kernel); each bound is about 1.1 times the first pair
    omega8, omega6, omega2 = omega_cycle(4), _fresh(omega_cycle(3)), _fresh(omega_cycle(1))
    for c in (omega8, omega6, omega2):
        c._key_arrays
    assert _traced_peak_mb(lambda: hochschild_b(omega8)) < 65.0
    assert _traced_peak_mb(lambda: shuffle_product(omega6, omega2)) < 35.5


@pytest.mark.large
def test_degree_eight_json_round_trip():
    omega = omega_cycle(4)
    assert chain_from_json(chain_to_json(omega)) == omega


def test_degree_eight_pipeline():
    omega = omega_cycle(4)
    assert len(omega.nums) == 131265
    assert hochschild_b(omega).is_zero()
    assert normalize(omega) == normalized_omega_formula(4)
    assert hkr_symbol(omega) == volume_form(4)
    assert hkr_symbol(normalize(omega)) == volume_form(4)
