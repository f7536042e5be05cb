"""Chain complexes over the operator algebra: differentials, cyclic
operators, the column bicomplex, shuffles and the canonical cycles.

All identities here are exact; no tolerances appear anywhere.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochheat.chains import (
    TensorChain,
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
from hochheat.randomgen import random_chain, random_column_vector, random_element
from hochheat.weyl import WeylElement, WeylMonomial, d_var, unit, z_var


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
    assert dv.column(2).is_zero()
    assert dv.column(1) == norm_n(c)


def test_tsygan_d_on_odd_column():
    rng = random.Random(9)
    c = random_chain(rng, 1, degree=2)
    v = TsyganColumnVector.from_entries(1, [(3, c)])
    dv = tsygan_d(v)
    assert dv.column(3) == (-1) * bar_bprime(c)
    assert dv.column(2) == c - cyclic_tau(c)


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
    from hochheat.weyl import disjoint_embed, mul

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
        lambda ts: WeylElement.from_terms(n, [(WeylMonomial(n, z, d), c) for z, d, c in ts]))
    words = draw(st.lists(st.tuples(coeffs, st.lists(element, min_size=1, max_size=4)), max_size=3))
    return TensorChain.from_terms(n, [(c, tuple(w)) for c, w in words])


@settings(deadline=None)
@given(chains())
def test_chain_json_round_trip_property(c):
    assert chain_from_json(chain_to_json(c)) == c


@pytest.mark.parametrize(
    "payload",
    [[], {"n": 0, "terms": []}, {"n": 1, "terms": [{"coeff": "1/0", "word": ["z1"]}]},
     {"n": 1, "terms": [{"coeff": "1", "word": []}]}],
    ids=["not-an-object", "n-below-one", "zero-denominator", "empty-word"],
)
def test_chain_from_json_rejects_malformed_input(payload):
    with pytest.raises(ValueError):
        chain_from_json(json.dumps(payload))


def test_constructors_reject_an_empty_word():
    with pytest.raises(ValueError):
        TensorChain.from_terms(1, [(Fraction(1), ())])
    with pytest.raises(ValueError):
        TensorChain.word(1, 1, [])


def test_mixed_degree_chains_supported():
    rng = random.Random(5)
    a = random_chain(rng, 1, degree=1)
    b = random_chain(rng, 1, degree=3)
    mixed = a + b
    assert mixed.degrees() == {1, 3}
    assert hochschild_b(hochschild_b(mixed)).is_zero()


def test_scalar_slots_are_normalized_into_coefficients():
    # 1 (x) (2 z) and 2 (1 (x) z) are the same chain
    n = 1
    two_z = 2 * TensorChain.word(n, 1, [unit(n), z_var(1, n)])
    from hochheat.weyl import scale

    packed = TensorChain.word(n, 1, [unit(n), scale(2, z_var(1, n))])
    assert two_z == packed


@pytest.mark.large
def test_degree_eight_pipeline():
    omega = omega_cycle(4)
    assert len(omega.words) == 131265
    assert hochschild_b(omega).is_zero()
    assert normalize(omega) == normalized_omega_formula(4)
