"""The chain symbol map on monomial keys, and the volume form."""

from __future__ import annotations

import random
from fractions import Fraction

from hochheat.chains import TensorChain, normalize, omega_cycle
from hochheat.forms import PolyForm, hkr_symbol, volume_form
from hochheat.randomgen import random_chain, random_element
from hochheat.weyl import mul, pack, unit, z_var
from oracles import form_from_terms, monomial, symbol_by_words


def random_monomial(rng: random.Random, n: int, z_only: bool = False, d_only: bool = False):
    z_exp = (0,) * n if d_only else tuple(rng.randint(0, 2) for _ in range(n))
    d_exp = (0,) * n if z_only else tuple(rng.randint(0, 2) for _ in range(n))
    return monomial(n, z_exp, d_exp, Fraction(rng.randint(-3, 3), rng.randint(1, 2)) or 1)


def test_total_symbol_forgets_ordering_only():
    # the degree-0 word z^2 d^3 -> z^2 y^3
    c = TensorChain.word(1, Fraction(5, 2), [monomial(1, (2,), (3,))])
    assert hkr_symbol(c) == PolyForm(1, ((((2, 3), ()), Fraction(5, 2)),))


def test_hkr_symbol_of_unit_square_vanishes():
    n = 1
    c = TensorChain.word(n, 1, [unit(n), unit(n)])
    assert hkr_symbol(c).is_zero()


def test_hkr_symbol_degree_one_example():
    # a (x) b -> sigma(a) d sigma(b); take a = z, b = z d: z d(zy) = zy dz + z^2 dy
    n = 1
    c = TensorChain.word(n, 1, [z_var(1, n), monomial(n, (1,), (1,))])
    expected = PolyForm(n, ((((1, 1), (0,)), Fraction(1)), (((2, 0), (1,)), Fraction(1))))
    assert hkr_symbol(c) == expected
    # exponents enter as factors: 1 (x) z^2 d^3 -> 2 z y^3 dz + 3 z^2 y^2 dy
    c = TensorChain.word(n, 1, [unit(n), monomial(n, (2,), (3,))])
    expected = PolyForm(n, ((((1, 3), (0,)), Fraction(2)), (((2, 2), (1,)), Fraction(3))))
    assert hkr_symbol(c) == expected


def test_volume_form_is_one_signed_term():
    # dy1 ^ dz1 = -dz1 ^ dy1, with dz1 the one-form index 0 and dy1 index 1
    assert volume_form(1) == PolyForm(1, ((((0, 0), (0, 1)), Fraction(-1)),))
    for n in (2, 3, 4):
        assert volume_form(n).terms == ((((0,) * (2 * n), tuple(range(2 * n))), (-1) ** n),)


def test_hkr_symbol_of_omega_is_volume():
    # volume_form is literally 1 * dy1^dz1^...^dyn^dzn, so equality with it
    # is the statement that the coefficient is exactly one in that ordering
    for n in (1, 2, 3):
        vol = volume_form(n)
        assert len(vol.terms) == 1
        assert hkr_symbol(omega_cycle(n)) == vol
        assert hkr_symbol(normalize(omega_cycle(n))) == vol


def test_hkr_symbol_equals_the_word_by_word_oracle():
    rng = random.Random(2718)
    chains = [omega_cycle(n) for n in (1, 2, 3)]
    chains += [normalize(c) for c in chains]
    # mixed degrees 0..4 in 1..3 variables, some with a scalar slot
    chains += [random_chain(rng, n, rng.randrange(5), words=3)
               + random_chain(rng, n, rng.randrange(5)) for n in (1, 2, 3) for _ in range(40)]
    # numerators past int64, so the rows are ints in object arrays
    chains += [(1 << 70) * omega_cycle(2), (1 << 70) * chains[-1]]
    # rows that each fit in int64 but whose sum does not: the four words
    # z^i (x) z^(4-i) all map to 10 (2^60 - 1) z^3 dz
    chains.append(TensorChain(1, {(pack(((i,), (0,))), pack(((4 - i,), (0,)))): (1 << 60) - 1
                                  for i in range(4)}, 1))
    # scalar words only, so no exponent bounds a row: 2^62 (1) + (1 (x) 1 (x) 1) has
    # the degree-0 value 2^62 * 2!, and 2^70 (1) a numerator past int64
    chains += [TensorChain(1, {(0,): big, (0, 0, 0): 1}, 1) for big in (1 << 62, 1 << 70)]
    for c in chains:
        assert hkr_symbol(c) == symbol_by_words(c)
    assert hkr_symbol(TensorChain(2, {}, 1)) == symbol_by_words(TensorChain(2, {}, 1))


def test_hkr_symbol_linear():
    rng = random.Random(65)
    for _ in range(30):
        n = 1
        a = TensorChain.word(
            n,
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            [random_element(rng, n) for _ in range(3)],
        )
        b = TensorChain.word(
            n,
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            [random_element(rng, n) for _ in range(3)],
        )
        summed = form_from_terms(n, hkr_symbol(a).terms + hkr_symbol(b).terms)
        assert hkr_symbol(a + b) == summed


def test_symbol_multiplicative_on_commuting_monomials():
    # sigma is an algebra map modulo lower order; on z-only and d-only
    # factors the product has no reordering corrections
    rng = random.Random(66)
    for _ in range(30):
        n = rng.choice([1, 2])
        a, b = random_monomial(rng, n, z_only=True), random_monomial(rng, n, d_only=True)
        ((ea, _), ca), = hkr_symbol(TensorChain.word(n, 1, [a])).terms
        ((eb, _), cb), = hkr_symbol(TensorChain.word(n, 1, [b])).terms
        expected = PolyForm(n, (((tuple(map(sum, zip(ea, eb))), ()), ca * cb),))
        assert hkr_symbol(TensorChain.word(n, 1, [mul(a, b)])) == expected


def test_omega_symbol_sign_consistency():
    # swapping two interior slots swaps two one-forms, so the symbol flips
    # sign; a repeated slot repeats its one-forms, so the symbol vanishes
    rng = random.Random(67)
    for _ in range(40):
        n = rng.choice([1, 2])
        slots = [random_element(rng, n) for _ in range(rng.randint(3, 4))]
        i, j = sorted(rng.sample(range(1, len(slots)), 2))
        swapped = list(slots)
        swapped[i], swapped[j] = slots[j], slots[i]
        sym = hkr_symbol(TensorChain.word(n, 1, slots))
        assert hkr_symbol(TensorChain.word(n, -1, swapped)) == sym
        assert hkr_symbol(TensorChain.word(n, 1, [slots[0], z_var(1, n), z_var(1, n)])).is_zero()


def test_d_leibniz_on_functions():
    # d(fg) = f dg + g df in slot form: a0 (x) fg -> a0 f (x) g + a0 g (x) f,
    # with every product a single monomial on which sigma is multiplicative
    rng = random.Random(64)
    for _ in range(40):
        n = rng.choice([1, 2])
        a0, f = random_monomial(rng, n, z_only=True), random_monomial(rng, n, z_only=True)
        g = random_monomial(rng, n, d_only=True)
        lhs = hkr_symbol(TensorChain.word(n, 1, [a0, mul(f, g)]))
        first = hkr_symbol(TensorChain.word(n, 1, [mul(a0, f), g]))
        second = hkr_symbol(TensorChain.word(n, 1, [mul(a0, g), f]))
        assert lhs == form_from_terms(n, first.terms + second.terms)
