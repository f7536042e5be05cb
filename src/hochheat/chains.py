"""Tensor chains over the operator algebra and their standard differentials.

A degree-k word is a (k+1)-tuple a0 (x) a1 (x) ... (x) ak of elements of
the n-variable operator algebra; a chain is a finite rational combination
of words (possibly of mixed degree).  By multilinearity every chain has
one canonical form, and that form is what a `TensorChain` stores.  A word
is a tuple of monomial keys (z_exp, d_exp), one per slot, each slot
standing for the monic monomial z^z_exp d^d_exp.  The coefficients are
integer numerators over one common denominator: `nums` maps each word to
a nonzero int and the chain is sum(nums[w] * w) / den, with den >= 1 and
gcd(den, *nums) == 1, so the zero chain has den == 1.  Equality of chains
is then dict equality, exact and decidable, and every operator below
accumulates plain ints and reduces once, in `_canonical`.

Only the public constructors validate: `TensorChain.from_terms` (and
`TensorChain.word`, which calls it) checks variable counts and rejects
empty words, then expands each slot element into monic keys.
`chain_from_json` checks the same and reads keys only: it accepts the one
slot grammar that `chain_to_json` writes, one monic monomial per slot,
and refuses any other slot text.  `chain_to_json` writes `nums` over `den`
and formats each distinct key once.  The operators below map keys to keys
with `weyl.mono_product` (`shuffle_product` multiplies its slot-0
elements with `weyl.mul`) and build their results without checking them
again.  `TensorChain.terms` is a derived view for readers of elements: the
words in sorted key order, each with its `Fraction` coefficient and each
slot as a one-term monic `WeylElement`.

Operators implemented here:

* hochschild_b   - sum of signed adjacent products plus the wrap-around
                   term (-1)^k (ak a0) (x) a1 (x) ... (x) a(k-1)
* bar_bprime     - the same sum without the wrap-around term
* cyclic_tau     - signed rotation, tau(w) = (-1)^k (ak, a0, ..., a(k-1))
                   on degree-k words
* norm_n         - the norm sum(tau^j, j = 0..k) degree by degree
* shuffle_product- product of the slot-0 elements times the signed
                   interleavings of the interior slots, after padding the
                   two factors' keys onto disjoint variable blocks
* omega_cycle    - the canonical closed 2n-chain built by shuffling n
                   copies of 1 (x) d (x) z - 1 (x) z (x) d + 1 (x) 1 (x) 1
* normalize      - quotient by words with a scalar in an interior slot
* tsygan_d       - total differential of the (b, -b') bicomplex whose
                   even columns carry b and odd columns carry -b'

The bicomplex identities b(1-tau) = (1-tau) b' and b' N = N b make
tsygan_d square to zero; both are exercised on random chains in the
tests, as is d^2 itself.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple

from .weyl import (MAX_DEGREE, MAX_VARIABLES, Key, WeylElement, d_var, format_monomial,
                   mono_product, mul, parse_monomial, unit, z_var)

Word = Tuple[WeylElement, ...]
#: a word as stored: one monomial key per slot
KeyWord = Tuple[Key, ...]


@lru_cache(maxsize=4096)
def _slot(key: Key) -> WeylElement:
    """The monic one-term element with monomial key `key`."""
    return WeylElement(len(key[0]), ((key, Fraction(1)),))


def _canonical(n: int, acc: Dict[KeyWord, int], den: int) -> "TensorChain":
    """The chain sum(acc[w] * w) / den for den >= 1, in canonical form."""
    nums = {w: k for w, k in acc.items() if k}
    g = gcd(den, *nums.values()) if den > 1 else 1
    if g > 1:
        nums = {w: k // g for w, k in nums.items()}
    return TensorChain(n, nums, den // g)


def _collect(n: int, expanded: List[Tuple[int, int, KeyWord]]) -> "TensorChain":
    """The chain sum(p/q * w) over (p, q, w) with q >= 1, in canonical form."""
    den = lcm(*(q for _, q, _ in expanded))
    acc: Dict[KeyWord, int] = {}
    get = acc.get
    for p, q, w in expanded:
        acc[w] = get(w, 0) + p * (den // q)
    return _canonical(n, acc, den)


@dataclass(frozen=True)
class TensorChain:
    """Rational combination of tensor words over the n-variable algebra.

    The chain is sum(nums[w] * w) / den over words w (tuples of monomial
    keys), in the canonical form of the module docstring; build chains
    with `from_terms` or `word`.
    """

    n: int
    nums: Dict[KeyWord, int]
    den: int

    @staticmethod
    def from_terms(n: int, raw: Iterable[Tuple[Fraction, Word]]) -> "TensorChain":
        """The chain sum(coeff * word) for words of `WeylElement` slots."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        # (numerator, denominator, word) of every word of the multilinear expansion
        expanded: List[Tuple[int, int, KeyWord]] = []
        for coeff, word in raw:
            if not word:
                raise ValueError("a word needs at least one slot")
            coeff = Fraction(coeff)
            pieces = [(coeff.numerator, coeff.denominator, ())]
            for el in word:
                if el.n != n:
                    raise ValueError("word entry has wrong variable count")
                pieces = [(p * mc.numerator, q * mc.denominator, prefix + (key,))
                          for p, q, prefix in pieces for key, mc in el.terms]
            expanded += pieces
        return _collect(n, expanded)

    @staticmethod
    def word(n: int, coeff, slots: Sequence[WeylElement]) -> "TensorChain":
        return TensorChain.from_terms(n, [(Fraction(coeff), tuple(slots))])

    @cached_property
    def terms(self) -> Tuple[Tuple[Fraction, Word], ...]:
        """(coeff, word) pairs in sorted word order, each slot a monic element."""
        return tuple((Fraction(self.nums[w], self.den), tuple(map(_slot, w)))
                     for w in sorted(self.nums))

    def is_zero(self) -> bool:
        return not self.nums

    def degrees(self) -> set:
        return {len(w) - 1 for w in self.nums}

    def __add__(self, other: "TensorChain") -> "TensorChain":
        if self.n != other.n:
            raise ValueError("cannot add chains over different algebras")
        den = lcm(self.den, other.den)
        up, up_other = den // self.den, den // other.den
        acc = {w: k * up for w, k in self.nums.items()}
        get = acc.get
        for w, k in other.nums.items():
            acc[w] = get(w, 0) + k * up_other
        return _canonical(self.n, acc, den)

    def __sub__(self, other: "TensorChain") -> "TensorChain":
        return self + (-1) * other

    def __rmul__(self, c) -> "TensorChain":
        c = Fraction(c)
        p = c.numerator
        return _canonical(self.n, {w: p * k for w, k in self.nums.items()}, self.den * c.denominator)


def _boundary(c: TensorChain, wrap: bool) -> TensorChain:
    """Signed adjacent products, plus the wrap-around product if `wrap`.

    `table` holds the product terms of each distinct (left, right) key pair
    met in this call, so each pair goes through `mono_product` once; it is
    dropped on return.
    """
    acc: Dict[KeyWord, int] = {}
    get = acc.get
    table: Dict[Tuple[Key, Key], List[Tuple[KeyWord, int]]] = {}
    for word, num in c.nums.items():
        k = len(word) - 1
        for i in range(k + 1 if wrap and k else k):
            if i < k:
                head, pair, tail = word[:i], word[i:i + 2], word[i + 2:]
            else:  # the wrap-around face (ak a0) (x) a1 (x) ... (x) a(k-1)
                head, pair, tail = (), (word[k], word[0]), word[1:k]
            products = table.get(pair)
            if products is None:
                products = table[pair] = [((key,), m) for key, m in mono_product(*pair)]
            sign = -num if i % 2 else num
            for slot, m in products:
                w = head + slot + tail
                acc[w] = get(w, 0) + sign * m
    return _canonical(c.n, acc, c.den)


def hochschild_b(c: TensorChain) -> TensorChain:
    return _boundary(c, wrap=True)


def bar_bprime(c: TensorChain) -> TensorChain:
    return _boundary(c, wrap=False)


def cyclic_tau(c: TensorChain) -> TensorChain:
    # a rotation is a bijection on words, so nothing merges; (-1)^k = -1 for even length
    return _canonical(c.n, {w[-1:] + w[:-1]: -k if len(w) % 2 == 0 else k
                            for w, k in c.nums.items()}, c.den)


def norm_n(c: TensorChain) -> TensorChain:
    acc: Dict[KeyWord, int] = {}
    get = acc.get
    for w, num in c.nums.items():
        k = len(w) - 1
        for j in range(k + 1):
            # tau^j: rotate by j with sign (-1)^(jk)
            r = w[k + 1 - j:] + w[:k + 1 - j]
            acc[r] = get(r, 0) + (-num if j * k % 2 else num)
    return _canonical(c.n, acc, c.den)


def normalize(c: TensorChain) -> TensorChain:
    """Kill words with a scalar multiple of 1 in any slot other than slot 0."""
    one = ((0,) * c.n, (0,) * c.n)
    return _canonical(c.n, {w: k for w, k in c.nums.items() if one not in w[1:]}, c.den)


# ---------------------------------------------------------------------------
# shuffle product
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _shuffles(p: int, q: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """(order, parity) over all (p, q)-interleavings: slot s of an interleaving
    takes entry order[s] of the first interior followed by the second."""
    out = []
    for pos in combinations(range(p + q), p):
        first, second = iter(range(p)), iter(range(p, p + q))
        order = tuple(next(first) if s in pos else next(second) for s in range(p + q))
        out.append((order, sum(pos[i] - i for i in range(p)) % 2))
    return tuple(out)


def _by_interior(c: TensorChain, n: int, pad) -> List[Tuple[KeyWord, WeylElement]]:
    """c as sum(A_i (x) i) over its distinct interiors i, keys padded by `pad`.

    A_i, an element in n variables, collects the slot-0 keys of the words
    of c with interior i, each with its numerator as coefficient.
    """
    groups: Dict[KeyWord, List[Tuple[Key, Fraction]]] = {}
    for w, k in c.nums.items():
        head, *inner = map(pad, w)
        groups.setdefault(tuple(inner), []).append((head, Fraction(k)))
    # distinct words with one interior have distinct heads: sorting is canonical order
    return [(inner, WeylElement(n, tuple(sorted(heads, reverse=True))))
            for inner, heads in groups.items()]


def shuffle_product(c1: TensorChain, c2: TensorChain) -> TensorChain:
    """Chain-level shuffle of chains over disjoint variable blocks.

    The second factor is re-indexed to variables n1+1..n1+n2.  With each
    factor written as sum(A_i (x) i) over its interiors i, the shuffle of
    A (x) i and B (x) j is (A B) (x) sh(i, j): slot 0 is the `weyl.mul`
    product of the two slot-0 elements and the interior slots are all
    signed interleavings of i and j.
    """
    n = c1.n + c2.n
    pad1, pad2 = (0,) * c1.n, (0,) * c2.n
    left = _by_interior(c1, n, lambda key: (key[0] + pad2, key[1] + pad2))
    right = _by_interior(c2, n, lambda key: (pad1 + key[0], pad1 + key[1]))
    acc: Dict[KeyWord, int] = {}
    get = acc.get
    for i1, a in left:
        for i2, b in right:
            interior = i1 + i2
            # integer coefficients times integer coefficients: every product is whole
            heads = [((key,), coeff.numerator) for key, coeff in mul(a, b).terms]
            for order, parity in _shuffles(len(i1), len(i2)):
                tail = tuple(map(interior.__getitem__, order))
                for head, num in heads:
                    w = head + tail
                    acc[w] = get(w, 0) + (-num if parity else num)
    return _canonical(n, acc, c1.den * c2.den)


def omega_cycle(n: int) -> TensorChain:
    """Shuffle n copies of the degree-2 cycle 1(x)d(x)z - 1(x)z(x)d + 1(x)1(x)1."""
    if n < 1:
        raise ValueError("need n >= 1")
    one = unit(1)
    base = (
        TensorChain.word(1, 1, [one, d_var(1, 1), z_var(1, 1)])
        + (-1) * TensorChain.word(1, 1, [one, z_var(1, 1), d_var(1, 1)])
        + TensorChain.word(1, 1, [one, one, one])
    )
    result = base
    for _ in range(n - 1):
        result = shuffle_product(result, base)
    return result


def normalized_omega_formula(n: int) -> TensorChain:
    """Independent closed form: sum over permutations sigma of the 2n interior
    slots of sgn(sigma) 1 (x) sigma(d1 (x) z1 (x) ... (x) dn (x) zn)."""
    one = ((0,) * n, (0,) * n)
    letters = [el.terms[0][0] for i in range(1, n + 1) for el in (d_var(i, n), z_var(i, n))]
    words = {}
    for perm in permutations(range(2 * n)):
        inv = sum(1 for i in range(2 * n) for j in range(i + 1, 2 * n) if perm[i] > perm[j])
        # distinct letters give distinct words, so nothing merges
        words[(one,) + tuple(letters[p] for p in perm)] = -1 if inv % 2 else 1
    return TensorChain(n, words, 1)


# ---------------------------------------------------------------------------
# bicomplex of columns alternating between b and -b'
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TsyganColumnVector:
    """Finite family of chains indexed by column number >= 0.

    Even columns carry the cyclic-product differential b, odd columns the
    bar differential with a sign, -b'.  The horizontal arrow out of an odd
    column p is (1 - tau) into column p-1, and out of an even column p >= 1
    it is the norm N into column p-1; these orientations are the ones under
    which the two classical exchange identities make the total differential
    square to zero.
    """

    n: int
    entries: Tuple[Tuple[int, TensorChain], ...]

    @staticmethod
    def from_entries(n: int, raw: Iterable[Tuple[int, TensorChain]]) -> "TsyganColumnVector":
        acc: Dict[int, TensorChain] = {}
        for col, chain in raw:
            if col < 0:
                raise ValueError("column indices must be non-negative")
            if chain.n != n:
                raise ValueError("chain has wrong variable count")
            acc[col] = acc[col] + chain if col in acc else chain
        items = tuple((c, acc[c]) for c in sorted(acc) if not acc[c].is_zero())
        return TsyganColumnVector(n, items)

    def is_zero(self) -> bool:
        return not self.entries


def tsygan_d(v: TsyganColumnVector) -> TsyganColumnVector:
    out: List[Tuple[int, TensorChain]] = []
    for col, chain in v.entries:
        if col % 2 == 0:
            out.append((col, hochschild_b(chain)))
            if col >= 1:
                out.append((col - 1, norm_n(chain)))
        else:
            out.append((col, (-1) * bar_bprime(chain)))
            out.append((col - 1, chain + (-1) * cyclic_tau(chain)))
    return TsyganColumnVector.from_entries(v.n, out)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def chain_to_json(c: TensorChain) -> str:
    """The chain as JSON: {"n": n, "terms": [{"coeff": "p/q", "word": [slot, ...]}, ...]}.

    Words come in sorted key order and each slot is its monic monomial in
    the text format; each distinct key is formatted once.  A coefficient
    part of more than MAX_COEFF_DIGITS digits raises `ValueError`.
    """
    nums, den = c.nums, c.den
    texts = {key: format_monomial(key) for key in {key for w in nums for key in w}}

    def coeff(num: int) -> str:  # str(Fraction(num, den)) without building the Fraction
        g = gcd(num, den)
        p, q = num // g, den // g
        if not (-_COEFF_BOUND < p < _COEFF_BOUND and q < _COEFF_BOUND):
            raise ValueError(f"a coefficient of the chain has more than {MAX_COEFF_DIGITS} digits")
        return str(p) if q == 1 else f"{p}/{q}"

    terms = [{"coeff": coeff(nums[w]), "word": list(map(texts.__getitem__, w))}
             for w in sorted(nums)]
    return json.dumps({"n": c.n, "terms": terms}, indent=2)


#: a coefficient as `chain_to_json` writes it: an integer or a fraction
_COEFF_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

#: the most digits the numerator or the denominator of a chain JSON coefficient may
#: have, in the writer and the reader: the interpreter's default bound on int() of a
#: digit string and on str() of an int
MAX_COEFF_DIGITS = 4300
_COEFF_BOUND = 10 ** MAX_COEFF_DIGITS  # the least integer of more than MAX_COEFF_DIGITS digits


def _shown(value) -> str:
    """repr(value) cut to its first 40 characters, for an error message."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def _check_digits(coeff, *digits: int) -> None:
    """Refuse a coefficient with a part of more than MAX_COEFF_DIGITS digits."""
    if max(digits) > MAX_COEFF_DIGITS:
        raise ValueError(f"coefficient {_shown(coeff)} has more than {MAX_COEFF_DIGITS} digits")


def _json_int(text: str) -> int:
    """A bare JSON integer, refused past MAX_COEFF_DIGITS digits before int() reads it."""
    _check_digits(text, len(text.lstrip("-")))
    return int(text)


def _coefficient(coeff) -> Tuple[int, int]:
    """(p, q) with q >= 1 for an int or a "p" or "p/q" string coefficient."""
    if type(coeff) is int:
        return coeff, 1
    m = _COEFF_RE.fullmatch(coeff) if isinstance(coeff, str) else None
    if m is None:
        raise ValueError(f"coefficient {_shown(coeff)} is not an integer or a fraction p/q")
    _check_digits(coeff, len(m[1].lstrip("-")), len(m[2] or ""))
    q = int(m[2] or 1)
    if not q:
        raise ValueError(f"zero denominator in coefficient {_shown(coeff)}")
    return int(m[1]), q


def chain_from_json(text: str) -> TensorChain:
    """Parse `chain_to_json` output; malformed input raises `ValueError`.

    Each slot must be a monic monomial in the form `chain_to_json` writes
    and is read straight into its monomial key; any other slot text, also
    another spelling of the same element, is refused.
    """
    try:
        payload = json.loads(text, parse_int=_json_int)
    except RecursionError:
        raise ValueError("chain JSON is nested too deeply") from None
    if not (isinstance(payload, dict) and type(payload.get("n")) is int
            and isinstance(payload.get("terms"), list)):
        raise ValueError("chain JSON must be an object with an integer 'n' and a list 'terms'")
    n = payload["n"]
    if not 1 <= n <= MAX_VARIABLES:
        raise ValueError(f"chain JSON needs 1 <= n <= {MAX_VARIABLES}, got {n}")
    # each distinct slot text is read once, into its key
    slots: Dict[str, Key] = {}
    expanded = []
    for t in payload["terms"]:
        if not (isinstance(t, dict) and isinstance(t.get("word"), list)
                and all(isinstance(s, str) for s in t["word"])):
            raise ValueError("a term must be {'coeff': str, 'word': [str, ...]}, "
                             f"got {_shown(t)}")
        p, q = _coefficient(t.get("coeff"))
        if not t["word"]:
            raise ValueError("a word needs at least one slot")
        for s in t["word"]:
            if s not in slots:
                key = parse_monomial(s, n)
                if key is None:
                    raise ValueError(f"slot {_shown(s)} is not a monic monomial in z1..z{n}, "
                                     f"d1..d{n} of degree at most {MAX_DEGREE}")
                slots[s] = key
        expanded.append((p, q, tuple(map(slots.__getitem__, t["word"]))))
    return _collect(n, expanded)
