"""Tensor chains over the operator algebra and their standard differentials.

A degree-k word is a (k+1)-tuple a0 (x) a1 (x) ... (x) ak of elements of
the n-variable operator algebra; a chain is a finite rational combination
of words (possibly of mixed degree).  By multilinearity every chain has
one canonical form, and that form is what a `TensorChain` stores: a dict
from words to nonzero `Fraction` coefficients, where a word is a tuple of
monomial keys (z_exp, d_exp), one per slot, each slot standing for the
monic monomial z^z_exp d^d_exp.  Equality of chains is dict equality, so
it is exact and decidable.

Only the public constructors validate: `TensorChain.from_terms` (and
`TensorChain.word` and `chain_from_json`, which call it) checks variable
counts and rejects empty words, then expands each slot element into
monic keys.  The operators below map keys to keys with
`weyl.mono_product` and build their results without checking them again.
`TensorChain.terms` is a derived view for readers of elements: the words
in sorted key order, each slot as a one-term monic `WeylElement`.

Operators implemented here:

* hochschild_b   - sum of signed adjacent products plus the wrap-around
                   term (-1)^k (ak a0) (x) a1 (x) ... (x) a(k-1)
* bar_bprime     - the same sum without the wrap-around term
* cyclic_tau     - signed rotation, tau(w) = (-1)^k (ak, a0, ..., a(k-1))
                   on degree-k words
* norm_n         - the norm sum(tau^j, j = 0..k) degree by degree
* shuffle_product- signed interleavings of the interior slots after
                   padding the two factors' keys onto disjoint variable
                   blocks
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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from typing import Dict, Iterable, List, Sequence, Tuple

from .weyl import (Key, WeylElement, WeylMonomial, d_var, format_element, mono_product,
                   parse_element, unit, z_var)

Word = Tuple[WeylElement, ...]
#: a word as stored: one monomial key per slot
KeyWord = Tuple[Key, ...]


@lru_cache(maxsize=4096)
def _slot(key: Key) -> WeylElement:
    """The monic one-term element with monomial key `key`."""
    n = len(key[0])
    return WeylElement(n, ((WeylMonomial(n, *key), Fraction(1)),))


def _add_to(acc: Dict[KeyWord, Fraction], word: KeyWord, coeff: Fraction) -> None:
    if word in acc:
        acc[word] += coeff
    else:
        acc[word] = coeff


def _nonzero(acc: Dict[KeyWord, Fraction]) -> Dict[KeyWord, Fraction]:
    return {w: c for w, c in acc.items() if c}


@dataclass(frozen=True)
class TensorChain:
    """Rational combination of tensor words over the n-variable algebra.

    `words` maps each word (a tuple of monomial keys) to its nonzero
    coefficient; build chains with `from_terms` or `word`.
    """

    n: int
    words: Dict[KeyWord, Fraction]

    @staticmethod
    def from_terms(n: int, raw: Iterable[Tuple[Fraction, Word]]) -> "TensorChain":
        """The chain sum(coeff * word) for words of `WeylElement` slots."""
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        acc: Dict[KeyWord, Fraction] = {}
        for coeff, word in raw:
            if not word:
                raise ValueError("a word needs at least one slot")
            # multilinear expansion: every slot becomes a single monic key
            pieces: List[Tuple[Fraction, KeyWord]] = [(Fraction(coeff), ())]
            for el in word:
                if el.n != n:
                    raise ValueError("word entry has wrong variable count")
                pieces = [(c * mc, prefix + (mono.sort_key,))
                          for c, prefix in pieces for mono, mc in el.terms]
            for c, w in pieces:
                _add_to(acc, w, c)
        return TensorChain(n, _nonzero(acc))

    @staticmethod
    def zero(n: int) -> "TensorChain":
        return TensorChain(n, {})

    @staticmethod
    def word(n: int, coeff, slots: Sequence[WeylElement]) -> "TensorChain":
        return TensorChain.from_terms(n, [(Fraction(coeff), tuple(slots))])

    @cached_property
    def terms(self) -> Tuple[Tuple[Fraction, Word], ...]:
        """(coeff, word) pairs in sorted word order, each slot a monic element."""
        return tuple((self.words[w], tuple(map(_slot, w))) for w in sorted(self.words))

    def is_zero(self) -> bool:
        return not self.words

    def degrees(self) -> set:
        return {len(w) - 1 for w in self.words}

    def __add__(self, other: "TensorChain") -> "TensorChain":
        if self.n != other.n:
            raise ValueError("cannot add chains over different algebras")
        acc = dict(self.words)
        for w, c in other.words.items():
            _add_to(acc, w, c)
        return TensorChain(self.n, _nonzero(acc))

    def __sub__(self, other: "TensorChain") -> "TensorChain":
        return self + (-1) * other

    def __rmul__(self, c) -> "TensorChain":
        c = Fraction(c)
        return TensorChain(self.n, {w: c * k for w, k in self.words.items()} if c else {})

    def __str__(self) -> str:
        if not self.words:
            return "0"
        parts = []
        for coeff, word in self.terms:
            body = " (x) ".join(f"[{format_element(el)}]" for el in word)
            parts.append(f"({coeff}) {body}")
        return " + ".join(parts)


def _boundary(c: TensorChain, wrap: bool) -> TensorChain:
    """Signed adjacent products, plus the wrap-around product if `wrap`."""
    acc: Dict[KeyWord, Fraction] = {}
    for word, coeff in c.words.items():
        k = len(word) - 1
        signed = (coeff, -coeff)
        products = [(word[:i], word[i], word[i + 1], word[i + 2:], signed[i % 2])
                    for i in range(k)]
        if wrap and k:
            products.append(((), word[k], word[0], word[1:k], signed[k % 2]))
        for head, a, b, tail, sc in products:
            for key, m in mono_product(a, b):
                _add_to(acc, head + (key,) + tail, sc if m == 1 else sc * m)
    return TensorChain(c.n, _nonzero(acc))


def hochschild_b(c: TensorChain) -> TensorChain:
    return _boundary(c, wrap=True)


def bar_bprime(c: TensorChain) -> TensorChain:
    return _boundary(c, wrap=False)


def cyclic_tau(c: TensorChain) -> TensorChain:
    # a rotation is a bijection on words, so nothing merges; (-1)^k = -1 for even length
    return TensorChain(c.n, {w[-1:] + w[:-1]: -k if len(w) % 2 == 0 else k
                             for w, k in c.words.items()})


def norm_n(c: TensorChain) -> TensorChain:
    acc: Dict[KeyWord, Fraction] = {}
    for w, coeff in c.words.items():
        k = len(w) - 1
        for j in range(k + 1):
            # tau^j: rotate by j with sign (-1)^(jk)
            _add_to(acc, w[k + 1 - j:] + w[:k + 1 - j], -coeff if j * k % 2 else coeff)
    return TensorChain(c.n, _nonzero(acc))


def normalize(c: TensorChain) -> TensorChain:
    """Kill words with a scalar multiple of 1 in any slot other than slot 0."""
    one = ((0,) * c.n, (0,) * c.n)
    return TensorChain(c.n, {w: k for w, k in c.words.items() if one not in w[1:]})


# ---------------------------------------------------------------------------
# shuffle product
# ---------------------------------------------------------------------------


def _shuffles(p: int, q: int) -> List[Tuple[Tuple[int, ...], int]]:
    """(order, parity) over all (p, q)-interleavings: slot s of an interleaving
    takes entry order[s] of the first interior followed by the second."""
    out = []
    for pos in combinations(range(p + q), p):
        first, second = iter(range(p)), iter(range(p, p + q))
        order = tuple(next(first) if s in pos else next(second) for s in range(p + q))
        out.append((order, sum(pos[i] - i for i in range(p)) % 2))
    return out


def shuffle_product(c1: TensorChain, c2: TensorChain) -> TensorChain:
    """Chain-level shuffle of chains over disjoint variable blocks.

    The second factor is re-indexed to variables n1+1..n1+n2; slot 0 of
    the result is the product of the two slot-0 entries and the interior
    slots are all signed interleavings.
    """
    pad1, pad2 = (0,) * c1.n, (0,) * c2.n
    left = [(tuple((z + pad2, d + pad2) for z, d in w), k) for w, k in c1.words.items()]
    right = [(tuple((pad1 + z, pad1 + d) for z, d in w), k) for w, k in c2.words.items()]
    shuffles: Dict[Tuple[int, int], list] = {}
    acc: Dict[KeyWord, Fraction] = {}
    for w1, k1 in left:
        for w2, k2 in right:
            p, q = len(w1) - 1, len(w2) - 1
            if (p, q) not in shuffles:
                shuffles[p, q] = _shuffles(p, q)
            interior = w1[1:] + w2[1:]
            for head, m in mono_product(w1[0], w2[0]):  # one term: the blocks commute
                coeff = k1 * k2 * m
                signed = (coeff, -coeff)
                for order, parity in shuffles[p, q]:
                    _add_to(acc, (head,) + tuple(map(interior.__getitem__, order)), signed[parity])
    return TensorChain(c1.n + c2.n, _nonzero(acc))


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
    letters = [el.terms[0][0].sort_key
               for i in range(1, n + 1) for el in (d_var(i, n), z_var(i, n))]
    signs = (Fraction(1), Fraction(-1))
    words = {}
    for perm in permutations(range(2 * n)):
        inv = sum(1 for i in range(2 * n) for j in range(i + 1, 2 * n) if perm[i] > perm[j])
        # distinct letters give distinct words, so nothing merges
        words[(one,) + tuple(letters[p] for p in perm)] = signs[inv % 2]
    return TensorChain(n, words)


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

    def column(self, p: int) -> TensorChain:
        for col, chain in self.entries:
            if col == p:
                return chain
        return TensorChain.zero(self.n)

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
    payload = {
        "n": c.n,
        "terms": [
            {"coeff": str(coeff), "word": [format_element(el) for el in word]}
            for coeff, word in c.terms
        ],
    }
    return json.dumps(payload, indent=2)


def chain_from_json(text: str) -> TensorChain:
    """Parse `chain_to_json` output; malformed input raises `ValueError`."""
    payload = json.loads(text)
    if not (isinstance(payload, dict) and type(payload.get("n")) is int
            and isinstance(payload.get("terms"), list)):
        raise ValueError("chain JSON must be an object with an integer 'n' and a list 'terms'")
    raw = []
    for t in payload["terms"]:
        if not (isinstance(t, dict) and isinstance(t.get("coeff"), (str, int))
                and isinstance(t.get("word"), list) and all(isinstance(s, str) for s in t["word"])):
            raise ValueError(f"a term must be {{'coeff': str, 'word': [str, ...]}}, got {t!r}")
        try:
            coeff = Fraction(t["coeff"])
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in coefficient {t['coeff']!r}") from None
        raw.append((coeff, tuple(parse_element(s, payload["n"]) for s in t["word"])))
    return TensorChain.from_terms(payload["n"], raw)
