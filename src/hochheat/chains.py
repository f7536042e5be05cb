"""Tensor chains over the operator algebra and their standard differentials.

A degree-k word is a (k+1)-tuple a0 (x) a1 (x) ... (x) ak of elements of
the n-variable operator algebra; a chain is a finite rational combination
of words (possibly of mixed degree).  By multilinearity every chain has
one canonical form, and that form is what a `TensorChain` stores.  A word
is a tuple of packed monomial keys, one int per slot, each slot standing
for the monic monomial z^z_exp d^d_exp: the key layout of `weyl.pack`,
exponents z1..zn, d1..dn in fields of `weyl.FIELD_BITS` bits, most
significant first.  Integer order of keys is the order of their exponent
vectors, so sorted words come in the order of (z_exp, d_exp) keys, and
the unit monomial 1 is the key 0.  Words hash and compare as flat tuples
of ints.  The coefficients are integer numerators over one common
denominator: `nums` maps each word to a nonzero int and the chain is
sum(nums[w] * w) / den, with den >= 1 and gcd(den, *nums) == 1, so the
zero chain has den == 1.  Equality of chains is then dict equality,
exact and decidable, and every operator below accumulates plain ints and
reduces once, in `_canonical`; a `weyl.WeylElement` stores its terms the
same way, as packed keys with int numerators over one denominator.
Negation, subtraction and integer scalars stay in ints too, and an
operator whose result is canonical as it stands (negation, the rotation
`cyclic_tau`) skips the reduction.

Only the public constructors validate: `TensorChain.from_terms` (and
`TensorChain.word`, which calls it) checks variable counts, 1 to
`weyl.MAX_VARIABLES` as in `chain_from_json`, and rejects
empty words and any coefficient, like a scalar of `*`, that is not an int
or a `Fraction`, then expands each slot element into its packed keys and
numerators; `weyl.WeylElement.from_terms` has packed them, refusing an
exponent above `weyl.MAX_EXPONENT`.  `chain_from_json` checks the same
and reads keys only: it accepts the one slot grammar that `chain_to_json`
writes, one monic monomial per slot, and refuses any other slot text.
`chain_to_json` writes `nums` over `den` and formats and checks each
distinct key once.  The operators below map keys to keys with the one
product kernel `weyl.mono_product`, which refuses a product exponent above
the bound and whose bounded cache is the one product table of every call,
and build their results without checking them again.  `TensorChain.terms`
is a derived view for readers of elements: the words in sorted key
order, each with its `Fraction` coefficient and each slot as a one-term
monic `WeylElement`.  `TensorChain._key_arrays` is the cached view for
array kernels: the distinct keys in sorted order and, per word length,
the words as rows of key ids and their numerators.  The boundary of a
chain of at least ARRAY_WORDS words and the shuffle of at least
ARRAY_TERMS pre-merge terms run on it in one array kernel, `_array_faces`,
whenever its int64 codes and sums cannot overflow (`_sums_fit`): a word,
or a pair of words of a shuffle, is a row of key ids, and a face, or an
interleaving, turns a row into output words.  The kernel sums equal codes,
builds its words in `_decode` and leaves the key arrays on its result.
`forms.hkr_symbol` reads them always.  A smaller shuffle runs a dict
loop that groups the slot-0 keys and numerators of each interior into an
element, multiplies two such elements with `weyl.mul`, which runs the
same product kernel on the same keys, and picks each interleaving's
slots with one `operator.itemgetter`.  Any other boundary runs the dict
loop of `_boundary`, which writes out the faces of 2-, 3- and 4-slot
words one by one, each output word one tuple display: those lengths
carry 94% of the loop's product terms on the benchmark's random chains
and 98% in `hochheat all`.  Words of other lengths slice their slots
around each face.

Operators implemented here:

* hochschild_b   - sum of signed adjacent products plus the wrap-around
                   term (-1)^k (ak a0) (x) a1 (x) ... (x) a(k-1)
* bar_bprime     - the same sum without the wrap-around term
* cyclic_tau     - signed rotation, tau(w) = (-1)^k (ak, a0, ..., a(k-1))
                   on degree-k words
* norm_n         - the norm sum(tau^j, j = 0..k) degree by degree
* shuffle_product- product of the slot-0 elements times the signed
                   interleavings of the interior slots, after padding the
                   two factors' keys onto disjoint variable blocks; on the
                   key arrays from ARRAY_TERMS pre-merge terms, else by dicts
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

import gc
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from collections import Counter
from itertools import chain, combinations, count
from math import comb, gcd, lcm
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .weyl import (FIELD_BITS, MAX_DEGREE, MAX_VARIABLES, WeylElement, _rational, _shown,
                   _sum_over_lcm, d_var, format_monomial, mono_product, mul, pack, parse_monomial,
                   unit, unpack, z_var)

Word = Tuple[WeylElement, ...]
#: a word as stored: one packed monomial key per slot
KeyWord = Tuple[int, ...]


def _canonical(n: int, acc: Dict[KeyWord, int], den: int) -> "TensorChain":
    """The chain sum(acc[w] * w) / den for den >= 1, in canonical form; it may keep `acc`."""
    nums = acc if all(acc.values()) else {w: k for w, k in acc.items() if k}
    g = gcd(den, *nums.values()) if den > 1 else 1
    if g > 1:
        nums = {w: k // g for w, k in nums.items()}
    return TensorChain(n, nums, den // g)


@dataclass(frozen=True)
class TensorChain:
    """Rational combination of tensor words over the n-variable algebra.

    The chain is sum(nums[w] * w) / den over words w (tuples of packed
    monomial keys), in the canonical form of the module docstring; build chains
    with `from_terms` or `word`.
    """

    n: int
    nums: Dict[KeyWord, int]
    den: int

    @staticmethod
    def from_terms(n: int, raw: Iterable[Tuple[Fraction, Word]]) -> "TensorChain":
        """The chain sum(coeff * word) for words of `WeylElement` slots."""
        if type(n) is not int:  # a bool or a float would reach chain JSON as it is
            raise ValueError(f"chain needs an integer n, got {n!r}")
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if n > MAX_VARIABLES:
            raise ValueError(f"chain needs 1 <= n <= {MAX_VARIABLES}, got {n}")
        # (numerator, denominator, word) of every word of the multilinear expansion
        expanded: List[Tuple[int, int, KeyWord]] = []
        for coeff, word in raw:
            if not word:
                raise ValueError("a word needs at least one slot")
            pieces = [(*_rational(coeff), ())]
            for el in word:
                if el.n != n:
                    raise ValueError("word entry has wrong variable count")
                pieces = [(p * mp, q * el.den, prefix + (key,))
                          for p, q, prefix in pieces for key, mp in el.nums]
            expanded += pieces
        return _canonical(n, *_sum_over_lcm(expanded))

    @staticmethod
    def word(n: int, coeff, slots: Sequence[WeylElement]) -> "TensorChain":
        return TensorChain.from_terms(n, [(coeff, tuple(slots))])

    @cached_property
    def terms(self) -> Tuple[Tuple[Fraction, Word], ...]:
        """(coeff, word) pairs in sorted word order, each slot a monic element."""
        n = self.n
        slots = {key: WeylElement(n, ((key, 1),), 1)
                 for key in {key for w in self.nums for key in w}}
        return tuple((Fraction(self.nums[w], self.den), tuple(map(slots.__getitem__, w)))
                     for w in sorted(self.nums))

    @cached_property
    def _key_arrays(self) -> Tuple[List[int], Dict[int, Tuple[np.ndarray, np.ndarray]]]:
        """(keys, groups): the distinct keys in sorted order, and by word length L the
        (ids, nums) of the words of that length, ids a (words, L) int32 array of
        positions in keys and nums their numerators, int64 where each fits, else ints
        in an object array."""
        # by word length, the words and their numerators, read in one pass over nums
        by_length: Dict[int, Tuple[List[KeyWord], List[int]]] = {}
        for w, k in self.nums.items():
            words, nums = by_length.setdefault(len(w), ([], []))
            words.append(w)
            nums.append(k)
        # one hash per slot: the flat position at which each slot's key first occurs,
        # the words taken length by length; the sorted keys rank those positions
        total = sum(length * len(words) for length, (words, _) in by_length.items())
        slots = chain.from_iterable(chain.from_iterable(words for words, _ in by_length.values()))
        first: Dict[int, int] = {}
        at = np.fromiter(map(first.setdefault, slots, count()), np.int64, total)
        keys = sorted(first)
        rank = np.empty(total, dtype=np.int32)
        rank[[first[key] for key in keys]] = np.arange(len(keys), dtype=np.int32)
        ids = rank[at]
        groups, start = {}, 0
        for length, (words, nums) in by_length.items():
            end = start + length * len(words)
            fits = max(map(abs, nums)) >> 63 == 0
            groups[length] = (ids[start:end].reshape(-1, length),
                              np.array(nums, dtype=np.int64 if fits else object))
            start = end
        return keys, groups

    def is_zero(self) -> bool:
        return not self.nums

    def _plus(self, sign: int, other: "TensorChain") -> "TensorChain":
        """self + sign * other for sign = 1 or -1, in one pass."""
        if self.n != other.n:
            raise ValueError("cannot add chains over different algebras")
        den = lcm(self.den, other.den)
        up, up_other = den // self.den, sign * (den // other.den)
        acc = dict(self.nums) if up == 1 else {w: k * up for w, k in self.nums.items()}
        get = acc.get
        for w, k in other.nums.items():
            acc[w] = get(w, 0) + k * up_other
        return _canonical(self.n, acc, den)

    def __add__(self, other: "TensorChain") -> "TensorChain":
        return self._plus(1, other)

    def __sub__(self, other: "TensorChain") -> "TensorChain":
        return self._plus(-1, other)

    def __neg__(self) -> "TensorChain":
        return TensorChain(self.n, {w: -k for w, k in self.nums.items()}, self.den)

    def __rmul__(self, c) -> "TensorChain":
        p, q = (c, 1) if type(c) is int else _rational(c)
        return _canonical(self.n, {w: p * k for w, k in self.nums.items()}, self.den * q)


#: the fewest words of a chain whose boundary runs on its key arrays, the lowest
#: measured crossover: on random chains in 1 variable of degree 2 both paths take the
#: same time at 512 to 768 words (three seeds), at degree 3 at 1280 to 1536, and in 2
#: variables the dict loop stays faster through 1792 words; chains whose faces
#: cancel, like omega_2n, cross lower, and below it numpy's cost per call outweighs
#: its saving per word
ARRAY_WORDS = 576


def _boundary(c: TensorChain, wrap: bool) -> TensorChain:
    """Signed adjacent products, plus the wrap-around product if `wrap`.

    A chain of at least ARRAY_WORDS words goes to `_array_boundary`, and
    the loop below runs when it is smaller or the arrays could overflow.
    Each face takes its product from `weyl.mono_product`, whose bounded
    cache serves the key pairs that recur within and across calls.  Words
    of 2, 3 and 4 slots, 94% of the product terms on the benchmark's
    random chains and 98% in `hochheat all`, unpack once and write each
    face's output word as one tuple display with its sign (-1)^i in its
    line; words of other lengths slice the slots each face keeps once and
    carry the sign by negation.  At every length the faces run in the
    order 0..k-1, then the wrap.
    """
    if len(c.nums) >= ARRAY_WORDS:
        out = _array_boundary(c, wrap)
        if out is not None:
            return out
    n = c.n
    acc: Dict[KeyWord, int] = {}
    get = acc.get
    for word, num in c.nums.items():
        size = len(word)
        if size == 2:
            a, b = word
            for key, m in mono_product(a, b, n):
                w = (key,)
                acc[w] = get(w, 0) + num * m
            if wrap:
                for key, m in mono_product(b, a, n):
                    w = (key,)
                    acc[w] = get(w, 0) - num * m
        elif size == 3:
            a, b, d = word
            for key, m in mono_product(a, b, n):
                w = (key, d)
                acc[w] = get(w, 0) + num * m
            for key, m in mono_product(b, d, n):
                w = (a, key)
                acc[w] = get(w, 0) - num * m
            if wrap:
                for key, m in mono_product(d, a, n):
                    w = (key, b)
                    acc[w] = get(w, 0) + num * m
        elif size == 4:
            a, b, d, e = word
            for key, m in mono_product(a, b, n):
                w = (key, d, e)
                acc[w] = get(w, 0) + num * m
            for key, m in mono_product(b, d, n):
                w = (a, key, e)
                acc[w] = get(w, 0) - num * m
            for key, m in mono_product(d, e, n):
                w = (a, b, key)
                acc[w] = get(w, 0) + num * m
            if wrap:
                for key, m in mono_product(e, a, n):
                    w = (key, b, d)
                    acc[w] = get(w, 0) - num * m
        else:
            k = size - 1
            sign = num
            for i in range(k):
                head, tail = word[:i], word[i + 2:]
                for key, m in mono_product(word[i], word[i + 1], n):
                    w = head + (key,) + tail
                    acc[w] = get(w, 0) + sign * m
                sign = -sign
            if wrap and k:  # the face (ak a0) (x) a1 (x) ... (x) a(k-1), sign (-1)^k
                tail = word[1:k]
                for key, m in mono_product(word[k], word[0], n):
                    w = (key,) + tail
                    acc[w] = get(w, 0) + sign * m
    return _canonical(n, acc, c.den)


def _array_boundary(c: TensorChain, wrap: bool) -> Optional[TensorChain]:
    """The boundary of `_boundary` on the key arrays of `c`, or None if it could overflow.

    Face f of a degree-k word, f < k the product of slots f and f+1 and
    f = k the wrap-around product of slots k and 0, carries the sign (-1)^f
    and puts its product at output slot f % k, the slots before it in place
    and those after it one slot on.
    """
    keys, groups = c._key_arrays
    faces = {}
    for length, words in groups.items():
        if length > 1:
            f, p = np.arange(length - 1 + wrap), np.arange(length - 1)
            order = p + (p > f[:, None])
            order[f, f % (length - 1)] = -1
            faces[length - 1] = [(words, ONE_ROW, (f, (f + 1) % length, None, order, (-1) ** f))]
    return _array_faces(c.n, c.den, keys, faces, max(map(abs, c.nums.values()), default=0))


#: the faces of a group of rows, (a, b, column, order, sign): face f turns a row into
#: words with the sign sign[f] whose slot p holds row slot order[f, p], or at -1 one term
#: of the product of row slots a[c] and b[c], c = column[f] (c = f if column is None)
FaceTable = Tuple[np.ndarray, np.ndarray, Optional[np.ndarray], np.ndarray, np.ndarray]
#: a group of rows, (left, right, faces): left and right rows (ids, nums), ids a (rows,
#: slots) int32 array of positions in a key list and nums their numerators
Group = Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray], FaceTable]
#: the one row of no slots, numerator 1: the right rows of a group of single words
ONE_ROW = (np.zeros((1, 0), dtype=np.int32), np.ones(1, dtype=np.int64))


def _array_faces(n: int, den: int, keys: List[int], groups: Dict[int, List[Group]],
                 largest: int) -> Optional[TensorChain]:
    """sum(sign * num * face(row)) / den over the faces of every row of `groups`, or None
    if it could overflow; the result keeps the key arrays it was decoded from.

    `groups` maps an output length to groups (left, right, faces), ids into
    `keys`; a row of a group pairs a left row with a right one, their slots
    in that order and the product of their numerators, each at most
    `largest` in size.  Each distinct id pair of the (a, b) columns is
    multiplied once with `mono_product`; the sorted input and product keys
    are the id table, and an output word packs into one int64 code, `bits`
    bits per slot, the first slot highest, so codes sort as words do.  Each
    face of each row expands into one code per product term, and the groups
    of one output length go to one `_decode`, which sums equal codes.  None
    if a word needs more than 63 bits or a sum could reach 2^62.
    """
    if not groups:
        return _canonical(n, {}, den)
    size = len(keys)
    # the id pairs of every (a, b) column of every group over its rows, a * size + b
    pairs = [_paired(left, right, size * (eye := np.eye(left.shape[1] + right.shape[1],
                                                       dtype=np.int64))[:, a] + eye[:, b]).ravel()
             for (left, _), (right, _), (a, b, *_) in chain.from_iterable(groups.values())]
    pairs = np.concatenate(pairs) if len(pairs) > 1 else pairs[0]  # no list under np.unique
    distinct, inverse = np.unique(pairs, return_inverse=True)
    del pairs
    products = [mono_product(keys[a], keys[b], n)
                for a, b in zip((distinct // size).tolist(), (distinct % size).tolist())]
    counts = np.fromiter(map(len, products), np.int64, len(products))
    product_keys, mults = zip(*chain.from_iterable(products))
    table = sorted({*keys, *product_keys})
    bits = max(1, (len(table) - 1).bit_length())
    # a bound on the product terms: the most of one product for each face of each row
    terms = int(counts.max()) * sum(len(order) * len(left) * len(right) for (left, _), (right, _),
                                    (*_, order, _) in chain.from_iterable(groups.values()))
    if max(groups) * bits > 63 or not _sums_fit(largest * max(map(abs, mults)), terms):
        return None
    index = dict(zip(table, range(len(table))))
    to_table = np.array([index[key] for key in keys], dtype=np.int32)
    product_ids = np.array([index[key] for key in product_keys], dtype=np.int64)
    mults, first_term = np.array(mults, dtype=np.int64), np.cumsum(counts) - counts
    objects = np.array(table, dtype=object)
    acc: Dict[KeyWord, int] = {}
    found, present = {}, np.zeros(len(table), dtype=bool)
    for length, parts in groups.items():
        shifts = bits * np.arange(length - 1, -1, -1)  # output slot p sits shifts[p] bits up
        coded = []
        for (left, nums1), (right, nums2), (a, _, column, order, sign) in parts:
            rows = len(left) * len(right)
            # column f of `place` shifts the row slots that face f keeps to their output
            # slots, and `at` is the shift of each face's product
            slots = left.shape[1] + right.shape[1]
            place = (np.eye(slots + 1, slots, dtype=np.int64)[order] << shifts[:, None]).sum(1).T
            at = shifts[order.argmin(axis=1)].astype(np.int8)
            # face rows run face-major, row f * rows + r is face f of row r; each array
            # of face rows is dropped as soon as the term rows no longer need it, the
            # face pairs of `inverse` once the last group has read its own
            base = _paired(to_table[left], to_table[right], place).ravel()
            inv = inverse[:len(a) * rows]
            inverse = inverse[len(inv):] if len(inverse) > len(inv) else None
            if column is not None:  # the faces that share a column read its pairs
                inv = inv.reshape(len(a), rows)[column].ravel()
            per = counts[inv]
            face_row = np.repeat(np.arange(len(base), dtype=np.int32), per)
            start = first_term[inv]
            del inv
            start -= np.cumsum(per)
            start += per
            term = np.repeat(start, per).astype(np.int32)
            del start, per
            term += np.arange(len(face_row), dtype=np.int32)
            codes = product_ids[term]
            codes <<= np.repeat(at, rows)[face_row]
            codes += base[face_row]
            del base
            values = mults[term]
            values *= np.outer(sign, np.outer(nums1, nums2)).ravel()[face_row]
            del face_row, term
            coded.append((codes, values))
        # one group's arrays go to `_decode` as they are, several are joined first
        codes, values = (x[0] if len(x) == 1 else np.concatenate(x) for x in zip(*coded))
        found[length] = ids, _ = _decode(acc, codes, values, bits, length, objects)
        present[ids] = True
    out = _canonical(n, acc, den)
    # the ids rank among the keys the words keep, and the numerators lose the gcd taken
    # (no copy of either where the words keep every key and the gcd is 1)
    kept, rank, g = np.flatnonzero(present), np.cumsum(present, dtype=np.int32) - 1, den // out.den
    out.__dict__["_key_arrays"] = ([table[i] for i in kept.tolist()], {
        length: (ids if len(kept) == len(table) else rank[ids], sums if g == 1 else sums // g)
        for length, (ids, sums) in found.items() if len(sums)})
    return out


def _paired(left: np.ndarray, right: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(columns, left rows, right rows): per column of `weights` (slots, columns), the
    sum of each slot's id times its weight over the rows, left slots first."""
    return ((left @ weights[:left.shape[1]]).T[:, :, None]
            + (right @ weights[left.shape[1]:]).T[:, None])


def _decode(acc: Dict[KeyWord, int], codes: np.ndarray, values: np.ndarray, bits: int,
            length: int, table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sum the values of equal codes with `_sum_runs` and add each word whose sum is
    nonzero to `acc`; return the words' ids, a (words, length) int32 array, and the sums.

    A code holds `length` slot ids of `bits` bits, the first slot highest, and
    `table` is the object array of the keys the ids stand for.  The ids are read
    one slot column at a time, and the words are zipped from one list per column,
    DECODE_ROWS rows at a time, so that those lists stay small beside the words.
    """
    codes, sums = _sum_runs(codes, values)
    ids = np.empty((len(codes), length), dtype=np.int32)
    for t in range(length):
        ids[:, t] = codes >> bits * (length - 1 - t) & (1 << bits) - 1
    del codes
    for start in range(0, len(ids), DECODE_ROWS):
        rows = slice(start, start + DECODE_ROWS)
        acc.update(zip(zip(*[table[column].tolist() for column in ids[rows].T]),
                       sums[rows].tolist()))
    return ids, sums


#: the rows `_decode` turns into words at a time: its lists per column then take
#: under 2 MB at any length up to 16 slots
DECODE_ROWS = 1 << 14


def _sums_fit(largest: int, rows: int) -> bool:
    """Whether `rows` values, each of size at most `largest`, sum in int64: every
    partial sum of `_sum_runs` over them then stays below 2^62."""
    return largest * rows >> 62 == 0


def _sum_runs(codes: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(distinct, sums): the distinct codes whose values sum to nonzero, and those sums;
    one argsort, then one reduceat."""
    order = np.argsort(codes)
    codes, values = codes[order], values[order]
    del order
    # a run starts at row 0, if there is one, and wherever the code changes
    first = np.flatnonzero(np.concatenate((np.ones(min(1, len(codes)), dtype=bool),
                                           codes[1:] != codes[:-1])))
    sums = np.add.reduceat(values, first)
    kept = sums != 0
    return codes[first[kept]], sums[kept]


def hochschild_b(c: TensorChain) -> TensorChain:
    return _boundary(c, wrap=True)


def bar_bprime(c: TensorChain) -> TensorChain:
    return _boundary(c, wrap=False)


def cyclic_tau(c: TensorChain) -> TensorChain:
    # a rotation is a bijection on words and keeps |numerators|, so the result is
    # canonical as it stands; (-1)^k = -1 for even length
    return TensorChain(c.n, {w[-1:] + w[:-1]: -k if len(w) % 2 == 0 else k
                             for w, k in c.nums.items()}, c.den)


def norm_n(c: TensorChain) -> TensorChain:
    acc: Dict[KeyWord, int] = {}
    get = acc.get
    for w, num in c.nums.items():
        acc[w] = get(w, 0) + num  # tau^0; tau^j rotates by j with sign (-1)^(jk), k = len(w) - 1
        sign, flip = num, -1 if len(w) % 2 == 0 else 1
        for j in range(1, len(w)):
            sign *= flip
            r = w[-j:] + w[:-j]
            acc[r] = get(r, 0) + sign
    return _canonical(c.n, acc, c.den)


def normalize(c: TensorChain) -> TensorChain:
    """Kill words with a scalar multiple of 1, the key 0, in any slot other than slot 0."""
    return _canonical(c.n, {w: k for w, k in c.nums.items() if 0 not in w[1:]}, c.den)


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
    padded = {key: pad(key) for key in {key for w in c.nums for key in w}}.__getitem__
    groups: Dict[KeyWord, List[Tuple[int, int]]] = {}
    for w, k in c.nums.items():
        groups.setdefault(tuple(map(padded, w[1:])), []).append((padded(w[0]), k))
    # distinct words with one interior have distinct heads, and the denominator is 1:
    # sorted, the heads are in canonical form
    return [(inner, WeylElement(n, tuple(sorted(heads, reverse=True)), 1))
            for inner, heads in groups.items()]


#: the fewest pre-merge terms (`_shuffle_terms`) of a shuffle that runs on the key
#: arrays.  On random factors of equal word counts (fresh key arrays each call, three
#: seeds), both paths take the same time, in 1 variable per factor, at 250 to 500
#: terms for degrees (1, 1), (2, 2) and (3, 1) and at 500 to 1000 for (3, 3); in 2
#: variables at 250 to 500 for (1, 1) and (3, 1) and 500 to 1000 for (2, 2), while
#: at (3, 3) the dict loop keeps pace through 4000.  The omega products, 2205 terms
#: and up, run 3 to 4 times faster on the arrays, and the largest random pair of the
#: benchmark, 252 terms, stays on the dict loop
ARRAY_TERMS = 1024


def _shuffle_terms(c1: TensorChain, c2: TensorChain) -> int:
    """The terms the shuffle of c1 and c2 expands into before equal words merge: over
    word lengths p + 1 and q + 1, count1 * count2 * C(p + q, p).  Two factors of one
    word length each, every shuffle of the suite, take one C-level `set` pass each."""
    lengths1, lengths2 = set(map(len, c1.nums)), set(map(len, c2.nums))
    if len(lengths1) == len(lengths2) == 1:
        (l1,), (l2,) = lengths1, lengths2
        return len(c1.nums) * len(c2.nums) * comb(l1 + l2 - 2, l1 - 1)
    counts1, counts2 = Counter(map(len, c1.nums)), Counter(map(len, c2.nums))
    return sum(k1 * k2 * comb(l1 + l2 - 2, l1 - 1)
               for l1, k1 in counts1.items() for l2, k2 in counts2.items())


def shuffle_product(c1: TensorChain, c2: TensorChain) -> TensorChain:
    """Chain-level shuffle of chains over disjoint variable blocks.

    The second factor is re-indexed to variables n1+1..n1+n2.  With each
    factor written as sum(A_i (x) i) over its interiors i, the shuffle of
    A (x) i and B (x) j is (A B) (x) sh(i, j): slot 0 is the product of the
    two slot-0 elements and the interior slots are all signed interleavings
    of i and j.  A key pads by shifting its z and d halves into the fields
    of its block.  A shuffle of at least ARRAY_TERMS pre-merge terms runs
    in the boundary's array kernel (`_array_shuffle`) unless it could
    overflow; any other runs the dict loop below, which multiplies the two
    slot-0 elements with `weyl.mul` and takes each (p, q)-interleaving of
    `_shuffles` as one `operator.itemgetter`, built once per call.
    """
    n = c1.n + c2.n
    if n > MAX_VARIABLES:
        raise ValueError(f"a shuffle in {n} variables, more than {MAX_VARIABLES}")
    half, half1, half2 = n * FIELD_BITS, c1.n * FIELD_BITS, c2.n * FIELD_BITS
    d1, d2 = (1 << half1) - 1, (1 << half2) - 1
    pad1 = lambda key: (key >> half1 << half2 + half) | (key & d1) << half2
    pad2 = lambda key: (key >> half2 << half) | (key & d2)
    if _shuffle_terms(c1, c2) >= ARRAY_TERMS:
        out = _array_shuffle(c1, c2, pad1, pad2)
        if out is not None:
            return out
    left, right = _by_interior(c1, n, pad1), _by_interior(c2, n, pad2)
    # by interior lengths (p, q), a (picker, parity) per interleaving; one slot or none
    # has one order, the identity
    pickers = {(p, q): [(itemgetter(*order) if len(order) > 1 else tuple, parity)
                        for order, parity in _shuffles(p, q)]
               for p in {len(i1) for i1, _ in left} for q in {len(i2) for i2, _ in right}}
    acc: Dict[KeyWord, int] = {}
    get = acc.get
    for i1, a in left:
        for i2, b in right:
            interior = i1 + i2
            # over denominator 1, the product's numerators are its coefficients
            heads = [((key,), num) for key, num in mul(a, b).nums]
            for pick, parity in pickers[len(i1), len(i2)]:
                tail = pick(interior)
                for head, num in heads:
                    w = head + tail
                    acc[w] = get(w, 0) + (-num if parity else num)
    return _canonical(n, acc, c1.den * c2.den)


def _array_shuffle(c1: TensorChain, c2: TensorChain, pad1, pad2) -> Optional[TensorChain]:
    """The shuffle of `shuffle_product` on the key arrays of nonzero c1 and c2, keys padded
    by `pad1` and `pad2`, or None if it could overflow.

    Each distinct key of a factor pads once.  Per pair of word lengths, one
    group of `_array_faces` pairs the words of c1 (left rows) with those of
    c2 (right rows), and each interleaving of `_shuffles` is one face: the
    slot-0 product at output slot 0, then the interior slots in its order.
    """
    (keys1, groups1), (keys2, groups2) = c1._key_arrays, c2._key_arrays
    rights = {l2: (ids2 + len(keys1), nums2) for l2, (ids2, nums2) in groups2.items()}
    groups: Dict[int, List[Group]] = {}
    for l1, left in groups1.items():
        for l2, right in rights.items():
            inner, parity = (np.array(x, dtype=np.int64)
                             for x in zip(*_shuffles(l1 - 1, l2 - 1)))
            # output slot 0 holds the product of the two slot-0 keys, and entry e of the
            # two interiors is row slot e + 1, or e + 2 past the first interior
            order = np.hstack((np.full((len(inner), 1), -1), inner + 1 + (inner >= l1 - 1)))
            groups.setdefault(l1 + l2 - 1, []).append((left, right, (
                np.array([0]), np.array([l1]), 0 * parity, order, 1 - 2 * parity)))
    largest = max(map(abs, c1.nums.values())) * max(map(abs, c2.nums.values()))
    return _array_faces(c1.n + c2.n, c1.den * c2.den, [*map(pad1, keys1), *map(pad2, keys2)],
                        groups, largest)


def omega_cycle(n: int) -> TensorChain:
    """Shuffle n copies of the degree-2 cycle 1(x)d(x)z - 1(x)z(x)d + 1(x)1(x)1."""
    if n < 1:
        raise ValueError("need n >= 1")
    one = unit(1)
    base = (
        TensorChain.word(1, 1, [one, d_var(1, 1), z_var(1, 1)])
        - TensorChain.word(1, 1, [one, z_var(1, 1), d_var(1, 1)])
        + TensorChain.word(1, 1, [one, one, one])
    )
    result = base
    for _ in range(n - 1):
        result = shuffle_product(result, base)
    return result


def normalized_omega_formula(n: int) -> TensorChain:
    """Independent closed form: sum over permutations sigma of the 2n interior
    slots of sgn(sigma) 1 (x) sigma(d1 (x) z1 (x) ... (x) dn (x) zn).

    Heap's algorithm visits every permutation, each one transposition away
    from the last, so the signs alternate from +1.
    """
    word = [0] + [el.nums[0][0] for i in range(1, n + 1) for el in (d_var(i, n), z_var(i, n))]
    words, sign = {(*word,): 1}, 1  # distinct letters give distinct words, so nothing merges
    counters, i = [0] * (2 * n + 1), 2
    while i <= 2 * n:  # positions 1..2n of word; position 0 holds the unit
        if counters[i] < i - 1:
            j = 1 if i % 2 else counters[i] + 1
            word[j], word[i] = word[i], word[j]
            sign = -sign
            words[(*word,)] = sign
            counters[i] += 1
            i = 2
        else:
            counters[i] = 0
            i += 1
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
            out.append((col, -bar_bprime(chain)))
            out.append((col - 1, chain - cyclic_tau(chain)))
    return TsyganColumnVector.from_entries(v.n, out)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def chain_to_json(c: TensorChain) -> str:
    """The chain as JSON: {"n": n, "terms": [{"coeff": "p/q", "word": [slot, ...]}, ...]}.

    Words come in sorted key order and each slot is its monic monomial in
    the text format; each distinct key is formatted and quoted once.  The
    text is the bytes of `json.dumps(..., indent=2)`, laid out here rather
    than through the pure-Python encoder that `indent` selects.  A
    coefficient part of more than MAX_COEFF_DIGITS digits raises
    `ValueError`, and so does a slot text that the reader's `_slot_key` refuses.
    """
    n, nums, den = c.n, c.nums, c.den
    plain = (format_monomial(unpack(key, n)) for key in {key for w in nums for key in w})
    texts = {_slot_key(text, n): json.encoder.encode_basestring_ascii(text) for text in plain}

    def coeff(num: int) -> str:  # str(Fraction(num, den)) without building the Fraction
        g = gcd(num, den)
        p, q = num // g, den // g
        if not (-_COEFF_BOUND < p < _COEFF_BOUND and q < _COEFF_BOUND):
            raise ValueError(f"a coefficient of the chain has more than {MAX_COEFF_DIGITS} digits")
        return str(p) if q == 1 else f"{p}/{q}"

    terms = ['    {\n      "coeff": "' + coeff(nums[w]) + '",\n      "word": [\n        '
             + ",\n        ".join(map(texts.__getitem__, w)) + "\n      ]\n    }"
             for w in sorted(nums)]
    body = "[\n" + ",\n".join(terms) + "\n  ]" if terms else "[]"
    return '{\n  "n": ' + str(n) + ',\n  "terms": ' + body + "\n}"


#: a coefficient as `chain_to_json` writes it: an integer or a fraction
_COEFF_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

#: the most digits the numerator or the denominator of a chain JSON coefficient may
#: have, in the writer and the reader: the interpreter's default bound on int() of a
#: digit string and on str() of an int
MAX_COEFF_DIGITS = 4300
_COEFF_BOUND = 10 ** MAX_COEFF_DIGITS  # the least integer of more than MAX_COEFF_DIGITS digits


def _check_digits(coeff, *digits: int) -> None:
    """Refuse a coefficient with a part of more than MAX_COEFF_DIGITS digits."""
    if max(digits) > MAX_COEFF_DIGITS:
        raise ValueError(f"coefficient {_shown(coeff)} has more than {MAX_COEFF_DIGITS} digits")


def _json_int(text: str) -> int:
    """A bare JSON integer, refused past MAX_COEFF_DIGITS digits before int() reads it."""
    _check_digits(text, len(text.lstrip("-")))
    return int(text)


@lru_cache(maxsize=256)
def _coefficient(text: str) -> Tuple[int, int]:
    """(p, q) with q >= 1 of a "p" or "p/q" coefficient text; any other text raises `ValueError`."""
    m = _COEFF_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"coefficient {_shown(text)} is not an integer or a fraction p/q")
    _check_digits(text, len(m[1].lstrip("-")), len(m[2] or ""))
    q = int(m[2] or 1)
    if not q:
        raise ValueError(f"zero denominator in coefficient {_shown(text)}")
    return int(m[1]), q


#: a bound on the slot texts `format_monomial` writes, 2 * MAX_VARIABLES factors of at
#: most "*z16^64": a longer text is refused before it is parsed
_LONGEST_SLOT = 2 * MAX_VARIABLES * len(f"*z{MAX_VARIABLES}^{MAX_DEGREE}")


@lru_cache(maxsize=256)
def _slot_key(text: str, n: int) -> int:
    """The packed key of a slot text as `chain_to_json` writes it; any other text raises."""
    key = parse_monomial(text, n) if len(text) <= _LONGEST_SLOT else None
    if key is None:
        raise ValueError(f"slot {_shown(text)} is not a monic monomial in z1..z{n}, "
                         f"d1..d{n} of degree at most {MAX_DEGREE}")
    return pack(key)


#: the one decoder of chain JSON, which reads each bare integer with `_json_int`
_DECODER = json.JSONDecoder(parse_int=_json_int)


def chain_from_json(text: str) -> TensorChain:
    """Parse `chain_to_json` output; malformed input raises `ValueError`.

    The input must be a `str`.  Each slot must be a monic monomial in the
    form `chain_to_json` writes and is read straight into its packed
    monomial key; any other slot text, also another spelling of the same
    element, is refused.  Slot texts and coefficient texts are read through
    bounded tables (`_slot_key`, `_coefficient`) that keep no refusal.  The
    cyclic garbage collector is paused while the text is read, since the
    parse makes a dict and a list per term and nothing of it forms a cycle,
    and its state is restored after.
    """
    if not isinstance(text, str):
        raise ValueError(f"chain JSON must be a str, got {type(text).__name__}")
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_chain(text)
    finally:
        if enabled:
            gc.enable()


def _read_chain(text: str) -> TensorChain:
    try:
        payload = _DECODER.decode(text)
    except RecursionError:
        raise ValueError("chain JSON is nested too deeply") from None
    if not (isinstance(payload, dict) and type(payload.get("n")) is int
            and isinstance(payload.get("terms"), list)):
        raise ValueError("chain JSON must be an object with an integer 'n' and a list 'terms'")
    n = payload["n"]
    if not 1 <= n <= MAX_VARIABLES:
        raise ValueError(f"chain JSON needs 1 <= n <= {MAX_VARIABLES}, got {n}")
    # each distinct slot text is checked and read once a chain; a word's new slot texts
    # are type-checked before its coefficient is read and parsed after, so each refusal
    # comes in the order it always came
    slots: Dict[str, int] = {}
    expanded = []
    for t in payload["terms"]:
        word, fresh = t.get("word") if isinstance(t, dict) else None, []
        try:
            if not isinstance(word, list):
                raise TypeError
            for s in word:
                if s not in slots:  # a TypeError for an unhashable slot
                    if not isinstance(s, str):
                        raise TypeError
                    fresh.append(s)
        except TypeError:
            raise ValueError("a term must be {'coeff': str, 'word': [str, ...]}, "
                             f"got {_shown(t)}") from None
        coeff = t.get("coeff")
        if type(coeff) is str:
            pq = _coefficient(coeff)
        elif type(coeff) is int:
            pq = coeff, 1
        else:
            raise ValueError(f"coefficient {_shown(coeff)} is not an integer or a fraction p/q")
        if not word:
            raise ValueError("a word needs at least one slot")
        for s in fresh:
            if s not in slots:
                slots[s] = _slot_key(s, n)
        expanded.append((*pq, tuple(map(slots.__getitem__, word))))
    return _canonical(n, *_sum_over_lcm(expanded))
