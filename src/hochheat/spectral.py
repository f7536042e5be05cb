"""Truncated spectral model for the d-bar Laplacians of O(k) on the sphere.

Geometry conventions:

* base measure (1/pi) (1+|z|^2)^(-2) dx dy on the affine chart, total mass 1;
* fibre weight (1+|z|^2)^(-k) for sections of O(k), k >= 0;
* (0,1)-forms g dzbar paired as integral of g1 conj(g2) (1+|z|^2)^(-k)
  (1/pi) dx dy, i.e. the conformal factor of the chart metric cancels
  against the area element.  This fixes the overall eigenvalue scale; all
  asserted quantities (kernel dimensions, supertraces, limits) are scale
  independent.

Truncation uses the weighted monomial family

    chi_(a,b) = z^a zbar^b (1+|z|^2)^(-N),  0 <= a <= N+k,  0 <= b <= N,

which is linearly independent, square integrable for every index, and
contains the holomorphic sections 1, z, ..., z^k exactly, so the discrete
kernel in degree 0 has dimension k+1 for every truncation.  Every inner
product reduces to

    integral z^s zbar^s (1+|z|^2)^(-m) (1/pi) dx dy = s! (m-s-2)! / (m-1)!

so every matrix is an integer matrix times one exact rational scale: the
Gram entries are s! (M-s-2)! over (M-1)! with M = 2N+k+2, and each
operator pairing is a numerator over (m-1)!.  The Gram and stiffness
matrices are block diagonal over the charge q = a - b: block q holds
z^(b+q) zbar^b for b = max(0,-q), max(0,-q) + 1, ..., each degree's
(charge, size) are one closed form (`_layout`), and every reader takes a
block's basis from them.  Index j of block q is the power of r = |z|^2
past r^|q|, so its Gram block is the Hankel moment matrix
G_ij = (i+j+alpha)! (M-i-j-alpha-2)! of r^alpha (1+r)^(-M) on [0, inf),
alpha = |q|.  Its orthogonal polynomials are a finite Romanovski-Jacobi
family, (alpha+1)_j 2F1(-j, j+alpha-M+1; alpha+1; -r) (Krattenthaler,
*Advanced determinant calculus*), whose coefficients, each row divided by
its content, form one integer lower triangle W with W G W^T = diag(p),
p > 0.  Nothing is taken from the formula on trust.  The Gram depends only
on alpha and M, and every block of one alpha is a leading block of the
largest one, so the rows of each alpha are certified once, on that largest
block, against the moment sequence s! (M-s-2)!: each row of the lower
triangle of U = W G is one exact Hankel correlation of the moments with a
row of W, and the build is refused unless U is upper triangular and every
p_j = U_jj W_jj is positive, which is W G W^T = diag(p) > 0.  A lower
triangular congruence that diagonalizes G is unique up to row scales, so a
wrong row cannot pass.  With G = L D L^T, the congruence D^(-1/2) L^-1 A
L^-T D^(-1/2) is then X_ij / sqrt(p_i p_j) with X = W A W^T, so each entry
leaves exact arithmetic once, just before the dense symmetric eigensolve.

The (0,1)-forms get their own family, with the same Gram closed form and M,

    psi_(a,b) = z^a zbar^b (1+|z|^2)^(-(N+1)) dzbar,  0 <= a <= N+k+1,  0 <= b <= N-1,

and form block q+1 (alpha = |q+1|) is paired with section block q.
dbar chi_(a,b) = b psi_(a,b-1) + (b-N) psi_(a+1,b) and dbar* psi_(a,b) =
-a chi_(a-1,b) + (N+k+1-a) chi_(a,b+1) stay inside the two families, and
for k >= 0 the forms span exactly dbar of the sections (dimension
N(N+k+2), the section count minus k+1), and both families share M.  The
integer incidences D and T of dbar and dbar* come straight from that
index arithmetic over the blocks of `_layout`, two terms a row, a term
that would leave the basis with coefficient 0 (`_incidence`).  The
stiffness is D G1 D^T in degree 0 and T G0 T^T in degree 1, and its
congruence is X = U G1 U^T with U = W0 D.  Each row u_i is expanded in
the form block's certified rows, den_i u_i = sum_m c_im W1_m exactly (W1
is triangular with a nonzero diagonal), so X_ij = sum_m c_im c_jm p1_m /
(den_i den_j), summed over the pairs of terms that share a block and an m:
the same rational, so the same rounded bits.  Every block of one degree
goes in one array pass (`_stiffness`): U over the lower triangles and the
expansion of every row at once, one step a column (`_peel`), both in int64
where a Python-integer bound proves every term below 2^63 and in Python
integers otherwise.  In each of the 780 models build_model admits (every
k with N <= 40) each u_i has one or two c_im and rows two apart share
none, so X is tridiagonal in W coordinates; that shape sets only the cost,
and no code path reads it.  Each entry is rounded once (`_signed_root`),
one Python int / int quotient per radicand.  build_model(0, 40) and
build_model(38, 40), whose expansions pass int64, take 0.16-0.24 s and
0.54-0.73 s on one 2-CPU host.
Degree 1 expands W1 T in W0 on its own, and each degree is solved on
its own and keeps its eigenvectors.
Only integration by parts, T G0 = G1 D^T, ties their nonzero spectra
together, so the supersymmetric pairing and the flat heat supertrace
compare two independent computations.

Operator pairings <op f_j, f_i>, with f the chi or the psi of one block,
use the same closed form, and no image is built per basis function.  For
f_j = z^a_j zbar^b_j (1+|z|^2)^(-g), den * op f_j lifted to the largest
power g + dmax of (1+|z|^2) that op reaches is the sum of
kappa[sigma, tau](a_j) z^(a_j+sigma+tau) zbar^(b_j+tau) over the charge
shifts sigma = e - f of its terms z^e d^f and the lift offsets tau <= dmax;
each kappa is one fixed combination of falling factorials of a_j.  Only
sigma = 0 pairs with the block's charge and a_j + b_i = alpha + i + j, so,
with m the total power of (1+|z|^2) in the integrand, (m-1)! times the
pairing is P = sum_tau H_tau diag(kappa[0, tau]), with H_tau the Hankel
slice s! (m-s-2)!, s = alpha + tau + i + j.  A pair fails to
integrate exactly when the top degree of its nonzero charged terms adds up
past 2m - 3; no neutral term can.  So one table of each a's top charged
sigma + 2 tau decides every escape, the first escaping pair by arithmetic
(`_check_integrable`), and raises what the term-by-term reference of the
test oracles (`tests/oracles.py`) raises on the same pair: the kappa are
the exact sums of the image's monomials, so a cancelled top term is left out.
A query builds its blocks in one array pass per (model, degree, operator):
their escapes are tested at once, the first in its order raising before any
is built; their int64 pairings are one padded Hankel sum
(`_operator_pairings`); and X = W P W^T is exact for all of them
(`_round_congruences`), the int64 blocks one stack that a float error bound
proves exact (the float product itself below 2^52, else the uint64 one),
the others in Python integers.  Every z d/dz block takes machine words for
N <= 15 and k <= 8, and 75 of 98 do at (k, N) = (0, 24).  Each entry is
rounded once (`_signed_root`): in float64 for the blocks whose radicands
X_ij^2 num^2 / (p_i den^2 p_j) have every part below 2^53 (115 of the 200
z d/dz blocks of the four sweep models), else in Python integers, with the
same floats either way.
`limit_supertrace` and `harmonic_supertrace` read the same signed diagonals
<op e, e>, the latter at the kernel vectors only, so it builds only the
blocks that hold one; every supertrace of the report goes through them.
`heat_supertrace` reads the sorted spectra; only the benchmark calls it.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import comb, factorial
from numbers import Real
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .weyl import WeylElement, format_element, unpack

#: largest truncation `build_model` accepts, checked before any work; a cost
#: bound on one 2-CPU host: N = 40 takes 0.16-0.24 s for k = 0 and
#: 0.54-0.73 s for k = 38, the largest k it admits (as a whole command at k = 38,
#: `spectrum` 0.59-1.02 s and `harmonic` 1.12-1.73 s over 14 cold runs on a 2-CPU
#: Intel Xeon host, Python 3.11.7, numpy 2.4.6), and one z d/dz
#: `limit_supertrace` 0.34-0.45 s for k = 0 and 1.05-1.25 s for k = 38, most of
#: it exact O(s^3) products past the machine words
MAX_TRUNC = 40

IntMat = List[List[int]]

#: the operator congruence keeps rows and pairings in int64 only below this, exact in float64
_EXACT = 2 ** 52
#: int64 magnitudes stay below this
_WORD = 2 ** 63
#: entries in one Python-integer rounding pass: few enough that its temporaries stay in cache
_RUN = 4096


class OperatorEscapeError(ValueError):
    """An operator leaves the square-integrable truncation."""


class IllConditionedGramError(RuntimeError):
    """A failed exact certificate, or an eigenvalue below its measured error."""


# ---------------------------------------------------------------------------
# exact linear algebra on integer blocks
# ---------------------------------------------------------------------------


def _orthogonal_rows(size: int, alpha: int, m: int) -> np.ndarray:
    """Rows 0..size-1 of W for the Hankel Gram (i+j+alpha)! (m-i-j-alpha-2)!: a lower triangle.

    Row j holds the coefficients of r^0..r^j in (alpha+1)_j 2F1(-j,
    j+alpha-m+1; alpha+1; -r), C(j,c) (j+alpha-m+1)_c (alpha+c+1)_(j-c),
    divided by their content and signed so that the leading one is positive.
    Each coefficient follows from the previous one by the term ratio; int64
    below `_EXACT`, else Python integers.  Needs 2 (size-1) + alpha <= m - 2;
    `_certify` certifies the result.
    """
    w = np.zeros((size, size), dtype=object)
    for j in range(size):
        term = math.prod(range(alpha + 1, alpha + j + 1))
        row = [term]
        for c in range(j):
            term = term * (j - c) * (j + alpha - m + 1 + c) // ((c + 1) * (alpha + c + 1))
            row.append(term)
        g = math.gcd(*row)
        w[j, :j + 1] = [v // g if term > 0 else -v // g for v in row]
    return w.astype(np.int64) if np.abs(w).max() < _EXACT else w


def _signed_root(x: np.ndarray, scale, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sign(x) sqrt(x^2 scale / (left right)) for integer arrays, broadcast together.

    left, right > 0 and scale >= 0.  Each radicand leaves exact arithmetic
    once, as one correctly rounded quotient: of Python integers, so no
    intermediate overflows, or of float64 where every x^2 scale and
    left right is an integer below 2^53, so exact.
    """
    root = np.sqrt((x * x * scale / (left * right)).astype(float))
    return np.where(x < 0, -root, root)


def _machine_congruences(w: np.ndarray, a: np.ndarray,
                         sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """X_b = W_b A_b W_b^T for a stack of int64 blocks padded with zeros, and where it is exact.

    W and A are int64 only below `_EXACT`, so exact in float64; W_b has a
    nonzero integer diagonal and sizes[b] rows.  By |fl(BC) - BC| <= g |B||C|,
    g = s u / (1 - s u), u = 2^-53 (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., sec. 3.5), |X| < |Xh| + 4 s u Bh with
    Xh = fl(fl(W A) W^T) and Bh = fl(|W||A||W|^T).  Below Bh = 2^52 every
    partial sum of both products is an integer below 2^53 (|W||A| <= Bh), so
    Xh is X; below |Xh| + 4 s u Bh = 2^62 the uint64 product, exact modulo
    2^64, read as int64 is X.  Returns X and where it is proved.
    """
    wf, af = w.astype(float), a.astype(float)
    wt = wf.transpose(0, 2, 1)
    aw = np.abs(wf)
    xh, bound = wf @ af @ wt, aw @ np.abs(af) @ aw.transpose(0, 2, 1)
    small = bound.reshape(len(w), -1).max(axis=1, initial=0) < 2.0 ** 52
    if small.all():
        return xh.astype(np.int64), small
    error = np.abs(xh) + (4 * 2.0 ** -53 * sizes)[:, None, None] * bound
    proved = error.reshape(len(w), -1).max(axis=1, initial=0) < 2.0 ** 62
    x = np.where(small[:, None, None], xh, 0).astype(np.int64)
    wide = proved & ~small
    if wide.any():
        wu = w[wide].astype(np.uint64)
        x[wide] = (wu @ a[wide].astype(np.uint64) @ wu.transpose(0, 2, 1)).view(np.int64)
    return x, proved


def _round_congruences(w: Sequence[np.ndarray], mats: Sequence[np.ndarray],
                       norms: Sequence[Sequence[int]],
                       scales: Sequence[Fraction]) -> List[np.ndarray]:
    """float(scale_b S L^-1 A_b L^-T S), S = D^(-1/2), for every block b of a batch at once.

    W_b holds lower triangular rows, W G W^T = diag(norms[b]), and A_b is an
    integer matrix, each int64 or Python integers.  X = W A W^T is exact: one
    stack of the int64 blocks where `_machine_congruences` proves it, Python
    integers over W's lower triangle for the others.  Each radicand
    X_ij^2 num^2 / (p_i den^2 p_j), scale_b = num / den, p = norms[b], is one
    correctly rounded quotient (`_signed_root`): one float64 pass for the
    blocks whose every such numerator and denominator is below 2^53, so an
    exact float, and Python integers for the others, in runs of about `_RUN`
    entries.  So each block gets the bits it gets alone.
    """
    sizes = [len(wb) for wb in w]
    x: List[np.ndarray] = [None] * len(w)
    fits: List[int] = []  # the blocks whose radicands are exact floats
    words = [b for b in range(len(w)) if w[b].dtype == mats[b].dtype == np.int64]
    if words:
        s = max(sizes[b] for b in words)
        stack = np.zeros((2, len(words), s, s), dtype=np.int64)
        for row, b in enumerate(words):
            stack[0, row, :sizes[b], :sizes[b]], stack[1, row, :sizes[b], :sizes[b]] = w[b], mats[b]
        xw, proved = _machine_congruences(*stack, np.array([sizes[b] for b in words]))
        top = np.abs(xw).max(axis=(1, 2)).tolist()
        for row, b in enumerate(words):
            if proved[row]:
                x[b] = xw[row, :sizes[b], :sizes[b]]
                if (top[row] ** 2 * scales[b].numerator ** 2 < 2 ** 53
                        and max(norms[b]) ** 2 * scales[b].denominator ** 2 < 2 ** 53):
                    fits.append(b)
    for b in range(len(w)):
        if x[b] is None:  # V = W A, then X = V W^T, each over W's lower triangle
            s = sizes[b]
            wb, ab = w[b].astype(object), mats[b].astype(object)
            v, x[b] = np.empty((s, s), dtype=object), np.empty((s, s), dtype=object)
            for i in range(s):
                v[i] = wb[i, :i + 1].dot(ab[:i + 1])
            for j in range(s):
                x[b][:, j] = v[:, :j + 1].dot(wb[j, :j + 1])
    runs = [fits, []]  # the float64 pass, then the others in runs of about _RUN entries
    for b in (b for b in range(len(w)) if b not in fits):
        if sum(sizes[r] ** 2 for r in runs[-1]) >= _RUN:
            runs.append([])
        runs[-1].append(b)
    out: List[np.ndarray] = [None] * len(w)
    for dtype, run in zip([float] + [object] * len(runs), runs):
        if run:  # each block padded with x = 0 and p = 1
            s = max(sizes[b] for b in run)
            xs, p = np.zeros((len(run), s, s), dtype=dtype), np.ones((len(run), s), dtype=dtype)
            for row, b in enumerate(run):
                xs[row, :sizes[b], :sizes[b]], p[row, :sizes[b]] = x[b], norms[b]
            num, den = np.array([(scales[b].numerator ** 2, scales[b].denominator ** 2)
                                 for b in run], dtype=dtype).T[:, :, None]
            root = _signed_root(xs, num[:, :, None], (p * den)[:, :, None], p[:, None, :])
            for row, b in enumerate(run):
                out[b] = root[row, :sizes[b], :sizes[b]].copy()
    return out


def _certify(mom: Sequence[int], alpha: int, w: np.ndarray) -> List[int]:
    """The norms of W G W^T = diag(norms) > 0, certified exactly, for G_jr = mom[alpha + j + r].

    Row i of the lower triangle of U = W G, U_ij = sum_r W_ir mom[alpha + j + r]
    for j <= i, is one exact Hankel correlation of the moments with row i of
    W.  W G W^T = U W^T is then diag(norms) > 0 exactly when U is upper
    triangular and every norm_j = U_jj W_jj is positive; otherwise this
    raises IllConditionedGramError.
    """
    mom = np.array(mom[alpha:alpha + 2 * len(w) - 1], dtype=object)
    norms = []
    for i, wi in enumerate(w.astype(object)):
        *u, top = np.correlate(mom[:2 * i + 1], wi[:i + 1]).tolist()  # U_i0 .. U_ii
        norm = top * wi[i]
        if any(u) or norm <= 0:
            raise IllConditionedGramError(
                f"row {i} of W does not diagonalize the Gram block to a positive norm")
        norms.append(norm)
    return norms


def _peel(u: np.ndarray, w: np.ndarray, owner: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The expansion den_i u_i = sum_m c_im W_m of every row of u at once, row i in the
    lower triangular rows w[owner[i]], whose diagonal is nonzero.

    Each step takes the last nonzero column m of what is left of every live
    row, scales the row, den and the coefficients so far by
    f = |w_mm| / gcd(rest_m, w_mm), subtracts t w_m, t = f rest_m / w_mm, and
    keeps c_im = t in column m, which the subtraction has just zeroed.  So a
    row takes at most one step a column, and its coefficients share one array
    with what is left of it: the columns from its last m on hold c, the ones
    before it the rest.  A step runs in int64 while a Python-integer bound
    proves every term below 2^63, otherwise in Python integers.  Returns
    (den, c), c with one column per row of w, once no row has anything left.
    """
    n, width = u.shape
    state = np.zeros((n, width + 1), dtype=u.dtype)  # rest, then c | den
    state[:, :width], state[:, width] = u, 1
    end = np.full(n, width)  # where each row's c begins
    reach = int(np.abs(w).max()) if w.dtype == np.int64 else 0
    live, rows = np.arange(n), state  # the rows with something left, and their state
    while True:
        left = (rows[:, :width] != 0) & (np.arange(width) < end[live, None])
        keep = left.any(axis=1)
        if not keep.all():  # a row with nothing left is never read again
            live, rows, left = live[keep], rows[keep], left[keep]
        if not len(live):
            return state[:, width], state[:, :width]
        m = width - 1 - np.argmax(left[:, ::-1], axis=1)  # the last nonzero column
        peel, at = w[owner[live], m], np.arange(len(live))
        top, lead = peel[at, m], rows[at, m]
        g = np.gcd(lead, top)
        f, t = abs(top) // g, lead // g * np.sign(top)
        if state.dtype == np.int64 and (int(np.abs(rows).max()) * int(f.max())
                                        + int(abs(t).max()) * reach) >= _WORD:
            state, rows, f, t = (a.astype(object) for a in (state, rows, f, t))
        rows *= f[:, None]
        rows[:, :width] -= t[:, None] * peel
        rows[at, m] = t
        state[live], end[live] = rows, m


def _stiffness(w: Sequence[np.ndarray], norms: Sequence[Sequence[int]],
               incidence: Tuple[np.ndarray, np.ndarray], w_other: Sequence[np.ndarray],
               norms_other: Sequence[Sequence[int]]) -> List[np.ndarray]:
    """The rounded congruences of the stiffness R G' R^T of one degree's blocks.

    Block b has the certified rows w[b], W G W^T = diag(norms[b]), and its
    operator (dbar or dbar*) an integer incidence R_b into block b of the
    other degree, whose Gram G' has the certified rows w_other[b],
    W' G' W'^T = diag(norms_other[b]).  Row r of R_b is row start_b + r of
    incidence = (col, coef), `_incidence`'s two terms; a term with a nonzero
    coefficient outside the other block is an OperatorEscapeError.  Each
    entry of X = U G' U^T, U = W R, is rounded once as X_ij / sqrt(p_i p_j)
    (`_signed_root`).

    The blocks go together, their rows one after another: U = W R over
    each block's lower triangle, in int64 where max|W| max|R| s < 2^63;
    the expansion den_i u_i = sum_m c_im W'_m of every row (`_peel`); and
    X_ij = sum_m c_im c_jm p'_m / (den_i den_j), the same rational, summed
    exactly over the pairs of terms that share a block and an m.  In every
    model `build_model` admits each u_i has one or two c_im and rows two
    apart share none, so X is tridiagonal; that decides only the cost.
    Returns each block's matrix, in order.
    """
    sizes, width = [len(wb) for wb in w], max(map(len, w_other))
    nb, start = len(w), np.cumsum([0] + sizes)
    owner = np.repeat(np.arange(nb), sizes)  # the block of each row; its rows are consecutive
    index = np.arange(start[-1]) - start[owner]  # each row's index in its block
    flat = np.concatenate([wb.ravel() for wb in w])  # W_b[i, r] = flat[offset_b + i s_b + r]
    offset = np.cumsum([0] + [s * s for s in sizes])
    col, coef = incidence
    sizes_other = np.array([len(wb) for wb in w_other])
    outside = (coef != 0) & ((col < 0) | (col >= sizes_other[owner, None]))
    if outside.any():
        i, t = np.argwhere(outside)[0]
        raise OperatorEscapeError(f"term {t} of row {index[i]} in block {owner[i]} "
                                  f"leaves the basis at column {col[i, t]}")
    words = (all(wb.dtype == np.int64 for wb in (*w, *w_other))  # |U| <= max|W| max|R| s
             and int(np.abs(flat).max()) * int(np.abs(coef).max()) * max(sizes) < _WORD)
    dtype = np.int64 if words else object
    # entry e of R_b, at (r, col), adds W_b[i, r] R_b[r, col] to U_b[i, col] for each i >= r
    src, term = np.nonzero(coef)  # start_b + r of each e
    col, coef = col[src, term], coef[src, term].astype(dtype)
    span = start[owner[src] + 1] - src
    e = np.repeat(np.arange(len(src)), span)
    dest = src[e] + np.arange(len(e)) - np.repeat(np.cumsum(span) - span, span)  # start_b + i
    u = np.zeros(len(owner) * width, dtype=dtype)
    np.add.at(u, dest * width + col[e],
              flat[offset[owner[dest]] + index[dest] * np.asarray(sizes)[owner[dest]]
                   + index[src[e]]].astype(dtype) * coef[e])
    u = u.reshape(-1, width)
    w_stack = np.zeros((nb, width, width), dtype=dtype)
    for b, wb in enumerate(w_other):
        w_stack[b, :len(wb), :len(wb)] = wb
    den, c = _peel(u, w_stack, owner)

    # X_ij sums c_im c_jm p'_m over the pairs of terms that share a (block, m): in (block,
    # m, row) order, term lo pairs with itself and with every later term hi of its (block, m)
    row, m = np.nonzero(c)
    order = np.argsort(owner[row] * width + m, kind="stable")
    row, m = row[order], m[order]
    key, cm = owner[row] * width + m, c[row, m].astype(object)
    p_other = np.array(list(chain.from_iterable(norms_other)), dtype=object)
    start_other = np.cumsum([0] + [len(qb) for qb in norms_other])
    weight = cm * p_other[start_other[owner[row]] + m]  # c_im p'_m
    group = np.searchsorted(key, key, side="right") - np.arange(len(key))  # the terms from lo on
    lo = np.repeat(np.arange(len(key)), group)
    hi = lo + np.arange(len(lo)) - np.repeat(np.cumsum(group) - group, group)
    pos, inverse = np.unique(row[lo] * len(owner) + row[hi], return_inverse=True)
    x = np.zeros(len(pos), dtype=object)
    np.add.at(x, inverse, weight[lo] * cm[hi])
    i, j = np.divmod(pos, len(owner))
    p = np.array(list(chain.from_iterable(norms)), dtype=object)
    scaled = den.astype(object) ** 2 * p  # den_i^2 p_i
    out = np.zeros((nb, max(sizes), max(sizes)))
    out[owner[i], index[i], index[j]] = out[owner[i], index[j], index[i]] = (
        _signed_root(x, 1, scaled[i], scaled[j]))
    return [out[b, :s, :s] for b, s in enumerate(sizes)]


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------


@dataclass
class _Block:
    charge: int           # a - b of its basis, whose closed form `_layout` gives
    w: np.ndarray         # closed-form rows, lower triangular: a leading block of the alpha's rows
    norms: List[int]      # W G W^T = diag(norms); with G = L D L^T, W = diag(sqrt(norms / D)) L^-1
    scale: Fraction       # the Gram block is scale * G: 1/(M-1)! times the gcd of the certified norms
    lam: np.ndarray       # ascending eigenvalues of the block's Laplacian
    vecs: np.ndarray      # orthonormal eigenvectors (columns), reduced coords


@dataclass(frozen=True)
class SpectralModel:
    k: int
    trunc: int
    blocks: List[_Block]               # degree 0, the sections chi, one block per charge
    forms: List[_Block]                # degree 1, the forms psi; forms[i] pairs with blocks[i]
    harmonic0: List[Tuple[int, int]]   # (block index, eigen column)
    harmonic1: List[Tuple[int, int]]   # (form block index, eigen column)
    # each degree's eigenvalues, sorted, its kernel exactly 0: the one spectrum every view reads
    _flat0: np.ndarray = field(repr=False)
    _flat1: np.ndarray = field(repr=False)

    @cached_property
    def basis_meta(self) -> Dict[str, object]:
        """`max_gram_condition`, recorded only and computed on first read: the float condition
        number of the largest section Gram block of each alpha, which bounds its leading ones."""
        fact = [factorial(i) for i in range(2 * self.trunc + self.k + 2)]
        # section block q >= 0 is the largest of alpha = q and holds block -q as a leading block
        grams = (_gram(len(b.w), b.charge, fact) for b in self.blocks if b.charge >= 0)
        return {"max_gram_condition": max(float(np.linalg.cond([[v / fact[-1] for v in row]
                                                                 for row in g])) for g in grams)}


def _layout(k: int, n: int, degree: int) -> np.ndarray:
    """Each block, a row (charge c, size), of the sections (degree 0: c = -N..N+k, a <= N+k,
    b <= N) or the forms (degree 1: c = 1-N..N+k+1, a <= N+k+1, b <= N-1), in charge order.
    Block c holds z^(b+c) zbar^b, b = max(0,-c), max(0,-c) + 1, ...: its first a is max(c, 0)."""
    charge = np.arange(-n, n + k + 1) + degree
    size = np.minimum(n - degree, n + k + degree - charge) - np.maximum(0, -charge) + 1
    return np.stack([charge, size], axis=1)


def _incidence(k: int, n: int, degree: int) -> Tuple[np.ndarray, np.ndarray]:
    """The integer incidence of dbar (degree 0) or dbar* (degree 1) as (col, coef), each (rows, 2).

    The rows run over the degree's basis, block after block of `_layout`;
    each holds the two terms of its image in the other degree's block:
    dbar chi_(a,b) = b psi_(a,b-1) + (b-N) psi_(a+1,b), at columns
    b - max(0,-q-1) + (-1, 0), and dbar* psi_(a,b) = -a chi_(a-1,b) +
    (N+k+1-a) chi_(a,b+1), at columns b - max(0,-q) + (0, 1), with q the
    charge of the section block.  A term that would leave the basis has
    coefficient 0.  The adjoint of dbar is g dzbar -> -(1+|z|^2)^(k+2) d/dz ((1+|z|^2)^(-k) g).
    """
    charge, size = _layout(k, n, degree).T
    lo = np.maximum(0, -charge)  # the first zbar exponent b of each block
    q = np.repeat(charge - degree, size)  # each row's section charge, and its b
    b = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size) + np.repeat(lo, size)
    col = (b - np.maximum(0, degree - 1 - q))[:, None] + ((-1, 0), (0, 1))[degree]
    a = b + q + 1
    return col, np.stack([b, b - n] if degree == 0 else [-a, n + k + 1 - a], axis=1)


def _gram(size: int, alpha: int, fact: List[int]) -> IntMat:
    """(M-1)! times the Gram block of charge +-alpha: entries s! (M-s-2)!, s = i + j + alpha."""
    top = len(fact)
    return [[fact[s] * fact[top - s - 2] for s in range(i + alpha, i + alpha + size)]
            for i in range(size)]


def build_model(k: int, trunc: int) -> SpectralModel:
    """Assemble and diagonalize the truncated model for O(k) at truncation N.

    The rows of each alpha are made (`_orthogonal_rows`) and certified
    (`_certify`) once, for its largest block in `_layout`.  Each degree is
    then assembled once, degree 0 first: one `_stiffness` call for all its
    blocks, from its incidence (`_incidence`) and the other degree's rows
    and norms.  One `np.linalg.eigh` call solves the stack of all blocks of
    each size.  `basis_meta`, recorded only, is computed on its first read.

    Requires integers k >= 0 and k + 2 <= trunc <= MAX_TRUNC.  Each block's
    measured error, s 2^-52 max|lam| plus the residual of its lowest
    eigenpair, is taken once per stack: the exact congruence X is positive
    semidefinite, its one rounding (1 ulp an entry) moves an eigenvalue by
    at most s 2^-52 ||X||_2 (Weyl), and some eigenvalue of the rounded block
    lies within the residual of the computed one (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 4).  An eigenvalue within it of 0 is exactly 0,
    the kernel every view of the spectrum reads.  Raises
    IllConditionedGramError if the closed-form rows of an alpha fail their
    exact certificate, or if a block's lowest eigenvalue is below minus its
    measured error.
    """
    for name, value in (("k", k), ("trunc", trunc)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if k < 0:
        raise ValueError(f"bundle degree k must be >= 0, got {k}")
    if trunc < k + 2:
        raise ValueError(f"trunc must be at least k + 2 = {k + 2}, got {trunc}")
    if trunc > MAX_TRUNC:
        raise ValueError(f"trunc must be at most {MAX_TRUNC}, got {trunc}")
    n = trunc
    fact = [factorial(i) for i in range(2 * n + k + 2)]  # up to (M-1)!, M = 2N+k+2
    mom = [fact[s] * fact[-2 - s] for s in range(len(fact) - 1)]  # s! (M-s-2)!
    unit = Fraction(1, fact[-1])
    layout = [_layout(k, n, degree).tolist() for degree in (0, 1)]
    largest: Dict[int, int] = {}  # alpha -> the largest block that uses it, in either degree
    for charge, size in chain(*layout):
        largest[abs(charge)] = max(largest.get(abs(charge), 0), size)
    rows = {alpha: _orthogonal_rows(size, alpha, len(fact)) for alpha, size in largest.items()}
    norms = {alpha: _certify(mom, alpha, w) for alpha, w in rows.items()}
    w = [[rows[abs(c)][:s, :s] for c, s in blocks] for blocks in layout]
    p = [[norms[abs(c)][:s] for c, s in blocks] for blocks in layout]
    # D G1 D^T in degree 0, T G0 T^T in degree 1
    x = [_stiffness(w[d], p[d], _incidence(k, n, d), w[1 - d], p[1 - d]) for d in (0, 1)]
    # one eigensolve per block size: eigh solves a stack matrix by matrix, so each block
    # gets the bits it gets alone; each X is exactly symmetric, and so is its rounding
    mats = x[0] + x[1]
    solved = {}  # matrix index -> (lam, vecs, error)
    for size in {len(a) for a in mats}:
        members = [i for i, a in enumerate(mats) if len(a) == size]
        stack = np.stack([mats[i] for i in members])
        lam, vecs = np.linalg.eigh(stack)
        low = vecs[:, :, :1]  # each block's lowest eigenvector, as a column
        error = size * 2.0 ** -52 * np.abs(lam).max(axis=1) + np.linalg.norm(
            (stack @ low - lam[:, :1, None] * low)[:, :, 0], axis=1)
        # the one rule for zero: a rounded kernel would tilt heat traces at large t
        lam[np.abs(lam) <= error[:, None]] = 0.0
        solved.update(zip(members, zip(lam, vecs, error)))
    eigen = (solved[i] for i in range(len(mats)))
    blocks, forms = [], []
    for degree, out in enumerate((blocks, forms)):
        for (charge, _), wb, pb in zip(layout[degree], w[degree], p[degree]):
            lam, vecs, error = next(eigen)
            if lam[0] < 0:  # below minus its measured error
                raise IllConditionedGramError(
                    f"negative eigenvalue {lam[0]:.3e} below its measured error {error:.1e} "
                    f"in the degree-{degree} block at charge {charge}")
            g = math.gcd(*pb)  # g keeps the radicands of the operator congruences small
            out.append(_Block(charge, wb, [v // g for v in pb], unit * g, lam, vecs))
    harmonic = [[(bi, col) for bi, b in enumerate(bs) for col in range(len(b.lam))
                 if b.lam[col] == 0.0] for bs in (blocks, forms)]
    flat = [np.sort(np.concatenate([b.lam for b in bs])) for bs in (blocks, forms)]
    return SpectralModel(k=k, trunc=trunc, blocks=blocks, forms=forms, harmonic0=harmonic[0],
                         harmonic1=harmonic[1], _flat0=flat[0], _flat1=flat[1])


# ---------------------------------------------------------------------------
# operators and supertraces
# ---------------------------------------------------------------------------


def _image_coefficients(op: WeylElement, power: int,
                        dmax: int) -> List[Tuple[Tuple[int, int], int, int]]:
    """den * op on z^a zbar^b (1+|z|^2)^(-power), den = op.den, lifted to the power power + dmax.

    With w = 1+|z|^2, a term c z^e d^f of op (d = d/dz) gives, by Leibniz,
    c sum_l C(f,l) (a)_(f-l) (-1)^l (power)^(l) z^(a+e-f+l) zbar^(b+l) w^-(power+l),
    falling (a)_r and rising (power)^(l); lifting w^-(power+l) to
    w^-(power+dmax) multiplies it by sum_u C(dmax-l, u) (z zbar)^u.  So the
    lifted image is the sum over sigma = e - f and tau = l + u <= dmax of
    kappa[sigma, tau](a) z^(a+sigma+tau) zbar^(b+tau), and kappa[sigma, tau](a)
    is a sum of terms K (a)_r that does not depend on b.  Returns the
    ((sigma, tau), r, K) of every term, K an integer: op's numerators
    `op.nums` are c den.
    """
    out = []
    for key, signed in op.nums:  # c den (-1)^l (power)^(l) at step l
        (e,), (f,) = unpack(key, 1)
        for l in range(f + 1):
            for u in range(dmax - l + 1):
                out.append(((e - f, l + u), f - l, signed * comb(f, l) * comb(dmax - l, u)))
            signed *= -(power + l)
    return out


def _check_integrable(tops: Sequence[float], s: int, alpha: int, m: int) -> None:
    """Raise where an image of one block of size s escapes against a basis function.

    tops[j] is the largest sigma + 2 tau over the nonzero charged (sigma != 0)
    coefficients kappa[sigma, tau][j] of image j, -inf where there is none.
    Paired with f_i = z^a_i zbar^b_i under the total weight (1+|z|^2)^(-m),
    a term has the radial degree sigma + 2 (tau + i + j + alpha), so the pair
    escapes when tops[j] + 2 (i + j + alpha) exceeds 2m - 3.  A neutral term
    never diverges: every block `build_model` admits has alpha + 2 (s-1) <=
    M - 2 (`tests/test_spectral.py` checks all 780 models), and tau <= dmax
    with m = M + dmax, so its degree is at most 2 (m - 2) = 2m - 4.  The
    first escaping row is the least i with 2 i > limit - max_j (tops[j] + 2 j),
    limit = 2m - 3 - 2 alpha; its first escaping j is named, the pair that the
    generic pairing kernel of `tests/oracles.py` names in row-major order.
    """
    limit = 2 * m - 3 - 2 * alpha
    reach = np.asarray(tops, dtype=float) + 2 * np.arange(s)  # tops[j] + 2 j
    i = max(0.0, np.floor((limit - reach.max(initial=-math.inf)) / 2) + 1)  # the first row
    if i < s:
        j = int(np.argmax(reach > limit - 2 * i))
        raise OperatorEscapeError(
            f"image {j} paired with basis function {int(i)} leaves the square-integrable "
            f"truncation (radial degree {int(tops[j] + 2 * (i + j + alpha))}, weight {m})")


def _operator_pairings(model: SpectralModel, op: WeylElement, degree: int,
                       which: Iterable[int]) -> Iterator[Tuple[np.ndarray, Fraction]]:
    """Each listed block's exact pairing <op f_j, f_i> as a reduced integer matrix and a scale.

    f runs over the basis of one degree's block: z^a zbar^b (1+|z|^2)^(-power)
    with (power, weight) (N, k+2) for the sections chi (degree 0) and
    (N+1, k) for the coefficients of the forms psi (degree 1).  Each image
    den * op f_j, lifted to the largest power top it can reach, is
    sum kappa[sigma, tau][j] z^(a_j+sigma+tau) zbar^(b_j+tau)
    (`_image_coefficients`), and only its sigma = 0 terms pair with the
    block's charge.  One pass over every a of either degree tabulates the
    kappa and tops[a], the largest sigma + 2 tau of a's nonzero charged
    kappa (-inf where there is none), which test every block at once: the
    first to escape in `which` order raises (`_check_integrable`) before any
    is built.  Since a_j + b_i = alpha + i + j, the pairing times (m-1)! is
    P = sum_tau H_tau diag(kappa[0, tau]), H_tau the Hankel slice
    mom[alpha + tau + i + j] of mom[s] = s! (m-s-2)!, m = top + weight, the
    window divided by its gcd once per (alpha, size).  The blocks where the
    window and max(window) sum_tau max_j |kappa[0, tau][j]|, a bound on |P|,
    are below `_EXACT` are one padded int64 Hankel sum; each other one is
    summed alone in Python integers.
    """
    n, k = model.trunc, model.k
    power, extra = (n, k + 2) if degree == 0 else (n + 1, k)
    dmax = max((unpack(key, 1)[1][0] for key, _ in op.nums), default=0)
    m = power + dmax + power + extra
    mom = [factorial(s) * factorial(m - s - 2) for s in range(m - 1)]
    kappa_of: Dict[Tuple[int, int], List[int]] = {}  # [sigma, tau][a]: kappa[sigma, tau](a)
    for key, r, c in _image_coefficients(op, power, dmax):
        vals = kappa_of.setdefault(key, [0] * (n + k + 2))  # every a of either degree
        kappa_of[key] = [v + c * math.perm(a, r) for a, v in enumerate(vals)]
    blocks = [(model.blocks, model.forms)[degree][bi] for bi in which]
    keys = [(abs(b.charge), len(b.w)) for b in blocks]  # (alpha, s)
    size = np.array([s for _, s in keys], dtype=int)
    j = np.arange(max(size, default=0))
    inside = j < size[:, None]  # (block, j)
    a0 = np.array([max(b.charge, 0) for b in blocks], dtype=int)  # a_j = a0 + j
    at = np.where(inside, a0[:, None] + j, n + k + 2)  # a_j, or a column of zeros
    charged = [(sigma + 2 * tau, vals + [0]) for (sigma, tau), vals in kappa_of.items() if sigma]
    if charged:  # tops[a_j] as above, -inf past the block; its last row i = s - 1 reaches farthest
        tops = np.max([np.where(np.array(v, dtype=object) != 0, t, -math.inf) for t, v in charged],
                      axis=0)
        reach = (tops[at] + 2 * j).max(axis=1, initial=-math.inf) + 2 * (size - 1)
        for b in np.flatnonzero(reach + 2 * np.array([a for a, _ in keys]) > 2 * m - 3)[:1]:
            _check_integrable(tops[at[b, :size[b]]], keys[b][1], keys[b][0], m)
    neutral = [(tau, vals + [0]) for (sigma, tau), vals in kappa_of.items() if not sigma]
    fits = max((abs(v) for _, vals in neutral for v in vals), default=0) < _EXACT
    kappa = np.array([vals for _, vals in neutral], dtype=np.int64 if fits else object).reshape(
        len(neutral), n + k + 3).T[at]  # (block, j, tau), 0 past the block
    bound = np.abs(kappa).max(axis=1, initial=0).sum(axis=1).tolist()  # 0 when nothing pairs
    # the moments each block reads, divided by their gcd, and their largest; alpha + 2 (s-1)
    # <= M - 2 for every block and m = M + dmax, so the window ends inside mom
    windows = {}
    for a, s in set(keys):
        window = mom[a:a + 2 * s - 1 + dmax]
        g = math.gcd(*window)
        windows[a, s] = g, [v // g for v in window], max(window) // g
    words = [windows[key][2] * max(r, 1) < _EXACT for key, r in zip(keys, bound)]
    hankel, unit = j[:, None] + j, op.den * factorial(m - 1)
    mats: List[np.ndarray] = [None] * len(keys)
    scales: List[Fraction] = [None] * len(keys)
    for part in filter(None, [[b for b, w in enumerate(words) if w]]
                       + [[b] for b, w in enumerate(words) if not w]):
        dtype, s = np.int64 if words[part[0]] else object, max(keys[b][1] for b in part)
        sel = slice(None) if len(part) == len(keys) else part
        win = np.array([windows[keys[b]][1] + [0] * (2 * (s - keys[b][1])) for b in part], dtype)
        kap, mat = kappa[sel, None, :s].astype(dtype), np.zeros((len(part), s, s), dtype)
        for t, (tau, _) in enumerate(neutral):
            mat += win[:, tau:][:, hankel[:s, :s]] * kap[..., t]
        if len(part) > 1:  # rows past a block's size read the rest of its window
            mat *= inside[sel, :s, None]
        gcd = np.gcd.reduce(mat.reshape(len(part), -1), axis=1)
        if (gcd > 1).any():
            mat //= np.maximum(gcd, 1)[:, None, None]
        for row, b in enumerate(part):
            mats[b] = mat[row, :keys[b][1], :keys[b][1]]
            scales[b] = Fraction(windows[keys[b]][0] * int(gcd[row]), unit)
    return zip(mats, scales)


def _operator_blocks(model: SpectralModel, op: WeylElement, degree: int,
                     which: Optional[Iterable[int]] = None) -> Dict[int, np.ndarray]:
    """Reduced-coordinate matrices of the operator pairing in one degree, by block index.

    Degree 0: entries <op chi_j, chi_i>; degree 1: entries <op psi_j, psi_i>,
    with op acting on the dzbar coefficient.  Only the blocks in `which`
    (default: all of that degree) are built, in one pass: their exact integer
    pairings (`_operator_pairings`), then their congruences by each block's
    own rows and norms, which round each entry once (`_round_congruences`).
    """
    if op.n != 1:
        raise OperatorEscapeError("operators on the model must be one-variable elements")
    max_coeff_deg = max((unpack(key, 1)[0][0] for key, _ in op.nums), default=0)
    if max_coeff_deg > model.trunc:
        raise OperatorEscapeError(
            f"operator coefficient degree {max_coeff_deg} exceeds truncation {model.trunc} "
            f"for {format_element(op)!r}"
        )
    blocks = (model.blocks, model.forms)[degree]
    which = list(range(len(blocks)) if which is None else which)
    if not which:
        return {}
    mats, scales = zip(*_operator_pairings(model, op, degree, which))
    return dict(zip(which, _round_congruences(
        [blocks[bi].w for bi in which], mats, [blocks[bi].norms for bi in which],
        [scale / blocks[bi].scale for bi, scale in zip(which, scales)])))


def _heat_time(t: object) -> float:
    """t as a float; a ValueError names t unless it is a positive finite real number, not a bool."""
    try:
        value = float(t) if isinstance(t, Real) and not isinstance(t, bool) else math.nan
    except OverflowError:  # an int or Fraction past the float range
        value = math.inf
    if not 0 < value < math.inf:
        raise ValueError(f"heat time must be a positive finite real number, got {t!r}")
    return value


def heat_supertrace(model: SpectralModel, t: float) -> float:
    """Trace of the heat operator on sections minus trace on (0,1)-forms.

    Only the benchmark calls it; the report reads `limit_supertrace` of the identity.
    """
    t = _heat_time(t)
    s0 = float(np.exp(-t * model._flat0).sum())
    s1 = float(np.exp(-t * model._flat1).sum())
    return s0 - s1


def _supertrace_terms(model: SpectralModel, op: WeylElement,
                      columns: Sequence[Dict[int, object]]) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and signed diagonals +-<op e, e> (+ in degree 0, - in degree 1) of the
    eigen-columns `columns[degree][block index]` (a list, or `slice(None)` for all); only
    those blocks are built, one pass a degree.  Each diagonal is a row-wise dot of Y with A Y."""
    lams, diags = [np.empty(0)], [np.empty(0)]
    for degree, (sign, blocks, chosen) in enumerate(zip((1.0, -1.0), (model.blocks, model.forms),
                                                        columns)):
        mats = _operator_blocks(model, op, degree, chosen)
        for bi, cols in chosen.items():
            y = blocks[bi].vecs[:, cols]
            lams.append(blocks[bi].lam[cols])
            diags.append(sign * np.einsum("ij,ij->j", y, mats[bi] @ y))
    return np.concatenate(lams), np.concatenate(diags)


def harmonic_supertrace(model: SpectralModel, op: WeylElement) -> float:
    """Supertrace of the compression of op to the numerical harmonic spaces.

    The t = infinity case of `limit_supertrace`: the same terms, read only
    at the kernel vectors of `harmonic0` and `harmonic1`, so only the blocks
    that hold one are built.  For k >= 0 the degree-1 kernel is empty
    (`spectrum.kernel.forms` checks `harmonic1`), so only degree 0
    contributes.
    """
    columns: List[Dict[int, object]] = [{}, {}]
    for chosen, harmonic in zip(columns, (model.harmonic0, model.harmonic1)):
        for bi, col in harmonic:
            chosen.setdefault(bi, []).append(col)
    return float(_supertrace_terms(model, op, columns)[1].sum())


def limit_supertrace(
    model: SpectralModel, op: WeylElement, t_grid: Sequence[float]
) -> Tuple[List[float], float]:
    """Supertrace of op e^(-t Laplacian) on a grid, and its terminal value.

    Each degree sums e^(-t lam_i) <op e_i, e_i> over its own orthonormal
    eigenbasis, counted + in degree 0 and - in degree 1, one dot product a
    time, each degree's blocks built in one pass.  As t grows it converges to
    `harmonic_supertrace`.  A grid that is not a sequence of times, a bare
    time or a string, is a ValueError.
    """
    try:
        times = None if isinstance(t_grid, (str, bytes)) else list(t_grid)
    except TypeError:  # a bare time, or anything else that does not iterate
        times = None
    if times is None:
        raise ValueError(f"t_grid must be a sequence of heat times, got {t_grid!r}")
    grid = [_heat_time(t) for t in times]
    if not grid:
        raise ValueError("t_grid must be non-empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    lam, diag = _supertrace_terms(model, op, [dict.fromkeys(range(len(blocks)), slice(None))
                                              for blocks in (model.blocks, model.forms)])
    series = [float(np.exp(-t * lam) @ diag) for t in grid]
    return series, series[-1]


# ---------------------------------------------------------------------------
# spectrum cache
# ---------------------------------------------------------------------------


def spectrum_summary(model: SpectralModel) -> Dict[str, object]:
    """The kernel dimensions and each degree's sorted nonzero eigenvalues, as JSON values."""
    return {
        "k": model.k,
        "trunc": model.trunc,
        "eigs0": model._flat0[model._flat0 > 0].tolist(),
        "eigs1": model._flat1[model._flat1 > 0].tolist(),
        "dim_harmonic0": len(model.harmonic0),
        "dim_harmonic1": len(model.harmonic1),
    }


def _record(summary: Dict[str, object]) -> bytes:
    """The bytes of a model's cache file: its summary as indented JSON, keys sorted."""
    return json.dumps(summary, indent=2, sort_keys=True).encode("ascii")


def cache_path(cache_dir: str, k: int, trunc: int) -> str:
    """The cache file for (k, trunc)."""
    return os.path.join(cache_dir, f"spectrum_k{k}_N{trunc}.json")


def load_spectrum(cache_dir: str, model: SpectralModel) -> Optional[Dict[str, object]]:
    """The model's summary if its cache file holds exactly the bytes `store_spectrum` writes
    for it, else None: a miss, after which the caller rewrites the file.

    The file is a record of the model, never a source of values: a hit and a
    miss give the same summary.  The read stops one byte past the record's
    length, so a longer file differs without being read whole.
    """
    summary = spectrum_summary(model)
    record = _record(summary)
    try:
        with open(cache_path(cache_dir, model.k, model.trunc), "rb") as fh:
            held = fh.read(len(record) + 1)
    except OSError:  # no file, a directory, unreadable
        return None
    return summary if held == record else None


def store_spectrum(cache_dir: str, model: SpectralModel) -> str:
    """Write the record atomically: a temporary file in the same directory, then a rename.

    Raises OSError when the directory cannot be made or written; the
    temporary file is removed.
    """
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, model.k, model.trunc)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".spectrum-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_record(spectrum_summary(model)))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path
