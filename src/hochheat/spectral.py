"""Truncated spectral model for the d-bar Laplacians of O(k) on the sphere.

Geometry conventions (the cache tag ``fs-unit-volume:v1``):

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
matrices are block diagonal over the charge q = a - b.  Index j of block q
is the power of r = |z|^2 past r^|q|, so its Gram block is the Hankel
moment matrix G_ij = (i+j+alpha)! (M-i-j-alpha-2)! of r^alpha (1+r)^(-M)
on [0, inf), alpha = |q|.  Its orthogonal polynomials are a finite
Romanovski-Jacobi family, (alpha+1)_j 2F1(-j, j+alpha-M+1; alpha+1; -r)
(Krattenthaler, *Advanced determinant calculus*), whose coefficients,
each row divided by its content, form an integer lower triangular W with
W G W^T = diag(p), p > 0.  Nothing is taken from the formula on trust.
The Gram depends only on alpha and M, and every block of one alpha is a
leading block of the largest one, so the rows of each alpha are certified
once, on that largest block: the lower triangle of U = W G is computed
exactly and the build is refused unless U is upper triangular and every
p_j = U_jj W_jj is positive, which is W G W^T = diag(p) > 0.  A lower
triangular congruence that diagonalizes G is unique up to row scales, so a
wrong row cannot pass.  With G = L D L^T, the congruence
D^(-1/2) L^-1 A L^-T D^(-1/2) is then X_ij / sqrt(p_i p_j) with
X = W A W^T, so each entry leaves exact arithmetic once, just before the
dense symmetric eigensolve.

The (0,1)-forms get their own family, with the same Gram closed form and M,

    psi_(a,b) = z^a zbar^b (1+|z|^2)^(-(N+1)) dzbar,  0 <= a <= N+k+1,  0 <= b <= N-1,

and form block q+1 (alpha = |q+1|) is paired with section block q.
dbar chi_(a,b) = b psi_(a,b-1) + (b-N) psi_(a+1,b) and dbar* psi_(a,b) =
-a chi_(a-1,b) + (N+k+1-a) chi_(a,b+1) stay inside the two families, and
for k >= 0 the forms span exactly dbar of the sections (dimension
N(N+k+2), the section count minus k+1), and both families share M.  With
D and T the integer incidences of dbar and dbar*, the stiffness is
D G1 D^T in degree 0 and T G0 T^T in degree 1.  Its congruence is not
formed as a product.  Each row u_i = W0_i D is expanded in the form
block's certified rows, den_i u_i = sum_m c_im W1_m exactly (W1 is
triangular with a nonzero diagonal), so X_ij = sum_m c_im c_jm p1_m /
(den_i den_j): the same rational as the product, so the same rounded bits.
In each of the 780 models build_model admits (every k with N <= 40) each
u_i has one or two c_im: the stiffness is tridiagonal in W coordinates.
So a block costs O(s^2) instead of O(s^3), and exactness never rests on
the sparsity: build_model(0, 40) takes 0.23-0.25 s instead of 0.58-0.72 s
on one 2-CPU host.  Degree 1 expands W1 T in W0 on its own, and each
degree is solved on its own and keeps its eigenvectors.
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
past 2m - 3; no neutral term can (`_check_integrable`).  The kappa are the
exact sums of the image's monomials, so a cancelled top term is left out,
and the check raises what the term-by-term reference of the test oracles
(`tests/oracles.py`) raises on the same pair.
X = W P W^T is then formed exactly over the whole block and each entry is
rounded once.  Blocks are built on demand and cached per (degree, operator,
block).  `limit_supertrace` and `harmonic_supertrace` read the same signed
diagonals <op e, e>, the latter at the kernel vectors only, so it builds
only the blocks that hold one; `heat_supertrace` reads the sorted spectra.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import comb, factorial
from numbers import Rational
from operator import mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .weyl import WeylElement, format_element

CONVENTION_TAG = "fs-unit-volume:v1"

#: largest truncation `build_model` accepts, checked before any work; a cost
#: bound on one 2-CPU host: N = 40 takes about 0.25 s for k = 0 or 1 and 0.75 s
#: for k = 38, the largest k it admits (as a whole command, `spectrum` about 1 s
#: and `harmonic` 1.2-2.1 s), and one z d/dz `limit_supertrace` 0.38-0.49 s for
#: k = 0 and 1.1-1.3 s for k = 38, most of it the two exact O(s^3) products
MAX_TRUNC = 40

#: weighted chart function: (z exponent, zbar exponent, denominator power)
#: -> rational coefficient (int or Fraction), denoting
#: sum c * z^a zbar^b (1+|z|^2)^(-g)
WeightedFn = Dict[Tuple[int, int, int], Rational]

IntMat = List[List[int]]


class OperatorEscapeError(ValueError):
    """An operator leaves the square-integrable truncation."""


class IllConditionedGramError(RuntimeError):
    """A failed exact certificate, or an eigenvalue below its measured error."""


# ---------------------------------------------------------------------------
# exact linear algebra on integer blocks
# ---------------------------------------------------------------------------


def _reduced(mat: IntMat, scale: Fraction) -> Tuple[IntMat, Fraction]:
    """scale * mat as an integer matrix divided by the gcd of its entries, and the new scale."""
    g = math.gcd(*chain.from_iterable(mat))
    if g < 2:
        return mat, scale * g
    return [[v // g for v in row] for row in mat], scale * g


def _orthogonal_rows(size: int, alpha: int, m: int) -> IntMat:
    """Rows 0..size-1 of W for the Hankel Gram (i+j+alpha)! (m-i-j-alpha-2)!.

    Row j holds the coefficients of r^0..r^j in (alpha+1)_j 2F1(-j,
    j+alpha-m+1; alpha+1; -r), C(j,c) (j+alpha-m+1)_c (alpha+c+1)_(j-c),
    divided by their content and signed so that the leading one is positive.
    Each coefficient follows from the previous one by the term ratio.
    Needs 2 (size-1) + alpha <= m - 2; `_certify` certifies the result.
    """
    rows = []
    for j in range(size):
        term = math.prod(range(alpha + 1, alpha + j + 1))
        row = [term]
        for c in range(j):
            term = term * (j - c) * (j + alpha - m + 1 + c) // ((c + 1) * (alpha + c + 1))
            row.append(term)
        g = math.gcd(*row)
        rows.append([v // g if term > 0 else -v // g for v in row])
    return rows


def _scaled_root(x: int, num: int, den: int) -> float:
    """x * sqrt(num / den) for integers num, den > 0, as a float within one ulp.

    The radicand x^2 num / den leaves exact arithmetic as one correctly
    rounded int/int quotient, so no intermediate overflows.
    """
    root = math.sqrt(x * x * num / den)
    return -root if x < 0 else root


def _round_congruence(w: IntMat, mat: IntMat, norms: Sequence[int], scale: Fraction) -> np.ndarray:
    """float(scale * S L^-1 A L^-T S) with S = D^(-1/2), for an integer matrix A.

    W is lower triangular (row j has j+1 entries) with W G W^T = diag(norms).
    X = W A W^T is formed exactly, as a block of Python integers, and each
    entry scale * X_ij / sqrt(p_i p_j), p_i = norms[i], leaves exact
    arithmetic once: its radicand X_ij^2 scale^2 / (p_i p_j) is one correctly
    rounded int/int quotient, so a positive row scaling of W leaves it the
    same float and no intermediate overflows.
    """
    s = len(w)
    rows = [np.array(row, dtype=object) for row in w]
    a = np.array(mat, dtype=object)
    v, x = np.empty((s, s), dtype=object), np.empty((s, s), dtype=object)
    for i, row in enumerate(rows):  # V = W A, then X = V W^T, each over W's lower triangle
        v[i] = row.dot(a[:i + 1])
    for j, row in enumerate(rows):
        x[:, j] = v[:, :j + 1].dot(row)
    p = np.array(norms, dtype=object)
    radicand = x * x * scale.numerator ** 2 / np.outer(p * scale.denominator ** 2, p)
    root = np.sqrt(radicand.astype(float))
    return np.where(x < 0, -root, root)


def _certify(gram: IntMat, w: IntMat) -> List[int]:
    """The norms of W G W^T = diag(norms) > 0, certified exactly.

    The lower triangle of U = W G is computed exactly (G is symmetric).
    W G W^T = U W^T is then diag(norms) > 0 exactly when U is upper
    triangular and every norm_j = U_jj W_jj is positive; otherwise this
    raises IllConditionedGramError.
    """
    norms = []
    for i, wi in enumerate(w):
        u = [sum(map(mul, wi, gram[j])) for j in range(i + 1)]
        norm = u[i] * wi[i]
        if any(u[:i]) or norm <= 0:
            raise IllConditionedGramError(
                f"row {i} of W does not diagonalize the Gram block to a positive norm")
        norms.append(norm)
    return norms


def _expand(u: List[int], w: IntMat) -> Tuple[int, Dict[int, int]]:
    """(den, c) with den > 0 and den * u = sum of c[m] * w[m] exactly.

    w is lower triangular (row m has m+1 entries) with a nonzero diagonal
    and u has len(w) entries, so the rows are peeled off from the last
    column down and nothing is left over; den grows only when a diagonal
    entry does not divide what is left in its column.
    """
    rest, den, c = list(u), 1, {}
    for m in range(len(w) - 1, -1, -1):
        if not rest[m]:
            continue
        wm = w[m]
        f = abs(wm[m]) // math.gcd(rest[m], wm[m])
        if f != 1:
            den *= f
            rest = [v * f for v in rest[:m + 1]]
            c = {key: v * f for key, v in c.items()}
        c[m] = t = rest[m] // wm[m]
        for j in range(m + 1):
            rest[j] -= t * wm[j]
    return den, c


def _stiffness(w: IntMat, norms: Sequence[int], incidence: List[Dict[int, int]],
               w_other: IntMat, norms_other: Sequence[int]) -> np.ndarray:
    """The rounded congruence of the stiffness R G' R^T in one block's own W coordinates.

    R is the integer incidence of the block's operator (dbar or dbar*) into
    the other degree, whose block has the certified rows w_other with
    W' G' W'^T = diag(norms_other).  Each row u_i = W_i R is expanded as
    den_i u_i = sum_m c_im W'_m (`_expand`), so X = W R G' R^T W^T is
    X_ij = sum_m c_im c_jm p'_m / (den_i den_j) and the entry
    X_ij / sqrt(p_i p_j) is rounded once.  Each u_i has at most two
    nonzero c_im in every model measured, so the block costs O(s^2); a
    denser expansion would be as exact, only slower.
    """
    width = len(w_other)
    by_row: Dict[int, List[Tuple[int, int]]] = {}  # m -> (i, c_im) in increasing i
    dens = []
    for i, wi in enumerate(w):
        u = [0] * width
        for wr, row in zip(wi, incidence):
            for col, coeff in row.items():
                u[col] += wr * coeff
        den, c = _expand(u, w_other)
        dens.append(den)
        for m, cm in c.items():
            by_row.setdefault(m, []).append((i, cm))
    x: Dict[Tuple[int, int], int] = {}  # the lower triangle of den_i den_j X_ij
    for m, col in by_row.items():
        for a, (i, ci) in enumerate(col):
            for j, cj in col[:a + 1]:
                x[i, j] = x.get((i, j), 0) + ci * cj * norms_other[m]
    out = np.zeros((len(w), len(w)))
    for (i, j), v in x.items():
        out[i, j] = out[j, i] = _scaled_root(v, 1, (dens[i] * dens[j]) ** 2 * norms[i] * norms[j])
    return out


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------


@dataclass
class _Block:
    pairs: List[Tuple[int, int]]
    w: IntMat             # closed-form rows (row j has j+1 entries): a prefix of its alpha's rows
    norms: List[int]      # W G W^T = diag(norms); with G = L D L^T, W = diag(sqrt(norms / D)) L^-1
    scale: Fraction       # the Gram block is scale * G: 1/(M-1)! times the gcd of the certified norms
    lam: np.ndarray       # ascending eigenvalues of the block's Laplacian
    vecs: np.ndarray      # orthonormal eigenvectors (columns), reduced coords


@dataclass
class SpectralModel:
    k: int
    trunc: int
    blocks: List[_Block]               # degree 0, the sections chi, one block per charge
    forms: List[_Block]                # degree 1, the forms psi; forms[i] pairs with blocks[i]
    harmonic0: List[Tuple[int, int]]   # (block index, eigen column)
    harmonic1: List[Tuple[int, int]]   # (form block index, eigen column)
    basis_meta: Dict[str, object]
    # each degree's eigenvalues, sorted, its kernel exactly 0: the one spectrum every view reads
    _flat0: np.ndarray = field(repr=False)
    _flat1: np.ndarray = field(repr=False)
    _op_cache: Dict[Tuple[int, WeylElement, int], np.ndarray] = field(  # (degree, op, block index)
        repr=False, default_factory=dict
    )


def _dbar_chi(a: int, b: int, n_trunc: int) -> WeightedFn:
    """Coefficient of dzbar in dbar applied to chi_(a,b)."""
    out: WeightedFn = {}
    if b:
        out[(a, b - 1, n_trunc + 1)] = b
    if b != n_trunc:
        out[(a + 1, b, n_trunc + 1)] = b - n_trunc
    return out


def _dbar_star(a: int, b: int, n_trunc: int, k: int) -> WeightedFn:
    """dbar* of psi_(a,b) = z^a zbar^b (1+|z|^2)^(-N-1) dzbar, over the sections chi.

    The adjoint of dbar is g dzbar -> -(1+|z|^2)^(k+2) d/dz ((1+|z|^2)^(-k) g).
    """
    out: WeightedFn = {}
    if a:
        out[(a - 1, b, n_trunc)] = -a
    if a != n_trunc + k + 1:
        out[(a, b + 1, n_trunc)] = n_trunc + k + 1 - a
    return out


def _incidence(images: List[WeightedFn], pairs: List[Tuple[int, int]],
               power: int) -> List[Dict[int, int]]:
    """Each image as {column: coefficient} over z^a zbar^b (1+|z|^2)^(-power), (a, b) in pairs."""
    index = {(a, b, power): j for j, (a, b) in enumerate(pairs)}
    escaped = [key for img in images for key in img if key not in index]
    if escaped:
        raise OperatorEscapeError(f"image term (a, b, power) = {escaped[0]} leaves the basis")
    return [{index[key]: c for key, c in img.items()} for img in images]


def _charge_pairs(q: int, a_max: int, b_max: int) -> List[Tuple[int, int]]:
    """The indices (a, b) with a - b = q, 0 <= a <= a_max and 0 <= b <= b_max."""
    return [(b + q, b) for b in range(max(0, -q), min(b_max, a_max - q) + 1)]


def _gram(size: int, alpha: int, fact: List[int]) -> IntMat:
    """(M-1)! times the Gram block of charge +-alpha: entries s! (M-s-2)!, s = i + j + alpha."""
    top = len(fact)
    return [[fact[s] * fact[top - s - 2] for s in range(i + alpha, i + alpha + size)]
            for i in range(size)]


def build_model(k: int, trunc: int) -> SpectralModel:
    """Assemble and diagonalize the truncated model for O(k) at truncation N.

    Every block's rounded stiffness is assembled first, degree 0 and then
    degree 1 of each charge; then one `np.linalg.eigh` call solves the
    stack of all blocks of each size.  `basis_meta["max_gram_condition"]`,
    recorded and never compared, is the float condition number of the
    largest section Gram block of each alpha, which bounds those of its
    leading blocks.

    Requires integers k >= 0 and k + 2 <= trunc <= MAX_TRUNC.  Raises
    IllConditionedGramError if the closed-form rows of an alpha fail their
    exact certificate (`_certify`), or if a block's lowest eigenvalue is
    below minus its measured error: the exact congruence X is positive
    semidefinite, its one rounding (1 ulp an entry) moves an eigenvalue by
    at most s 2^-52 ||X||_2 (Weyl), and some eigenvalue of the rounded block
    lies within the residual of the computed one (Parlett, *The Symmetric
    Eigenvalue Problem*, ch. 4).
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
    unit = Fraction(1, fact[-1])
    layout = [(q, _charge_pairs(q, n + k, n), _charge_pairs(q + 1, n + k + 1, n - 1))
              for q in range(-n, n + k + 1)]
    sizes: Dict[int, int] = {}  # alpha -> the largest block that uses it
    for q, pairs, fpairs in layout:
        for alpha, size in ((abs(q), len(pairs)), (abs(q + 1), len(fpairs))):
            sizes[alpha] = max(sizes.get(alpha, 0), size)
    grams = {alpha: _gram(size, alpha, fact) for alpha, size in sizes.items()}
    # recorded only, never compared: the certificate below decides which rows are usable;
    # section block q >= 0 is the largest of alpha = q and holds block -q as a leading block
    max_cond = max(float(np.linalg.cond([[v / fact[-1] for v in row[:len(pairs)]]
                                         for row in grams[q][:len(pairs)]]))
                   for q, pairs, _ in layout if q >= 0)
    # every block of one alpha, in either degree, uses a prefix of the same rows and Gram
    rows = {alpha: _orthogonal_rows(size, alpha, len(fact)) for alpha, size in sizes.items()}
    norms = {alpha: _certify(grams[alpha], w) for alpha, w in rows.items()}
    assembled = []  # (degree, charge, pairs, w, norms, rounded stiffness) of every block
    for q, pairs, fpairs in layout:
        w0, p0 = rows[abs(q)][:len(pairs)], norms[abs(q)][:len(pairs)]
        w1, p1 = rows[abs(q + 1)][:len(fpairs)], norms[abs(q + 1)][:len(fpairs)]
        dbar = _incidence([_dbar_chi(a, b, n) for a, b in pairs], fpairs, n + 1)
        dbar_star = _incidence([_dbar_star(a, b, n, k) for a, b in fpairs], pairs, n)
        assembled.append((0, q, pairs, w0, p0, _stiffness(w0, p0, dbar, w1, p1)))  # D G1 D^T
        assembled.append((1, q + 1, fpairs, w1, p1,
                          _stiffness(w1, p1, dbar_star, w0, p0)))  # T G0 T^T
    # one eigensolve per block size: eigh solves a stack matrix by matrix, so each block
    # gets the bits it gets alone; each X is exactly symmetric, and so is its rounding
    solved: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for size in {len(entry[-1]) for entry in assembled}:
        members = [i for i, entry in enumerate(assembled) if len(entry[-1]) == size]
        lams, vecs = np.linalg.eigh(np.stack([assembled[i][-1] for i in members]))
        solved.update(zip(members, zip(lams, vecs)))
    blocks: List[_Block] = []
    forms: List[_Block] = []
    for i, (degree, charge, idx, w, p, x) in enumerate(assembled):
        lam, vecs = solved[i]
        if lam[0] < 0:  # the rounding bound plus the residual of the lowest eigenpair
            error = len(lam) * 2.0 ** -52 * max(-lam[0], lam[-1]) + float(
                np.linalg.norm(x @ vecs[:, 0] - lam[0] * vecs[:, 0]))
            if lam[0] < -error:
                raise IllConditionedGramError(
                    f"negative eigenvalue {lam[0]:.3e} below its measured error {error:.1e} "
                    f"in the degree-{degree} block at charge {charge}")
        g = math.gcd(*p)  # keeps the radicands of the operator congruences small
        (blocks, forms)[degree].append(_Block(idx, w, [v // g for v in p], unit * g, lam, vecs))

    # the one rule for zero: every view of the spectrum, the cache summary too, reads these zeros
    threshold = 1e-8 * max(max(float(b.lam.max()) for b in blocks + forms), 1e-300)
    harmonic, flat = [], []
    for degree_blocks in (blocks, forms):
        for b in degree_blocks:
            # the kernel is exactly 0: its rounding (about 1e-14) would tilt heat traces at large t
            b.lam[b.lam < threshold] = 0.0
        harmonic.append([(bi, col) for bi, b in enumerate(degree_blocks)
                         for col in range(len(b.lam)) if b.lam[col] == 0.0])
        flat.append(np.sort(np.concatenate([b.lam for b in degree_blocks])))
    return SpectralModel(k=k, trunc=trunc, blocks=blocks, forms=forms, harmonic0=harmonic[0],
                         harmonic1=harmonic[1], basis_meta={"max_gram_condition": max_cond},
                         _flat0=flat[0], _flat1=flat[1])


# ---------------------------------------------------------------------------
# operators and supertraces
# ---------------------------------------------------------------------------


def _image_coefficients(op: WeylElement, den: int, power: int,
                        dmax: int) -> List[Tuple[Tuple[int, int], int, int]]:
    """den * op on z^a zbar^b (1+|z|^2)^(-power), lifted to the power power + dmax, in closed form.

    With w = 1+|z|^2, a term c z^e d^f of op (d = d/dz) gives, by Leibniz,
    c sum_l C(f,l) (a)_(f-l) (-1)^l (power)^(l) z^(a+e-f+l) zbar^(b+l) w^-(power+l),
    falling (a)_r and rising (power)^(l); lifting w^-(power+l) to
    w^-(power+dmax) multiplies it by sum_u C(dmax-l, u) (z zbar)^u.  So the
    lifted image is the sum over sigma = e - f and tau = l + u <= dmax of
    kappa[sigma, tau](a) z^(a+sigma+tau) zbar^(b+tau), and kappa[sigma, tau](a)
    is a sum of terms K (a)_r that does not depend on b.  Returns the
    ((sigma, tau), r, K) of every term, K an integer once den clears the
    coefficient denominators of op.
    """
    out = []
    for ((e,), (f,)), c in op.terms:
        signed = int(c * den)  # c den (-1)^l (power)^(l) at step l
        for l in range(f + 1):
            for u in range(dmax - l + 1):
                out.append(((e - f, l + u), f - l, signed * comb(f, l) * comb(dmax - l, u)))
            signed *= -(power + l)
    return out


def _check_integrable(kappa: Dict[Tuple[int, int], List[int]], s: int, alpha: int, m: int) -> None:
    """Raise where an image of one block of size s escapes against a basis function.

    Image j is the sum of kappa[sigma, tau][j] z^(a_j+sigma+tau) zbar^(b_j+tau);
    paired with f_i = z^a_i zbar^b_i under the total weight (1+|z|^2)^(-m),
    each term has the radial degree sigma + 2 tau + a_i + b_i + a_j + b_j =
    sigma + 2 (tau + i + j + alpha).  A pair escapes when its top degree over
    the nonzero charged (sigma != 0) terms exceeds 2m - 3.  A neutral term
    never diverges: every block `build_model` admits has alpha + 2 (s-1) <=
    M - 2 (`tests/test_spectral.py` checks all 780 models), and tau <= dmax
    with m = M + dmax, so its degree is at most 2 (m - 2) = 2m - 4.  The kappa
    are exactly the summed coefficients of the lifted images, so a cancelled
    top term is left out.  The largest i is the worst, so a passing block
    costs one pass over kappa; otherwise the pairs are searched in row-major
    order, as the generic pairing kernel of `tests/oracles.py` would check them.
    """
    tops = [-math.inf] * s
    for (sigma, tau), vals in kappa.items():
        if sigma:
            for j, v in enumerate(vals):
                if v and sigma + 2 * tau > tops[j]:
                    tops[j] = sigma + 2 * tau
    limit = 2 * m - 3 - 2 * alpha
    if max((e + 2 * j for j, e in enumerate(tops)), default=-math.inf) + 2 * (s - 1) <= limit:
        return
    for i in range(s):
        for j, e in enumerate(tops):
            if e + 2 * (i + j) > limit:
                raise OperatorEscapeError(
                    f"image {j} paired with basis function {i} leaves the square-integrable "
                    f"truncation (radial degree {e + 2 * (i + j + alpha)}, weight {m})")


def _operator_pairings(model: SpectralModel, op: WeylElement, degree: int,
                       which: Iterable[int]) -> Iterator[Tuple[IntMat, Fraction]]:
    """Each listed block's exact pairing <op f_j, f_i> as a reduced integer matrix and a scale.

    f runs over the basis of one degree's block: z^a zbar^b (1+|z|^2)^(-power)
    with (power, weight) (N, k+2) for the sections chi (degree 0) and
    (N+1, k) for the coefficients of the forms psi (degree 1).  Each image
    den * op f_j, lifted to the largest power top it can reach, is
    sum kappa[sigma, tau][j] z^(a_j+sigma+tau) zbar^(b_j+tau)
    (`_image_coefficients`), and only its sigma = 0 terms pair with the
    block's charge.  Since a_j + b_i = alpha + i + j, the pairing times
    (m-1)! is P = sum_tau H_tau diag(kappa[0, tau]), H_tau the Hankel slice
    mom[alpha + tau + i + j] of mom[s] = s! (m-s-2)!, m = top + weight.
    """
    n, k = model.trunc, model.k
    den = op.den
    power, extra = (n, k + 2) if degree == 0 else (n + 1, k)
    dmax = max((d for ((_,), (d,)), _ in op.terms), default=0)
    m = power + dmax + power + extra
    mom = [factorial(s) * factorial(m - s - 2) for s in range(m - 1)]
    unit = Fraction(1, den * factorial(m - 1))
    image = _image_coefficients(op, den, power, dmax)
    blocks = (model.blocks, model.forms)[degree]
    for bi in which:
        pairs = blocks[bi].pairs
        s, alpha = len(pairs), abs(pairs[0][0] - pairs[0][1])
        kappa: Dict[Tuple[int, int], List[int]] = {}  # [sigma, tau][j]: kappa[sigma, tau](a_j)
        for key, r, c in image:
            vals = kappa.get(key, [0] * s)
            kappa[key] = [v + c * math.perm(a, r) for v, (a, _) in zip(vals, pairs)]
        _check_integrable(kappa, s, alpha, m)
        # the moments the block reads, divided by their gcd; alpha + 2 (s-1) <= M - 2 for
        # every block and m = M + dmax, so the window ends inside mom
        window = mom[alpha:alpha + 2 * s - 1 + dmax]
        g = math.gcd(*window)
        window = np.array([v // g for v in window], dtype=object)
        hankel = np.add.outer(np.arange(s), np.arange(s))
        mat = sum((window[hankel + tau] * np.array(vals, dtype=object)
                   for (sigma, tau), vals in kappa.items() if sigma == 0),
                  np.zeros((s, s), dtype=object))
        yield _reduced(mat.tolist(), unit * g)


def _operator_blocks(model: SpectralModel, op: WeylElement, degree: int,
                     which: Optional[Iterable[int]] = None) -> Dict[int, np.ndarray]:
    """Reduced-coordinate matrices of the operator pairing in one degree, by block index.

    Degree 0: entries <op chi_j, chi_i>; degree 1: entries <op psi_j, psi_i>,
    with op acting on the dzbar coefficient.  Only the blocks in `which`
    (default: all of that degree) are returned; each is built once per
    (degree, op, block) and cached on the model.  The pairing is an exact
    integer matrix (`_operator_pairings`) before the congruence by the
    block's own rows and norms, which rounds each entry once.
    """
    if op.n != 1:
        raise OperatorEscapeError("operators on the model must be one-variable elements")
    max_coeff_deg = max((z[0] for (z, _), _ in op.terms), default=0)
    if max_coeff_deg > model.trunc:
        raise OperatorEscapeError(
            f"operator coefficient degree {max_coeff_deg} exceeds truncation {model.trunc} "
            f"for {format_element(op)!r}"
        )
    blocks = (model.blocks, model.forms)[degree]
    which = list(range(len(blocks)) if which is None else which)
    todo = [bi for bi in which if (degree, op, bi) not in model._op_cache]
    for bi, (mat, scale) in zip(todo, _operator_pairings(model, op, degree, todo)):
        block = blocks[bi]
        model._op_cache[(degree, op, bi)] = _round_congruence(block.w, mat, block.norms,
                                                              scale / block.scale)
    return {bi: model._op_cache[(degree, op, bi)] for bi in which}


def heat_supertrace(model: SpectralModel, t: float) -> float:
    """Trace of the heat operator on sections minus trace on (0,1)-forms."""
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"heat time must be positive and finite, got {t}")
    s0 = float(np.exp(-t * model._flat0).sum())
    s1 = float(np.exp(-t * model._flat1).sum())
    return s0 - s1


def _supertrace_terms(model: SpectralModel, op: WeylElement,
                      columns: Sequence[Dict[int, object]]) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and signed diagonals +-<op e, e> (+ in degree 0, - in degree 1) of the
    eigen-columns `columns[degree][block index]` (a list, or `slice(None)` for all); only
    those blocks are built.  Each diagonal is a row-wise dot of Y with A Y."""
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
    time.  As t grows it converges to `harmonic_supertrace`.
    """
    grid = [float(t) for t in t_grid]
    if not grid:
        raise ValueError("t_grid must be non-empty")
    for t in grid:
        if not (t > 0 and math.isfinite(t)):
            raise ValueError(f"t_grid times must be positive and finite, got {t}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    lam, diag = _supertrace_terms(model, op, [dict.fromkeys(range(len(blocks)), slice(None))
                                              for blocks in (model.blocks, model.forms)])
    series = [float(np.exp(-t * lam) @ diag) for t in grid]
    return series, series[-1]


# ---------------------------------------------------------------------------
# spectrum cache
# ---------------------------------------------------------------------------


#: the keys of `spectrum_summary`, which a cache file must hold, and the type of each value
_SUMMARY_TYPES = {"k": int, "trunc": int, "tag": str, "version": str, "eigs0": list,
                  "eigs1": list, "dim_harmonic0": int, "dim_harmonic1": int}


def spectrum_summary(model: SpectralModel) -> Dict[str, object]:
    """The kernel dimensions and each degree's sorted nonzero eigenvalues, for the cache."""
    return {
        "k": model.k,
        "trunc": model.trunc,
        "tag": CONVENTION_TAG,
        "version": __version__,
        "eigs0": model._flat0[model._flat0 > 0].tolist(),
        "eigs1": model._flat1[model._flat1 > 0].tolist(),
        "dim_harmonic0": len(model.harmonic0),
        "dim_harmonic1": len(model.harmonic1),
    }


def cache_path(cache_dir: str, k: int, trunc: int) -> str:
    """The cache file for (k, trunc), keyed by the convention tag and the package version."""
    tag = CONVENTION_TAG.replace(":", "-")
    return os.path.join(cache_dir, f"spectrum_k{k}_N{trunc}_{tag}_v{__version__}.json")


def load_spectrum(cache_dir: str, k: int, trunc: int):
    """The cached summary for (k, trunc), or None on a miss.

    A file that cannot be read, that is not a JSON object holding every
    summary field with the type `spectrum_summary` gives it (a bool or a
    float such as 2.0 is not an int, and each eigenvalue is a finite
    positive float), or that another package version wrote, is a miss too,
    so the caller rebuilds the model and overwrites the file.
    """
    try:
        with open(cache_path(cache_dir, k, trunc), "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError):  # unreadable, not JSON or UTF-8, too deep
        return None
    valid = (isinstance(data, dict) and data.keys() >= _SUMMARY_TYPES.keys()
             and all(type(data[f]) is t for f, t in _SUMMARY_TYPES.items())
             and (data["tag"], data["version"], data["k"], data["trunc"]) == (CONVENTION_TAG,
                                                                              __version__, k, trunc)
             and all(type(v) is float and 0 < v < math.inf for v in data["eigs0"] + data["eigs1"]))
    return data if valid else None


def store_spectrum(cache_dir: str, model: SpectralModel) -> str:
    """Write the summary atomically: a temporary file in the same directory, then a rename.

    Raises OSError when the directory cannot be made or written; the
    temporary file is removed.
    """
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, model.k, model.trunc)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".spectrum-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(spectrum_summary(model), fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path
