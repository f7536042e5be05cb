"""Truncated spectral model for the d-bar Laplacians of O(k) on the sphere.

Geometry conventions (the ``basis_meta`` tag ``fs-unit-volume:v1``):

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

and is computed as an exact rational.  The Gram and stiffness matrices
are block diagonal over the charge q = a - b; each block is reduced by an
exact rational LDL^T factorization, so floating point enters only in the
final dense symmetric eigensolve.  The degree-1 Laplacian is modelled on
the image of d-bar: its matrices are assembled on an exactly computed
pivot basis of the image and solved separately, which makes the
supersymmetric pairing of nonzero spectra a genuine cross-check of two
eigensolves rather than a definition.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .weyl import WeylElement, format_element

CONVENTION_TAG = "fs-unit-volume:v1"

#: weighted chart function: (z exponent, zbar exponent, denominator power)
#: -> rational coefficient, denoting sum c * z^a zbar^b (1+|z|^2)^(-g)
WeightedFn = Dict[Tuple[int, int, int], Fraction]


class DivergentIntegralError(ArithmeticError):
    """A requested closed-form integral does not converge."""


class OperatorEscapeError(ValueError):
    """An operator leaves the square-integrable truncation."""


class IllConditionedGramError(RuntimeError):
    """The basis Gram matrix is numerically unusable."""


def mono_integral(s: int, m: int) -> Fraction:
    """integral z^s zbar^s (1+|z|^2)^(-m) (1/pi) dx dy, exact."""
    if m < s + 2:
        raise DivergentIntegralError(f"integral of |z|^{2 * s} against (1+|z|^2)^(-{m}) diverges")
    return Fraction(factorial(s) * factorial(m - s - 2), factorial(m - 1))


def pair_weighted(f: WeightedFn, g: WeightedFn, extra: int) -> Fraction:
    """Hermitian pairing <f, g> with an additional weight (1+|z|^2)^(-extra).

    The product is brought to a common denominator before integrating so
    that divergent pieces that cancel algebraically are recognized; any
    surviving non-integrable term raises.
    """
    prod: Dict[Tuple[int, int, int], Fraction] = {}
    for (a1, b1, g1), c1 in f.items():
        for (a2, b2, g2), c2 in g.items():
            key = (a1 + b2, b1 + a2, g1 + g2)
            c = c1 * c2
            tot = prod.get(key, Fraction(0)) + c
            if tot:
                prod[key] = tot
            elif key in prod:
                del prod[key]
    if not prod:
        return Fraction(0)
    gmax = max(gk for (_, _, gk) in prod)
    flat: Dict[Tuple[int, int], Fraction] = {}
    for (zp, bp, gk), c in prod.items():
        lift = gmax - gk
        for j in range(lift + 1):
            key = (zp + j, bp + j)
            tot = flat.get(key, Fraction(0)) + c * comb(lift, j)
            if tot:
                flat[key] = tot
            elif key in flat:
                del flat[key]
    m = gmax + extra
    # angular components with nonzero net charge integrate to zero, but the
    # leading radial power must still be absolutely integrable
    by_charge: Dict[int, int] = {}
    for (zp, bp) in flat:
        nu = zp - bp
        by_charge[nu] = max(by_charge.get(nu, -1), zp + bp)
    for nu, top in by_charge.items():
        if nu != 0 and top > 2 * m - 3:
            raise OperatorEscapeError(
                "pairing leaves the square-integrable truncation "
                f"(angular charge {nu}, radial degree {top}, weight {m})"
            )
    total = Fraction(0)
    for (zp, bp), c in flat.items():
        if zp != bp:
            continue
        total += c * mono_integral(zp, m)
    return total


# ---------------------------------------------------------------------------
# exact rational linear algebra on small blocks
# ---------------------------------------------------------------------------

Mat = List[List[Fraction]]


def _ldl(g: Mat) -> Tuple[Mat, List[Fraction]]:
    """G = L D L^T for symmetric positive definite G, all exact."""
    s = len(g)
    lower: Mat = [[Fraction(0)] * s for _ in range(s)]
    diag: List[Fraction] = [Fraction(0)] * s
    for j in range(s):
        dj = g[j][j] - sum(lower[j][r] * lower[j][r] * diag[r] for r in range(j))
        if dj <= 0:
            raise IllConditionedGramError("Gram block is not numerically positive definite")
        diag[j] = dj
        lower[j][j] = Fraction(1)
        for i in range(j + 1, s):
            v = g[i][j] - sum(lower[i][r] * lower[j][r] * diag[r] for r in range(j))
            lower[i][j] = v / dj
    return lower, diag


def _forward_solve(lower: Mat, b: Mat) -> Mat:
    """Solve L X = B with unit lower triangular L (exact)."""
    s = len(lower)
    cols = len(b[0]) if b else 0
    x: Mat = [[Fraction(0)] * cols for _ in range(s)]
    for i in range(s):
        for c in range(cols):
            x[i][c] = b[i][c] - sum(lower[i][r] * x[r][c] for r in range(i))
    return x


def _transpose(m: Mat) -> Mat:
    return [list(row) for row in zip(*m)] if m else []


def _congruence(lower: Mat, diag: Sequence[Fraction], m: Mat) -> np.ndarray:
    """Return float(S L^-1 M L^-T S) with S = diag(d)^(-1/2), inner part exact."""
    x = _forward_solve(lower, m)
    zt = _forward_solve(lower, _transpose(x))
    z = _transpose(zt)
    s = len(diag)
    scale = np.array([1.0 / math.sqrt(float(d)) for d in diag])
    out = np.array([[float(z[i][j]) for j in range(s)] for i in range(s)])
    return scale[:, None] * out * scale[None, :]


def _mat_mul(a: Mat, b: Mat) -> Mat:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out: Mat = [[Fraction(0)] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        for r in range(inner):
            v = ai[r]
            if not v:
                continue
            br = b[r]
            oi = out[i]
            for j in range(cols):
                if br[j]:
                    oi[j] += v * br[j]
    return out


def _solve_spd(lower: Mat, diag: Sequence[Fraction], b: Mat) -> Mat:
    """Solve (L D L^T) X = B exactly."""
    y = _forward_solve(lower, b)
    s = len(diag)
    cols = len(b[0]) if b else 0
    for i in range(s):
        for c in range(cols):
            y[i][c] /= diag[i]
    # back substitution with L^T
    x: Mat = [[Fraction(0)] * cols for _ in range(s)]
    for i in reversed(range(s)):
        for c in range(cols):
            x[i][c] = y[i][c] - sum(lower[r][i] * x[r][c] for r in range(i + 1, s))
    return x


def _pivot_columns(columns: List[Dict[Tuple[int, int], Fraction]]) -> List[int]:
    """Indices of a maximal independent subset, by exact elimination."""
    pivots: List[int] = []
    reduced: List[Tuple[Tuple[int, int], Dict[Tuple[int, int], Fraction]]] = []
    for j, col in enumerate(columns):
        cur = dict(col)
        for lead, vec in reduced:
            if lead in cur:
                f = cur[lead]
                for key, val in vec.items():
                    tot = cur.get(key, Fraction(0)) - f * val
                    if tot:
                        cur[key] = tot
                    elif key in cur:
                        del cur[key]
        if cur:
            lead = min(cur)
            f = cur[lead]
            vec = {k: v / f for k, v in cur.items()}
            reduced.append((lead, vec))
            pivots.append(j)
    return pivots


# ---------------------------------------------------------------------------
# model assembly
# ---------------------------------------------------------------------------


@dataclass
class _Block:
    charge: int
    pairs: List[Tuple[int, int]]
    lower: Mat
    diag: List[Fraction]
    lam: np.ndarray       # ascending eigenvalues of the degree-0 block
    vecs: np.ndarray      # orthonormal eigenvectors (columns), reduced coords
    cond: float


@dataclass
class SpectralModel:
    k: int
    trunc: int
    blocks: List[_Block]
    eigs0: List[Tuple[float, int]]
    eigs1: List[Tuple[float, int]]
    harmonic0: List[Tuple[int, int]]   # (block index, eigen column)
    harmonic1: List[Tuple[int, int]]
    kernel_threshold: float
    basis_meta: Dict[str, object]
    _flat0: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _flat1: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    _op_cache: Dict[Tuple[str, WeylElement], List[np.ndarray]] = field(
        repr=False, default_factory=dict
    )

    def harmonic0_coordinates(self) -> List[Dict[Tuple[int, int], float]]:
        """Numerical kernel vectors as coordinates over the (a, b) basis."""
        out = []
        for bi, col in self.harmonic0:
            block = self.blocks[bi]
            y = block.vecs[:, col] / np.array([math.sqrt(float(d)) for d in block.diag])
            s = len(block.pairs)
            x = np.zeros(s)
            lower_f = np.array([[float(block.lower[i][j]) for j in range(s)] for i in range(s)])
            # solve L^T x = y
            for i in reversed(range(s)):
                x[i] = y[i] - lower_f[i + 1:, i] @ x[i + 1:]
            out.append({pair: x[i] for i, pair in enumerate(block.pairs)})
        return out


def _chi(a: int, b: int, n_trunc: int) -> WeightedFn:
    return {(a, b, n_trunc): Fraction(1)}


def _dbar_chi(a: int, b: int, n_trunc: int) -> WeightedFn:
    """Coefficient of dzbar in dbar applied to chi_(a,b)."""
    out: WeightedFn = {}
    if b:
        out[(a, b - 1, n_trunc + 1)] = Fraction(b)
    if b != n_trunc:
        out[(a + 1, b, n_trunc + 1)] = Fraction(b - n_trunc)
    return out


def _cluster(values: np.ndarray, rel: float = 1e-8) -> List[Tuple[float, int]]:
    out: List[Tuple[float, int]] = []
    for v in np.sort(values):
        if out and abs(v - out[-1][0]) <= rel * max(1.0, abs(out[-1][0])):
            prev, mult = out[-1]
            out[-1] = ((prev * mult + v) / (mult + 1), mult + 1)
        else:
            out.append((float(v), 1))
    return out


def build_model(k: int, trunc: int, cond_limit: float = 1e16) -> SpectralModel:
    """Assemble and diagonalize the truncated model for O(k) at truncation N.

    Requires k >= 0 and trunc >= k + 2.  Raises IllConditionedGramError if
    the float condition estimate of a Gram block exceeds cond_limit.
    """
    if k < 0:
        raise ValueError(f"bundle degree k must be >= 0, got {k}")
    if trunc < k + 2:
        raise ValueError(f"trunc must be at least k + 2 = {k + 2}, got {trunc}")
    n = trunc
    blocks: List[_Block] = []
    eigs1_all: List[float] = []
    for q in range(-n, n + k + 1):
        b_lo = max(0, -q)
        b_hi = min(n, n + k - q)
        pairs = [(b + q, b) for b in range(b_lo, b_hi + 1)]
        if not pairs:
            continue
        s = len(pairs)
        gram: Mat = [
            [mono_integral(pairs[i][0] + pairs[j][1], 2 * n + k + 2) for j in range(s)]
            for i in range(s)
        ]
        images = [_dbar_chi(a, b, n) for (a, b) in pairs]
        stiff: Mat = [[pair_weighted(images[i], images[j], k) for j in range(s)] for i in range(s)]
        gram_f = np.array([[float(v) for v in row] for row in gram])
        cond = float(np.linalg.cond(gram_f))
        if cond > cond_limit:
            raise IllConditionedGramError(
                f"Gram block at charge {q} has condition estimate {cond:.3e} > {cond_limit:.1e}; "
                "reduce trunc or orthogonalize the basis"
            )
        lower, diag = _ldl(gram)
        c0 = _congruence(lower, diag, stiff)
        lam, vecs = np.linalg.eigh(0.5 * (c0 + c0.T))
        if lam.min() < -1e-10:
            raise IllConditionedGramError(
                f"negative eigenvalue {lam.min():.3e} beyond solver tolerance at charge {q}"
            )
        lam = np.where(lam < 0, 0.0, lam)
        blocks.append(_Block(q, pairs, lower, diag, lam, vecs, cond))

        # independent degree-1 solve on an exact pivot basis of the image
        cols = [{(a2, b2): c for (a2, b2, _), c in img.items()} for img in images]
        piv = _pivot_columns(cols)
        if piv:
            ginv_a = _solve_spd(lower, diag, stiff)
            ada = _mat_mul(stiff, ginv_a)  # A G^-1 A, exact
            g1: Mat = [[stiff[i][j] for j in piv] for i in piv]
            s1: Mat = [[ada[i][j] for j in piv] for i in piv]
            l1, d1 = _ldl(g1)
            c1 = _congruence(l1, d1, s1)
            lam1 = np.linalg.eigvalsh(0.5 * (c1 + c1.T))
            eigs1_all.extend(float(v) for v in lam1)

    flat0 = np.sort(np.concatenate([b.lam for b in blocks]))
    flat1 = np.sort(np.array(eigs1_all))
    lam_max = float(flat0.max()) if flat0.size else 1.0
    threshold = 1e-8 * max(lam_max, 1e-300)
    harmonic0 = [
        (bi, col)
        for bi, block in enumerate(blocks)
        for col in range(len(block.lam))
        if block.lam[col] < threshold
    ]
    model = SpectralModel(
        k=k,
        trunc=trunc,
        blocks=blocks,
        eigs0=_cluster(flat0),
        eigs1=_cluster(flat1),
        harmonic0=harmonic0,
        harmonic1=[],  # the degree-1 model lives on the image of dbar
        kernel_threshold=threshold,
        basis_meta={
            "tag": CONVENTION_TAG,
            "basis": "z^a zbar^b (1+|z|^2)^(-N), 0<=a<=N+k, 0<=b<=N",
            "max_gram_condition": max(b.cond for b in blocks),
        },
        _flat0=flat0,
        _flat1=flat1,
    )
    return model


# ---------------------------------------------------------------------------
# operators and supertraces
# ---------------------------------------------------------------------------


def _apply_weyl(op: WeylElement, f: WeightedFn) -> WeightedFn:
    """Act with a one-variable operator element on a weighted chart function.

    d/dz (z^a zbar^b (1+|z|^2)^(-g)) = a z^(a-1) zbar^b (1+|z|^2)^(-g)
                                       - g z^a zbar^(b+1) (1+|z|^2)^(-g-1).
    """
    if op.n != 1:
        raise OperatorEscapeError("operators on the model must be one-variable elements")
    out: WeightedFn = {}

    def accumulate(key, c):
        tot = out.get(key, Fraction(0)) + c
        if tot:
            out[key] = tot
        elif key in out:
            del out[key]

    for mono, coeff in op.terms:
        dpow = mono.d_exp[0]
        zpow = mono.z_exp[0]
        current = dict(f)
        for _ in range(dpow):
            nxt: WeightedFn = {}
            for (a, b, g), c in current.items():
                if a:
                    key = (a - 1, b, g)
                    tot = nxt.get(key, Fraction(0)) + c * a
                    if tot:
                        nxt[key] = tot
                    elif key in nxt:
                        del nxt[key]
                if g:
                    key = (a, b + 1, g + 1)
                    tot = nxt.get(key, Fraction(0)) - c * g
                    if tot:
                        nxt[key] = tot
                    elif key in nxt:
                        del nxt[key]
            current = nxt
        for (a, b, g), c in current.items():
            accumulate((a + zpow, b, g), c * coeff)
    return out


def _operator_blocks(model: SpectralModel, op: WeylElement, side: str) -> List[np.ndarray]:
    """Reduced-coordinate matrices of the operator pairing, one per block.

    side "sections": entries <D chi_j, chi_i>; side "forms": entries
    <D dbar chi_j, dbar chi_i>.  Both are exact before the congruence.
    """
    if op.n != 1:
        raise OperatorEscapeError("operators on the model must be one-variable elements")
    max_coeff_deg = max((m.z_exp[0] for m, _ in op.terms), default=0)
    if max_coeff_deg > model.trunc:
        raise OperatorEscapeError(
            f"operator coefficient degree {max_coeff_deg} exceeds truncation {model.trunc} "
            f"for {format_element(op)!r}"
        )
    key = (side, op)
    if key in model._op_cache:
        return model._op_cache[key]
    n = model.trunc
    k = model.k
    out: List[np.ndarray] = []
    for block in model.blocks:
        s = len(block.pairs)
        if side == "sections":
            funcs = [_chi(a, b, n) for (a, b) in block.pairs]
            extra = k + 2
        else:
            funcs = [_dbar_chi(a, b, n) for (a, b) in block.pairs]
            extra = k
        applied = [_apply_weyl(op, f) for f in funcs]
        mat: Mat = [[pair_weighted(applied[j], funcs[i], extra) for j in range(s)] for i in range(s)]
        out.append(_congruence(block.lower, block.diag, mat))
    model._op_cache[key] = out
    return out


def heat_supertrace(model: SpectralModel, t: float) -> float:
    """Trace of the heat operator on sections minus trace on (0,1)-forms."""
    if t <= 0:
        raise ValueError(f"heat time must be positive, got {t}")
    s0 = float(np.exp(-t * model._flat0).sum())
    s1 = float(np.exp(-t * model._flat1).sum())
    return s0 - s1


def harmonic_supertrace(model: SpectralModel, op: WeylElement) -> float:
    """Supertrace of the compression of op to the numerical harmonic spaces.

    Computed basis independently: trace = sum_ij (G_h^-1)_ij <op h_j, h_i>
    over the kernel vectors h of each degree.  The degree-1 model has no
    kernel by construction, so only degree 0 contributes.
    """
    mats = _operator_blocks(model, op, "sections")
    by_block: Dict[int, List[int]] = {}
    for bi, col in model.harmonic0:
        by_block.setdefault(bi, []).append(col)
    total = 0.0
    for bi, cols in by_block.items():
        y = model.blocks[bi].vecs[:, cols]
        gh = y.T @ y
        pair = y.T @ mats[bi] @ y
        total += float(np.trace(np.linalg.solve(gh, pair)))
    return total


def limit_supertrace(
    model: SpectralModel, op: WeylElement, t_grid: Sequence[float]
) -> Tuple[List[float], float]:
    """Supertrace of op e^(-t Laplacian) on a grid, and its terminal value.

    Degree 0 sums e^(-t lam_i) <op e_i, e_i> over the eigenbasis; degree 1
    uses the intertwined eigenbasis dbar e_i / sqrt(lam_i) of the image
    model.  As t grows the series converges to `harmonic_supertrace`.
    """
    grid = [float(t) for t in t_grid]
    if not grid:
        raise ValueError("t_grid must be non-empty")
    if any(t <= 0 for t in grid) or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("t_grid must be strictly increasing and positive")
    sec = _operator_blocks(model, op, "sections")
    frm = _operator_blocks(model, op, "forms")
    diag0: List[np.ndarray] = []
    lam0: List[np.ndarray] = []
    diag1: List[np.ndarray] = []
    lam1: List[np.ndarray] = []
    for bi, block in enumerate(model.blocks):
        y = block.vecs
        diag0.append(np.einsum("ij,ij->j", y, sec[bi] @ y))
        lam0.append(block.lam)
        keep = block.lam >= model.kernel_threshold
        if keep.any():
            yk = y[:, keep]
            diag1.append(np.einsum("ij,ij->j", yk, frm[bi] @ yk) / block.lam[keep])
            lam1.append(block.lam[keep])
    series = []
    for t in grid:
        tot = 0.0
        for lam, dg in zip(lam0, diag0):
            tot += float((np.exp(-t * lam) * dg).sum())
        for lam, dg in zip(lam1, diag1):
            tot -= float((np.exp(-t * lam) * dg).sum())
        series.append(tot)
    return series, series[-1]


# ---------------------------------------------------------------------------
# spectrum cache
# ---------------------------------------------------------------------------


#: the keys of `spectrum_summary`, which a cache file must hold
_SUMMARY_FIELDS = ("k", "trunc", "tag", "eigs0", "eigs1", "dim_harmonic0", "dim_harmonic1")


def spectrum_summary(model: SpectralModel) -> Dict[str, object]:
    return {
        "k": model.k,
        "trunc": model.trunc,
        "tag": CONVENTION_TAG,
        "eigs0": [[v, m] for v, m in model.eigs0],
        "eigs1": [[v, m] for v, m in model.eigs1],
        "dim_harmonic0": len(model.harmonic0),
        "dim_harmonic1": len(model.harmonic1),
    }


def cache_path(cache_dir: str, k: int, trunc: int) -> str:
    tag = CONVENTION_TAG.replace(":", "-")
    return os.path.join(cache_dir, f"spectrum_k{k}_N{trunc}_{tag}.json")


def load_spectrum(cache_dir: str, k: int, trunc: int):
    """The cached summary for (k, trunc), or None on a miss.

    A file that is not a JSON object holding every summary field is a miss
    too, so the caller rebuilds the model and overwrites the file.
    """
    path = cache_path(cache_dir, k, trunc)
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError:  # not JSON, or not UTF-8
            return None
    if not isinstance(data, dict) or any(f not in data for f in _SUMMARY_FIELDS):
        return None
    if data["tag"] != CONVENTION_TAG or data["k"] != k or data["trunc"] != trunc:
        return None
    return data


def store_spectrum(cache_dir: str, model: SpectralModel) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    path = cache_path(cache_dir, model.k, model.trunc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spectrum_summary(model), fh, indent=2, sort_keys=True)
    return path
