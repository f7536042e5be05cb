"""Numerical integrals of curvature densities over the sphere chart.

Densities live on the affine chart: a callable f(x, y) -> density value,
integrated against dx dy over the whole plane.  The curvature density of
O(m) in the unit-mass normalization is

    m * (1/pi) * (1 + x^2 + y^2)^(-2),

whose total integral is m; the degree-2 part of the Todd density of the
sphere is half the curvature of O(2), hence equals the O(1) density
pointwise.

The plane is integrated in polar coordinates with the compactifying
substitution r = tan(theta/2), theta in (0, pi), which maps our rational
densities to analytic integrands (for the O(m) density the radial factor
becomes m sin(theta) / (4 pi)).  The radial rule is tanh-sinh and the
angular direction uses the uniform periodic rule.  Each level doubles both
directions and the difference of the last two levels gives the reported
error estimate; if the tolerance is never met the result is flagged as not
converged rather than raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

_U_MAX = 4.0  # tanh-sinh truncation; weights beyond are ~1e-36
_ANGULAR_NODES = 8  # angular nodes at level 0; each level doubles them

#: a density on the affine chart, vectorized over numpy arrays
ChartDensity = Callable[[np.ndarray, np.ndarray], np.ndarray]


def chern_density(m: int) -> ChartDensity:
    """Curvature density of O(m); integrates to m."""
    return lambda x, y: m * (1.0 / math.pi) * (1.0 + x * x + y * y) ** -2.0


def todd_density() -> ChartDensity:
    """Degree-2 Todd density of the sphere: half the O(2) curvature."""
    half = chern_density(2)
    return lambda x, y: 0.5 * half(x, y)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    converged: bool
    levels_used: int


def _tanh_sinh_nodes(level: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integral over (0, pi) at the given level."""
    h = 0.5 / 2**level
    j = np.arange(-int(math.ceil(_U_MAX / h)), int(math.ceil(_U_MAX / h)) + 1)
    u = j * h
    inner = 0.5 * math.pi * np.sinh(u)
    theta = 0.5 * math.pi * (1.0 + np.tanh(inner))
    weights = h * (0.5 * math.pi) ** 2 * np.cosh(u) / np.cosh(inner) ** 2
    return theta, weights


def _level_value(density: ChartDensity, level: int) -> float:
    theta, w_rad = _tanh_sinh_nodes(level)
    m_ang = _ANGULAR_NODES * 2**level
    phi = 2.0 * math.pi * np.arange(m_ang) / m_ang
    w_ang = 2.0 * math.pi / m_ang
    r = np.tan(0.5 * theta)
    # dr = (1 + r^2) dtheta / 2 and the polar area element contributes r
    jac = 0.5 * r * (1.0 + r * r) * w_rad
    x = r[:, None] * np.cos(phi)[None, :]
    y = r[:, None] * np.sin(phi)[None, :]
    vals = density(x, y)
    columns = (vals * jac[:, None]).sum(axis=0) * w_ang
    return math.fsum(float(c) for c in columns)


def integrate_chart(density: ChartDensity, levels: int = 6, tol: float = 1e-10) -> QuadratureResult:
    """Integrate a chart density over the plane with level doubling.

    Returns the last level's value with the two-level difference as error
    estimate; `converged` records whether that difference met `tol`.
    """
    if levels < 2:
        raise ValueError(f"levels must be at least 2, got {levels}")
    previous = None
    value = 0.0
    err = math.inf
    for level in range(levels):
        value = _level_value(density, level)
        if previous is not None:
            err = abs(value - previous)
            if err <= tol:
                return QuadratureResult(value, err, True, level)
        previous = value
    return QuadratureResult(value, err, False, levels - 1)


def integrate_product(densities: Sequence[ChartDensity], **kwargs) -> QuadratureResult:
    """Integral of an outer product density over a product of spheres.

    Fubini: the integral is the product of the factor integrals.  The error
    estimate propagates the factor estimates to first order, the result
    converged only if every factor did, and `levels_used` is the largest
    of the factors'.
    """
    if not 1 <= len(densities) <= 4:
        raise ValueError(f"product integrals support 1 to 4 factors, got {len(densities)}")
    factors = tuple(integrate_chart(d, **kwargs) for d in densities)
    value = math.prod(f.value for f in factors)
    err = 0.0
    for i, f in enumerate(factors):
        err += f.error_estimate * math.prod(abs(g.value) for j, g in enumerate(factors) if j != i)
    return QuadratureResult(value, err, all(f.converged for f in factors),
                            max(f.levels_used for f in factors))
