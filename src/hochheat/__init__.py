"""hochheat: exact cyclic-chain algebra with spectral and quadrature cross-checks."""

__version__ = "0.2.0"
