"""hochheat: exact cyclic-chain algebra with spectral and quadrature cross-checks."""

__version__ = "0.3.0"
