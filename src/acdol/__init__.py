"""Exact Dolbeault cohomology, Frolicher spectral sequences and harmonic
theory for almost complex structures on finite-dimensional real Lie algebras.

Everything is computed over the Gaussian rationals with no floating point,
so dimension tables and operator identities are exact.
"""

__version__ = "0.1.0"
__all__ = ["__version__"]
