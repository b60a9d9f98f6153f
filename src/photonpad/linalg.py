"""Frobenius and trace norms, and the fixed tolerance of density-operator checks."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .fock import _array

__all__ = [
    "frobenius",
    "trace_norm",
]

DENSITY_TOL = 1e-10


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values of a finite square matrix; for Hermitian ``a``, the sum of |eigenvalues|.

    Computed from the SVD directly rather than through eigenvalues of
    a^dag a, which would halve the significant digits of singular values
    near zero.
    """
    a = _array(a, (None, None), "matrix", DimensionError)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise DimensionError("matrix contains non-finite entries")
    return float(np.linalg.svd(a, compute_uv=False).sum())
