"""Small dense complex-matrix helpers used throughout the package.

Everything is a ``numpy.ndarray`` with dtype complex128. These helpers add
the validation and conventions the rest of the package relies on: finite
square matrices, Frobenius and trace norms (the latter via singular
values), and a tolerance-based Hermiticity predicate.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "as_matrix",
    "frobenius",
    "trace_norm",
    "is_hermitian",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite square complex128 matrix."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise DimensionError("matrix contains non-finite entries")
    return m


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(a)))


def is_hermitian(a: np.ndarray, tol: float = 1e-10) -> bool:
    a = np.asarray(a, dtype=np.complex128)
    return a.ndim == 2 and a.shape[0] == a.shape[1] and frobenius(a - a.conj().T) <= tol


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values; for Hermitian ``a``, the sum of |eigenvalues|.

    Computed from the SVD directly rather than through eigenvalues of
    a^dag a, which would halve the significant digits of singular values
    near zero.
    """
    a = as_matrix(a)
    return float(np.linalg.svd(a, compute_uv=False).sum())
