import numpy as np
import pytest

from photonpad.errors import DimensionError
from photonpad.linalg import as_matrix, dagger, frobenius, is_hermitian, trace_norm

from conftest import random_density


def test_dagger():
    a = np.array([[1.0, 2j], [3.0, 4.0 - 1j]])
    assert np.array_equal(dagger(a), a.conj().T)


def test_frobenius_matches_norm():
    a = np.array([[1.0, 2j], [3.0, 4.0]])
    assert np.isclose(frobenius(a), np.linalg.norm(a))


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(DimensionError):
        as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_trace_norm_hermitian_is_abs_eigenvalue_sum(rng):
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = a + dagger(a)
    expected = np.abs(np.linalg.eigvalsh(h)).sum()
    assert np.isclose(trace_norm(h), expected, atol=1e-12)


def test_trace_norm_general_matches_gram_route(rng):
    # sqrt-of-gram eigenvalues is a less accurate but independent formula
    for _ in range(5):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        gram = np.sqrt(np.clip(np.linalg.eigvalsh(dagger(a) @ a), 0.0, None)).sum()
        assert np.isclose(trace_norm(a), gram, atol=1e-8)


def test_trace_norm_rank_one():
    v = np.array([0.6, 0.8j])
    assert np.isclose(trace_norm(np.outer(v, v.conj())), 1.0, atol=1e-14)


def test_predicates(rng):
    rho = random_density(rng, 3)
    assert is_hermitian(rho)
    assert not is_hermitian(rho + np.triu(np.full((3, 3), 1e-6), 1))
    assert not is_hermitian(np.zeros((2, 3)))
