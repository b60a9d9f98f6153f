import numpy as np
import pytest

from photonpad.designs import clifford12_ensemble


def random_unitary(rng, dim=2):
    """Haar-distributed unitary via QR with phase-fixed diagonal."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def antisymmetric_identity_check():
    """Deviation of clifford12's plain mean of tensor squares from the singlet projector.

    With the ensemble's rotation phases, the unconjugated average
    (1/12) sum_j U_j (x) U_j equals the projector onto the two-qubit
    antisymmetric (singlet) state, so the Frobenius deviation is at
    roundoff. Unlike a twirl, this identity would fail under a different
    choice of element phases.
    """
    ensemble = clifford12_ensemble()
    acc = np.einsum("j,jab,jcd->acbd", ensemble.weights, ensemble.unitaries, ensemble.unitaries)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return float(np.linalg.norm(acc.reshape(4, 4) - np.outer(singlet, singlet)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
