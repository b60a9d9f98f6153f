import sys
from fractions import Fraction

import numpy as np
import pytest

from photonpad import su2
from photonpad.designs import WeightedEnsemble, clifford12_ensemble
from photonpad.fock import PolarizationSpec, SourceSpec, _json_pairs


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


def random_ensemble(rng, size):
    """Random U(2) elements (det != 1) with non-uniform weights."""
    weights = rng.random(size) + 0.1
    return WeightedEnsemble([random_unitary(rng) for _ in range(size)], weights / weights.sum())


def random_source(rng, max_photons):
    v = random_state(rng, 2)
    return SourceSpec(PolarizationSpec(v[0], v[1]), tuple(random_state(rng, max_photons + 1)))


def pauli8_ensemble():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    us = []
    for u in (np.eye(2), sx, sy, sz):
        us.extend([u, -u])
    return WeightedEnsemble(us, [0.125] * 8, name="pauli8")


def ensemble_to_json_dict(ensemble):
    """The ensemble file schema that ``designs.ensemble_from_json_dict`` reads."""
    return {
        "name": ensemble.name,
        "elements": [
            {"weight": float(w), "unitary": _json_pairs(u)}
            for w, u in zip(ensemble.weights, ensemble.unitaries)
        ],
    }


def apply_choi(choi, rho):
    """E(rho) from the Choi operator J = sum_ij E(|i><j|) (x) |i><j| of a channel E."""
    d = rho.shape[0]
    return np.einsum("aibj,ij->ab", choi.reshape(d, d, d, d), rho)


def exact_squared_deviations(ensemble, top):
    """Oracle: Delta_mn^2 for m, n <= top as exact Fractions, from the characters of U_i^dag U_j.

    For an equal-weight ensemble in which every g = U_i^dag U_j has a Gaussian-integer
    trace and determinant (pauli, clifford12), the characters chi_n(g) = tr L_n(g),
    chi_0 = 1, chi_1 = tr g and chi_{n+1} = tr(g) chi_n - det(g) chi_{n-1}, are Gaussian
    integers. ||C_mn||_F^2 = q^2 sum_ij chi_m(g_ij) conj(chi_n(g_ij)) and <C_nn, I> = n + 1,
    so Delta_mn^2 = q^2 sum_ij Re chi_m conj chi_n - delta_mn.
    """
    s = ensemble.size
    assert np.all(ensemble.weights == ensemble.weights[0]), "equal weights only"
    us = ensemble.unitaries
    g = np.einsum("iba,jbc->ijac", us.conj(), us).reshape(-1, 2, 2)
    rounded = []
    for x in (np.trace(g, axis1=1, axis2=2), np.linalg.det(g)):
        pairs = np.stack((np.round(x.real), np.round(x.imag)), -1)
        assert np.abs(pairs - np.stack((x.real, x.imag), -1)).max() < 1e-9, "not Gaussian integers"
        rounded.append([(int(a), int(b)) for a, b in pairs])
    total = [[0] * (top + 1) for _ in range(top + 1)]
    for (tr, ti), (dr, di) in zip(*rounded):
        chi = [(1, 0), (tr, ti)]
        while len(chi) <= top:
            (ar, ai), (br, bi) = chi[-1], chi[-2]
            chi.append((tr * ar - ti * ai - (dr * br - di * bi), tr * ai + ti * ar - (dr * bi + di * br)))
        for m in range(top + 1):
            for n in range(top + 1):
                total[m][n] += chi[m][0] * chi[n][0] + chi[m][1] * chi[n][1]
    return [[Fraction(total[m][n], s * s) - (m == n) for n in range(top + 1)] for m in range(top + 1)]


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


@pytest.fixture
def lift_sweeps(monkeypatch):
    """The top sector of every ``su2._lift_sweep`` call the test makes, counted at every binding."""
    original = su2._lift_sweep
    calls = []

    def counted(us, top):
        calls.append(top)
        return original(us, top)

    for name, module in list(sys.modules.items()):
        if name.startswith("photonpad") and getattr(module, "_lift_sweep", None) is original:
            monkeypatch.setattr(module, "_lift_sweep", counted)
    return calls


@pytest.fixture
def eigensolves(monkeypatch):
    """The shape of every matrix or stack ``np.linalg.eigvalsh`` receives while the test runs."""
    original = np.linalg.eigvalsh
    shapes = []

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    return shapes
