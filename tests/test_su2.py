import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpad.designs import clifford12_ensemble
from photonpad.errors import (
    NotDensityOperatorError,
    NotUnitaryError,
    QuadratureOrderError,
    SectorRangeError,
)
from photonpad.fock import SectorStructure, symmetric_embedding
from photonpad.linalg import DENSITY_TOL
from photonpad.su2 import (
    HaarQuadrature,
    _lift_sweep,
    _multiplicity,
    block_lift,
    check_density,
    haar_choi,
    haar_moment,
    lift_symmetric,
    sector_lifts,
    tensor_power,
)

from conftest import apply_choi, random_density, random_state, random_unitary


def dense_lift(u, n):
    """Projection oracle V_n^dag U^(x n) V_n through the 2^n x 2^n tensor power."""
    v = symmetric_embedding(n)
    return v.conj().T @ tensor_power(np.asarray(u, dtype=complex), n) @ v


def closed_form_lift(u, n):
    """Independent binomial-sum formula for the symmetric-subspace lift."""
    u = np.asarray(u, dtype=complex)
    out = np.zeros((n + 1, n + 1), dtype=complex)
    for m in range(n + 1):
        for k in range(n + 1):
            acc = 0j
            for j in range(max(0, k - (n - m)), min(m, k) + 1):
                acc += (
                    comb(m, j)
                    * u[0, 0] ** j
                    * u[0, 1] ** (m - j)
                    * comb(n - m, k - j)
                    * u[1, 0] ** (k - j)
                    * u[1, 1] ** (n - m - k + j)
                )
            out[n - m, n - k] = np.sqrt(comb(n, m) / comb(n, k)) * acc
    return out


def euler_unitary(phi, theta, psi):
    return np.array(
        [
            [np.exp(1j * phi) * np.cos(theta), np.exp(1j * psi) * np.sin(theta)],
            [-np.exp(-1j * psi) * np.sin(theta), np.exp(-1j * phi) * np.cos(theta)],
        ]
    )


def test_tensor_power():
    u = np.diag([1.0, 1j])
    assert np.array_equal(tensor_power(u, 0), np.eye(1))
    assert np.array_equal(tensor_power(u, 2), np.kron(u, u))


def test_lift_identity_and_scalar_sector():
    assert np.allclose(lift_symmetric(np.eye(2), 3), np.eye(4))
    assert np.array_equal(lift_symmetric(np.array([[0, 1], [1, 0]]), 0), np.eye(1))


def test_lift_diagonal():
    u = np.diag([np.exp(0.3j), np.exp(-0.3j)])
    # basis order |2,0>, |1,1>, |0,2>
    expected = np.diag([np.exp(0.6j), 1.0, np.exp(-0.6j)])
    assert np.allclose(lift_symmetric(u, 2), expected)


def test_lift_swap_is_antidiagonal():
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    lifted = lift_symmetric(sx, 2)
    assert np.allclose(lifted, np.fliplr(np.eye(3)))


def test_lift_rejects_nonunitary():
    with pytest.raises(NotUnitaryError):
        lift_symmetric(np.array([[1.0, 0.1], [0.0, 1.0]]), 2)
    with pytest.raises(NotUnitaryError, match="element 1"):
        sector_lifts(np.stack([np.eye(2), [[1.0, 0.0], [0.0, np.nan]]]), 2)
    with pytest.raises(NotUnitaryError):
        sector_lifts(np.eye(2), 2)
    for top in (-1, 1.0, True):
        with pytest.raises(SectorRangeError):
            sector_lifts(np.eye(2)[None], top)


def test_lift_matches_closed_form(rng):
    us = np.stack([random_unitary(rng) for _ in range(10)])
    lifts = sector_lifts(us, 10)
    for n in range(11):
        assert lifts[n].shape == (10, n + 1, n + 1)
        for u, swept in zip(us, lifts[n]):
            dense = dense_lift(u, n)
            assert np.abs(swept - dense).max() < 1e-12
            assert np.abs(swept - closed_form_lift(u, n)).max() < 1e-12
            assert np.abs(lift_symmetric(u, n) - dense).max() < 1e-12


def test_sweep_starts_from_the_checked_unitaries(rng):
    # L_1(U) = U: sector 1 is the checked copy of the input bit for bit, a negative zero included, so a
    # sweep to N makes N - 1 steps. Sector 0 alone is L_0 = 1, and every sector from 2 on matches the oracle.
    us = np.stack([random_unitary(rng) for _ in range(3)] + [np.array([[0.0, -1.0], [1.0, -0.0]])])
    first = sector_lifts(us, 1)[1]
    assert first.tobytes() == us.astype(np.complex128).tobytes()  # bytes tell -0.0 from 0.0
    assert np.signbit(first[3, 1, 1].real)
    assert not np.shares_memory(first, us)
    only = sector_lifts(us, 0)
    assert len(only) == 1 and only[0].tobytes() == np.ones((4, 1, 1), dtype=np.complex128).tobytes()
    for n, lifts in enumerate(sector_lifts(us, 8)[2:], 2):
        for u, swept in zip(us, lifts):
            assert np.abs(swept - dense_lift(u, n)).max() < 1e-12


def test_ensemble_sweeps_start_from_its_read_only_unitaries():
    # Sweeps inside the package take L_1 as the ensemble's own stack, not a copy, which no caller can write.
    e = clifford12_ensemble()
    assert _lift_sweep(e.unitaries, 3)[1] is e.unitaries
    assert not e.unitaries.flags.writeable


@pytest.mark.parametrize("n", [50, 200])
def test_lift_stays_unitary_and_multiplicative_at_large_n(rng, n):
    u, w = random_unitary(rng), random_unitary(rng)
    lu, lw, luw = sector_lifts(np.stack([u, w, u @ w]), n)[n]
    eye = np.eye(n + 1)
    for lifted in (lu, lw, luw):
        assert np.linalg.norm(lifted.conj().T @ lifted - eye) <= 1e-10
    assert np.linalg.norm(luw - lu @ lw) <= 1e-10


def test_sweep_holds_little_beyond_its_lifts(rng):
    # Each step holds two (s, 2, n, n+1) buffers besides L_{n-1} and L_n: 7.5 MiB at s = 24, N = 64, where
    # the lifts themselves take 34 MiB. A (s, 2, n, 2, n) product per step would peak 16 MiB above them.
    us = np.stack([random_unitary(rng) for _ in range(24)])
    tracemalloc.start()
    try:
        lifts = sector_lifts(us, 64)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lifts) == 65
    assert peak - held < 10 * 2**20


@settings(max_examples=25, deadline=None)
@given(
    phi=st.floats(0, 2 * np.pi),
    theta=st.floats(0, np.pi / 2),
    psi=st.floats(0, 2 * np.pi),
    phi2=st.floats(0, 2 * np.pi),
    theta2=st.floats(0, np.pi / 2),
    psi2=st.floats(0, 2 * np.pi),
)
def test_lift_is_multiplicative(phi, theta, psi, phi2, theta2, psi2):
    u = euler_unitary(phi, theta, psi)
    w = euler_unitary(phi2, theta2, psi2)
    for n in range(4):
        lhs = lift_symmetric(u @ w, n)
        rhs = lift_symmetric(u, n) @ lift_symmetric(w, n)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_lift_respects_adjoint(rng):
    u = random_unitary(rng)
    for n in range(5):
        assert np.allclose(lift_symmetric(u.conj().T, n), lift_symmetric(u, n).conj().T)


def test_block_lift_structure(rng):
    s = SectorStructure(3)
    u = random_unitary(rng)
    full = block_lift(u, s)
    assert full.shape == (10, 10)
    assert np.allclose(full.conj().T @ full, np.eye(10))
    expected = np.zeros((10, 10), dtype=complex)
    for n in range(4):
        sl = s.sector_slice(n)
        expected[sl, sl] = lift_symmetric(u, n)
    # each sector is exactly its own lift, with no coupling between sectors
    assert np.array_equal(full, expected)


def test_block_lift_pauli_z():
    s = SectorStructure(1)
    sz = np.diag([1.0, -1.0])
    assert np.allclose(block_lift(sz, s), np.diag([1.0, 1.0, -1.0]))


def test_multiplicity_values():
    # spin n/2 inside (C^2)^(x k)
    assert _multiplicity(2, 2) == 1
    assert _multiplicity(2, 0) == 1
    assert _multiplicity(4, 4) == 1
    assert _multiplicity(4, 2) == 3
    assert _multiplicity(4, 0) == 2
    assert _multiplicity(3, 3) == 1
    assert _multiplicity(3, 1) == 2


@pytest.mark.parametrize("k", range(1, 9))
def test_multiplicity_sum_counts_tensor_dimension(k):
    total = sum((n + 1) * _multiplicity(k, n) for n in range(k % 2, k + 1, 2))
    assert total == 2**k


def test_multiplicity_is_ballot_number():
    # spin n/2 appears as often as weight n/2 outnumbers weight n/2 + 1
    for k in range(1, 13):
        for n in range(k % 2, k + 1, 2):
            j = (k + n) // 2
            assert _multiplicity(k, n) == comb(k, j) - comb(k, j + 1)


def test_quadrature_nodes_are_unitary_and_weights_normalized():
    q = HaarQuadrature(2)
    assert len(q.weights) == q.unitaries.shape[0] == 5 * 5 * 3
    assert np.all(q.weights > 0)
    assert np.isclose(q.weights.sum(), 1.0, atol=1e-13)
    eye = np.eye(2)
    for u in q.unitaries:
        assert np.abs(u @ u.conj().T - eye).max() < 1e-12


def test_quadrature_nodes_match_the_loop_construction():
    # The nodes (a, b, c) in row-major order, entry by entry as a scalar loop builds them, bit for bit.
    for order in (1, 2, 4, 8):
        m, g = 2 * order + 1, order + 1
        u, w = np.polynomial.legendre.leggauss(g)
        cos_t, sin_t = np.sqrt((1.0 + u) / 2.0), np.sqrt((1.0 - u) / 2.0)
        phi = 2.0 * np.pi * np.arange(m) / m
        us, ws = [], []
        for a in range(m):
            ea = np.exp(1j * phi[a])
            for b in range(m):
                eb = np.exp(1j * phi[b])
                for c in range(g):
                    us.append([[ea * cos_t[c], eb * sin_t[c]], [-np.conj(eb) * sin_t[c], np.conj(ea) * cos_t[c]]])
                    ws.append(w[c] / (2.0 * m * m))
        q = HaarQuadrature(order)
        assert q.unitaries.tobytes() == np.array(us).tobytes()
        assert q.weights.tobytes() == np.array(ws).tobytes()

def test_quadrature_order_guards():
    with pytest.raises(QuadratureOrderError):
        HaarQuadrature(0)


def test_haar_moment_first_order():
    m = haar_moment(1)
    # maximally entangled projector over dimension 2
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1.0
    assert np.abs(m - np.outer(omega, omega) / 2).max() < 1e-13


def test_haar_moment_is_projector():
    m = haar_moment(2)
    assert np.abs(m - m.conj().T).max() < 1e-12
    assert np.abs(m @ m - m).max() < 1e-10
    assert np.isclose(np.trace(m).real, 2.0, atol=1e-10)  # rank = permutation count


def test_haar_moment_matches_higher_order_rule():
    def second_moment(u):
        uu = np.kron(u, u)
        return np.kron(uu, uu.conj())

    quad = HaarQuadrature(4)
    fine = sum(w * second_moment(u) for u, w in zip(quad.unitaries, quad.weights))
    assert np.abs(haar_moment(2) - fine).max() <= 1e-13


def test_quadrature_averages_odd_moment_to_zero():
    q = HaarQuadrature(1)
    avg = np.einsum("j,jab->ab", q.weights, q.unitaries)
    assert np.abs(avg).max() < 1e-13


def test_haar_channel_erases_polarization(rng):
    s = SectorStructure(2)
    v = random_state(rng, 3)
    rho = np.zeros((s.total_dim, s.total_dim), dtype=complex)
    # place a random pure state in sector 2 with sector-1 coherence
    rho[s.sector_slice(2), s.sector_slice(2)] = np.outer(v, v.conj())
    out = apply_choi(haar_choi(s), rho)
    expected = s.projector(2) / 3
    assert np.abs(out - expected).max() < 1e-12


def test_haar_channel_is_covariant(rng):
    s = SectorStructure(2)
    rho = random_density(rng, s.total_dim)
    u = random_unitary(rng)
    big = block_lift(u, s)
    direct = apply_choi(haar_choi(s), big @ rho @ big.conj().T)
    assert np.abs(direct - apply_choi(haar_choi(s), rho)).max() < 1e-12


def spectrum_density(rng, dim, smallest):
    """Q diag(lam) Q^dag with a random unitary Q, unit trace and smallest eigenvalue ``smallest``."""
    rest = rng.random(dim - 1) + 0.1
    lam = np.concatenate(([smallest], (1.0 - smallest) * rest / rest.sum()))
    q = random_unitary(rng, dim)
    rho = (q * lam) @ q.conj().T
    return (rho + rho.conj().T) / 2


@pytest.mark.parametrize("dim", [3, 21, 45])
@pytest.mark.parametrize("smallest", [-2e-10, -1.01e-10, -0.99e-10, -5e-11, 0.0])
def test_check_density_positivity_boundary(rng, dim, smallest):
    rho = spectrum_density(rng, dim, smallest)
    w_min = np.linalg.eigvalsh(rho).min()
    assert abs(w_min - smallest) < 1e-13
    if w_min < -DENSITY_TOL:
        assert smallest < -DENSITY_TOL
        with pytest.raises(NotDensityOperatorError, match=f"^negative eigenvalue {w_min:.3e}$"):
            check_density(rho, dim)
    else:
        assert smallest > -DENSITY_TOL
        assert np.array_equal(check_density(rho, dim), rho)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rho: np.where(np.eye(len(rho)) > 0, np.nan, rho), "density operator contains non-finite entries"),
        (lambda rho: rho + np.triu(np.full_like(rho, 1e-6), 1), "density operator is not Hermitian within tolerance"),
        (lambda rho: 1.01 * rho, "trace .* is not 1 within tolerance"),
    ],
)
@pytest.mark.parametrize("dim", [3, 21, 45])
def test_check_density_other_failures_keep_their_messages(rng, dim, edit, message):
    with pytest.raises(NotDensityOperatorError, match=f"^{message}$"):
        check_density(edit(spectrum_density(rng, dim, 0.0)), dim)


def test_haar_choi_smallest_cases():
    s0 = SectorStructure(0)
    assert np.allclose(haar_choi(s0), np.eye(1))
    s1 = SectorStructure(1)
    j = haar_choi(s1)
    assert j.shape == (9, 9)
    assert np.isclose(np.trace(j).real, s1.total_dim)
    vals = np.linalg.eigvalsh(j)
    assert vals.min() > -1e-12
