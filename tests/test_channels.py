import functools
import json

import numpy as np
import pytest

from photonpad.channels import (
    apply_channel,
    as_choi_operator,
    choi_block,
    parity_dephase,
    photon_number_dephase,
)
from photonpad.designs import (
    WeightedEnsemble,
    clifford12_ensemble,
    ensemble_moment,
    frame_potential,
    haar_frame_potential,
    is_k_design,
    pauli_ensemble,
)
from photonpad.errors import NotDensityOperatorError, QuadratureOrderError, SectorRangeError
from photonpad.fock import PolarizationSpec, SectorStructure, SourceSpec, build_source_state, symmetric_embedding
from photonpad.security import security_report
from photonpad.su2 import HaarQuadrature, block_lift, haar_choi, haar_moment, sector_lifts

from conftest import pauli8_ensemble, random_density, random_unitary
from test_su2 import dense_lift


def source_density(alpha, beta, amplitudes, structure):
    psi = build_source_state(SourceSpec(PolarizationSpec(alpha, beta), amplitudes), structure)
    return np.outer(psi, psi.conj())


def dense_choi(ensemble, structure):
    """Oracle: the D^2 x D^2 Choi matrix J = sum_j q_j vec L(U_j) vec L(U_j)^dag and its block map."""
    d = structure.total_dim
    j = np.zeros((d * d, d * d), dtype=complex)
    for w, u in zip(ensemble.weights, ensemble.unitaries):
        v = block_lift(u, structure).reshape(-1)
        j += w * np.outer(v, v.conj())
    return j, as_choi_operator(j, structure)


def apply_via_choi(j, rho):
    d = rho.shape[0]
    return np.einsum("aibk,ik->ab", j.reshape(d, d, d, d), rho)


def test_lifted_ensemble_shapes():
    s = SectorStructure(2)
    for u in pauli_ensemble().unitaries:
        mat = block_lift(u, s)
        assert mat.shape == (6, 6)
        assert np.allclose(mat @ mat.conj().T, np.eye(6))


@pytest.mark.parametrize("top", range(11))
def test_apply_channel_matches_dense_loop(rng, top):
    s = SectorStructure(top)
    weights = rng.random(5) + 0.1
    ensemble = WeightedEnsemble([random_unitary(rng) for _ in range(5)], weights / weights.sum())
    rho = random_density(rng, s.total_dim)
    expected = np.zeros_like(rho)
    for w, u in zip(ensemble.weights, ensemble.unitaries):
        big = np.zeros_like(rho)
        for n in range(top + 1):
            big[s.sector_slice(n), s.sector_slice(n)] = dense_lift(u, n)
        expected += w * (big @ rho @ big.conj().T)
    assert np.abs(apply_channel(ensemble, s, rho) - expected).max() <= 1e-13


# Every count argument of the package, as a call of the bad value, with the error type it raises.
COUNT_SITES = {
    "SectorStructure": (SectorStructure, SectorRangeError),
    "check_sector": (lambda v: SectorStructure(2).check_sector(v), SectorRangeError),
    "index": (lambda v: SectorStructure(2).index(1, v), SectorRangeError),
    "symmetric_embedding": (symmetric_embedding, SectorRangeError),
    "sector_lifts": (lambda v: sector_lifts(pauli_ensemble().unitaries, v), SectorRangeError),
    "HaarQuadrature": (HaarQuadrature, QuadratureOrderError),
    "haar_moment": (haar_moment, QuadratureOrderError),
    "choi_block_m": (lambda v: choi_block(pauli_ensemble(), v, 0), SectorRangeError),
    "choi_block_n": (lambda v: choi_block(pauli_ensemble(), 0, v), SectorRangeError),
    "frame_potential": (lambda v: frame_potential(pauli_ensemble(), v), ValueError),
    "haar_frame_potential": (haar_frame_potential, ValueError),
    "ensemble_moment": (lambda v: ensemble_moment(pauli_ensemble(), v), ValueError),
    "is_k_design": (lambda v: is_k_design(pauli_ensemble(), v), ValueError),
}


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: SectorStructure(True), SectorRangeError),
        (lambda: SectorStructure(2).check_sector(True), SectorRangeError),
        (lambda: HaarQuadrature(True), QuadratureOrderError),
        (lambda: choi_block(pauli_ensemble(), True, 0), SectorRangeError),
        (lambda: choi_block(pauli_ensemble(), 0, False), SectorRangeError),
        # A bool, an integral float and a negative int at every count site; 1 is in range at each.
        *[
            pytest.param(functools.partial(site, value), error, id=f"{name}-{value!r}")
            for name, (site, error) in COUNT_SITES.items()
            for value in (True, 1.0, -1)
        ],
        pytest.param(lambda: SectorStructure(2).index(1, 0.5), SectorRangeError, id="index-0.5"),
    ],
)
def test_int_arguments_reject_bool(call, error):
    """Each count site raises exactly its own error type, whatever the message (``fock._count``)."""
    with pytest.raises(error) as info:
        call()
    assert info.type is error


def test_numpy_integer_counts_are_kept_as_int():
    # A report built from a numpy count must still serialize.
    assert type(SectorStructure(np.int64(2)).max_photons) is int
    assert type(HaarQuadrature(np.uint8(2)).order) is int
    json.dumps(security_report(pauli_ensemble(), np.int64(2)).to_json_dict())


def test_apply_channel_depolarizes_single_photon():
    s = SectorStructure(1)
    rho = source_density(1.0, 0.0, (0.0, 1.0), s)
    out = apply_channel(pauli_ensemble(), s, rho)
    assert np.abs(out - s.projector(1) / 2).max() < 1e-12


def test_apply_channel_preserves_vacuum():
    s = SectorStructure(2)
    vac = np.zeros((6, 6), dtype=complex)
    vac[0, 0] = 1.0
    for e in (pauli_ensemble(), clifford12_ensemble()):
        assert np.abs(apply_channel(e, s, vac) - vac).max() < 1e-14


def test_apply_channel_is_trace_preserving_and_positive(rng):
    s = SectorStructure(2)
    for _ in range(5):
        rho = random_density(rng, s.total_dim)
        out = apply_channel(clifford12_ensemble(), s, rho)
        assert np.isclose(np.trace(out).real, 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(out).min() > -1e-12


def test_apply_channel_fixed_parity_output():
    # two-photon-or-vacuum source comes out photon-number diagonal
    s = SectorStructure(2)
    c = 0.6
    rho = source_density(0.6, 0.8, (c, 0.0, np.sqrt(1 - c * c)), s)
    out = apply_channel(clifford12_ensemble(), s, rho)
    expected = np.zeros_like(out)
    expected[0, 0] = c * c
    expected += (1 - c * c) * s.projector(2) / 3
    assert np.abs(out - expected).max() < 1e-12


def test_apply_channel_rejects_non_density():
    s = SectorStructure(1)
    with pytest.raises(NotDensityOperatorError):
        apply_channel(pauli_ensemble(), s, np.eye(3))


def test_choi_block_vacuum_is_scalar_one():
    for e in (pauli_ensemble(), clifford12_ensemble()):
        assert np.allclose(choi_block(e, 0, 0), np.eye(1))


def test_choi_block_pauli_single_photon_is_depolarizing():
    assert np.abs(choi_block(pauli_ensemble(), 1, 1) - np.eye(4) / 2).max() < 1e-14


def test_choi_block_sign_pairs_cancel_cross_blocks():
    b = choi_block(pauli8_ensemble(), 1, 0)
    assert np.abs(b).max() < 1e-15


@pytest.mark.parametrize("size", [1, 2, 5, 24])
def test_choi_block_matches_dense_loop(rng, size):
    weights = rng.random(size) + 0.1
    ensemble = WeightedEnsemble([random_unitary(rng) for _ in range(size)], weights / weights.sum())
    vecs = [[dense_lift(u, n).reshape(-1) for n in range(7)] for u in ensemble.unitaries]
    for m in range(7):
        for n in range(7):
            expected = sum(w * np.outer(v[m], v[n].conj()) for w, v in zip(ensemble.weights, vecs))
            assert np.abs(choi_block(ensemble, m, n) - expected).max() <= 1e-13


def test_choi_block_range_checks():
    with pytest.raises(SectorRangeError):
        choi_block(pauli_ensemble(), -1, 0)


def test_full_choi_identity_channel():
    s = SectorStructure(1)
    e = WeightedEnsemble([np.eye(2)], [1.0])
    omega = np.eye(s.total_dim).reshape(-1)
    assert np.abs(dense_choi(e, s)[0] - np.outer(omega, omega)).max() < 1e-14


def test_full_choi_is_psd_and_trace_preserving():
    for e in (pauli_ensemble(), clifford12_ensemble()):
        for n in (1, 2, 3):
            s = SectorStructure(n)
            j, _ = dense_choi(e, s)
            d = s.total_dim
            assert np.isclose(np.trace(j).real, d, atol=1e-10)
            assert np.linalg.eigvalsh(j).min() > -1e-10
            partial = np.einsum("aiak->ik", j.reshape(d, d, d, d))
            assert np.abs(partial - np.eye(d)).max() < 1e-10


def test_full_choi_blocks_match_choi_block():
    s = SectorStructure(2)
    for e in (pauli8_ensemble(), clifford12_ensemble()):
        _, blocks = dense_choi(e, s)
        assert sorted(blocks) == [(m, n) for m in range(3) for n in range(3)]
        for (m, n), block in blocks.items():
            assert np.abs(block - choi_block(e, m, n)).max() < 1e-13


def test_choi_reproduces_channel_action(rng):
    s = SectorStructure(2)
    for e in (pauli_ensemble(), clifford12_ensemble()):
        j, _ = dense_choi(e, s)
        for _ in range(10):
            rho = random_density(rng, s.total_dim)
            assert np.abs(apply_via_choi(j, rho) - apply_channel(e, s, rho)).max() < 1e-11


def test_sign_balanced_paulis_reach_haar_choi():
    s = SectorStructure(1)
    j, _ = dense_choi(pauli8_ensemble(), s)
    assert np.abs(j - haar_choi(s)).max() < 1e-14


def test_as_choi_operator_rejects_wrong_shape():
    with pytest.raises(SectorRangeError):
        as_choi_operator(np.eye(5), SectorStructure(1))


def test_parity_dephase_keeps_same_parity_coherence():
    s = SectorStructure(2)
    c = 0.6
    rho = source_density(1.0, 0.0, (c, 0.0, np.sqrt(1 - c * c)), s)
    assert np.abs(parity_dephase(rho, s) - rho).max() < 1e-14


def test_parity_dephase_removes_cross_parity_coherence():
    s = SectorStructure(2)
    rho = source_density(1.0, 0.0, (0.0, 0.6, 0.8), s)
    out = parity_dephase(rho, s)
    assert np.isclose(np.trace(out).real, 1.0, atol=1e-13)
    assert np.abs(out[0, 0] - rho[0, 0]) < 1e-14
    i1 = s.index(1, 1)
    i2 = s.index(2, 2)
    assert np.abs(rho[i1, i2]) > 0.1
    assert np.abs(out[i1, i2]) < 1e-15
    # idempotent
    assert np.abs(parity_dephase(out, s) - out).max() < 1e-14


def test_photon_number_dephase_leaves_only_sector_blocks():
    s = SectorStructure(2)
    rho = source_density(1.0, 0.0, (0.6, 0.0, 0.8), s)
    out = photon_number_dephase(rho, s)
    assert np.abs(out[0, s.sector_slice(2)]).max() < 1e-15
    assert np.isclose(out[0, 0].real, 0.36, atol=1e-13)
    diag_block = out[s.sector_slice(2), s.sector_slice(2)]
    assert np.abs(diag_block - rho[s.sector_slice(2), s.sector_slice(2)]).max() < 1e-14


@pytest.mark.parametrize("top", range(7))
def test_dephasers_match_projector_sums(rng, top):
    s = SectorStructure(top)
    rho = random_density(rng, s.total_dim)
    projectors = [s.projector(n) for n in range(top + 1)]
    even = sum(projectors[0::2])
    odd = sum(projectors[1::2], np.zeros_like(rho))
    assert np.abs(parity_dephase(rho, s) - (even @ rho @ even + odd @ rho @ odd)).max() <= 1e-15
    assert np.abs(photon_number_dephase(rho, s) - sum(p @ rho @ p for p in projectors)).max() <= 1e-15


def test_dephase_rejects_non_density():
    s = SectorStructure(1)
    with pytest.raises(NotDensityOperatorError):
        parity_dephase(2 * np.eye(3), s)
    with pytest.raises(NotDensityOperatorError):
        photon_number_dephase(2 * np.eye(3), s)
