import numpy as np
import pytest

from photonpad.channels import (
    apply_channel,
    as_choi_operator,
    choi_block,
    full_choi,
    lifted_ensemble,
    parity_dephase,
    photon_number_dephase,
)
from photonpad.designs import WeightedEnsemble, clifford12_ensemble, pauli_ensemble
from photonpad.errors import NotDensityOperatorError, QuadratureOrderError, SectorRangeError, SpinRangeError
from photonpad.fock import PolarizationSpec, SectorStructure, SourceSpec, build_source_state
from photonpad.su2 import HaarQuadrature, haar_choi, multiplicity

from conftest import random_density, random_unitary
from test_su2 import dense_lift


def pauli8_ensemble():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    us = []
    for u in (np.eye(2), sx, sy, sz):
        us.extend([u, -u])
    return WeightedEnsemble(us, [0.125] * 8, name="pauli8")


def source_density(alpha, beta, amplitudes, structure):
    psi = build_source_state(SourceSpec(PolarizationSpec(alpha, beta), amplitudes), structure)
    return np.outer(psi, psi.conj())


def apply_via_choi(choi, rho):
    d = rho.shape[0]
    j = choi.matrix.reshape(d, d, d, d)
    return np.einsum("aibk,ik->ab", j, rho)


def test_lifted_ensemble_shapes():
    s = SectorStructure(2)
    lifted = lifted_ensemble(pauli_ensemble(), s)
    assert lifted.shape == (4, 6, 6)
    for mat in lifted:
        assert np.allclose(mat @ mat.conj().T, np.eye(6))


@pytest.mark.parametrize("top", range(6))
def test_apply_channel_matches_dense_loop(rng, top):
    s = SectorStructure(top)
    weights = rng.random(5) + 0.1
    ensemble = WeightedEnsemble([random_unitary(rng) for _ in range(5)], weights / weights.sum())
    rho = random_density(rng, s.total_dim)
    expected = np.zeros_like(rho)
    for w, u in ensemble.items():
        big = np.zeros_like(rho)
        for n in range(top + 1):
            big[s.sector_slice(n), s.sector_slice(n)] = dense_lift(u, n)
        expected += w * (big @ rho @ big.conj().T)
    assert np.abs(apply_channel(ensemble, s, rho) - expected).max() <= 1e-13


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: SectorStructure(True), SectorRangeError),
        (lambda: SectorStructure(2).check_sector(True), SectorRangeError),
        (lambda: multiplicity(True, 0.5), SpinRangeError),
        (lambda: HaarQuadrature(True), QuadratureOrderError),
        (lambda: choi_block(pauli_ensemble(), True, 0), SectorRangeError),
        (lambda: choi_block(pauli_ensemble(), 0, False), SectorRangeError),
    ],
)
def test_int_arguments_reject_bool(call, error):
    with pytest.raises(error):
        call()


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


def test_choi_block_range_checks():
    with pytest.raises(SectorRangeError):
        choi_block(pauli_ensemble(), -1, 0)
    with pytest.raises(SectorRangeError):
        choi_block(pauli_ensemble(), 3, 0, structure=SectorStructure(2))


def test_full_choi_identity_channel():
    s = SectorStructure(1)
    e = WeightedEnsemble([np.eye(2)], [1.0])
    omega = np.eye(s.total_dim).reshape(-1)
    assert np.abs(full_choi(e, s).matrix - np.outer(omega, omega)).max() < 1e-14


def test_full_choi_is_psd_and_trace_preserving():
    for e in (pauli_ensemble(), clifford12_ensemble()):
        for n in (1, 2, 3):
            s = SectorStructure(n)
            choi = full_choi(e, s)
            d = s.total_dim
            assert np.isclose(np.trace(choi.matrix).real, d, atol=1e-10)
            assert np.linalg.eigvalsh(choi.matrix).min() > -1e-10
            partial = np.einsum("aiak->ik", choi.matrix.reshape(d, d, d, d))
            assert np.abs(partial - np.eye(d)).max() < 1e-10


def test_full_choi_blocks_match_choi_block():
    s = SectorStructure(2)
    choi = full_choi(clifford12_ensemble(), s)
    for m in range(3):
        for n in range(3):
            assert np.abs(choi.block(m, n) - choi_block(clifford12_ensemble(), m, n)).max() < 1e-13


def test_choi_reproduces_channel_action(rng):
    s = SectorStructure(2)
    for e in (pauli_ensemble(), clifford12_ensemble()):
        choi = full_choi(e, s)
        for _ in range(10):
            rho = random_density(rng, s.total_dim)
            assert np.abs(apply_via_choi(choi, rho) - apply_channel(e, s, rho)).max() < 1e-11


def test_sign_balanced_paulis_reach_haar_choi():
    s = SectorStructure(1)
    choi = full_choi(pauli8_ensemble(), s)
    assert np.abs(choi.matrix - haar_choi(s)).max() < 1e-14


def test_as_choi_operator_rejects_wrong_shape():
    with pytest.raises(SectorRangeError):
        as_choi_operator(np.eye(5), SectorStructure(1))


def test_choi_json_schema():
    s = SectorStructure(1)
    d = full_choi(pauli_ensemble(), s).to_json_dict()
    assert d["max_photons"] == 1
    assert len(d["blocks"]) == 4
    first = d["blocks"][0]
    assert first["m"] == 0 and first["n"] == 0
    assert first["matrix"] == [[[1.0, 0.0]]]
    by_key = {(b["m"], b["n"]): b for b in d["blocks"]}
    assert len(by_key[(1, 1)]["matrix"]) == 4


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


def test_dephase_rejects_non_density():
    s = SectorStructure(1)
    with pytest.raises(NotDensityOperatorError):
        parity_dephase(2 * np.eye(3), s)
    with pytest.raises(NotDensityOperatorError):
        photon_number_dephase(2 * np.eye(3), s)
