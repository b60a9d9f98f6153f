import json
import sys

import numpy as np
import pytest

from photonpad import su2
from photonpad.channels import choi_block, parity_dephase, photon_number_dephase
from photonpad.designs import WeightedEnsemble, clifford12_ensemble, is_k_design, pauli_ensemble
from photonpad.errors import DimensionError, NormalizationError, NotDensityOperatorError, NotUnitaryError
from photonpad.fock import PolarizationSpec, SectorStructure, SourceSpec, _source_rows, build_source_state
from photonpad.security import (
    AppendixAReference,
    Classification,
    _classify,
    leakage,
    reproduce_appendix_a,
    reproduce_appendix_b,
    security_report,
)
from photonpad.su2 import block_lift, lift_symmetric, sector_lifts

from conftest import antisymmetric_identity_check, random_state, random_unitary


def pauli8_ensemble():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0]).astype(complex)
    us = []
    for u in (np.eye(2), sx, sy, sz):
        us.extend([u, -u])
    return WeightedEnsemble(us, [0.125] * 8, name="pauli8")


def source(alpha, beta, amplitudes):
    return SourceSpec(PolarizationSpec(alpha, beta), amplitudes)


def random_polarization(rng):
    v = random_state(rng, 2)
    return PolarizationSpec(v[0], v[1])


def test_classification_values():
    assert Classification.SECURE.value == "SECURE"
    assert Classification.PARITY_SECURE.value == "PARITY_SECURE"
    assert Classification.INSECURE.value == "INSECURE"


def test_nan_deviation_never_passes():
    assert _classify(np.array([[0.0, np.nan], [np.nan, 0.0]]), 1e-9) is Classification.PARITY_SECURE
    assert _classify(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1e-9) is Classification.INSECURE
    assert _classify(np.zeros((2, 2)), 1e-9) is Classification.SECURE


def test_pauli_single_photon_report():
    rep = security_report(pauli_ensemble(), 1)
    assert rep.classification is Classification.PARITY_SECURE
    assert rep.deviation(0, 0) < 1e-14
    assert rep.deviation(1, 1) < 1e-14
    assert np.isclose(rep.deviation(1, 0), 1 / np.sqrt(2), atol=1e-12)
    assert np.isclose(rep.deviation(0, 1), 1 / np.sqrt(2), atol=1e-12)
    assert rep.worst_block in ((0, 1), (1, 0))
    assert np.isclose(rep.worst_deviation, 1 / np.sqrt(2), atol=1e-12)


def test_pauli_two_photon_report_fails_in_same_parity():
    rep = security_report(pauli_ensemble(), 2)
    assert rep.classification is Classification.INSECURE
    assert np.isclose(rep.deviation(0, 2), np.sqrt(3) / 2, atol=1e-12)
    assert np.isclose(rep.deviation(1, 2), np.sqrt(1.5), atol=1e-12)
    assert np.isclose(rep.deviation(2, 2), np.sqrt(2), atol=1e-12)
    assert rep.worst_block == (2, 2)


def test_clifford12_two_photon_report():
    rep = security_report(clifford12_ensemble(), 2)
    assert rep.classification is Classification.PARITY_SECURE
    for m in range(3):
        for n in range(3):
            if (m + n) % 2 == 0:
                assert rep.deviation(m, n) < 1e-12
    assert np.isclose(rep.deviation(1, 0), np.sqrt(56) / 12, atol=1e-12)
    assert np.isclose(rep.deviation(2, 1), 1 / np.sqrt(2), atol=1e-12)


def test_clifford12_three_photon_report():
    rep = security_report(clifford12_ensemble(), 3)
    assert rep.classification is Classification.INSECURE
    # the three-photon sector itself escapes the depolarizing average
    assert np.isclose(rep.deviation(3, 3), 1.0, atol=1e-12)
    assert rep.deviation(1, 3) < 1e-12
    assert np.isclose(rep.deviation(0, 3), 1 / 3, atol=1e-12)
    # two-photon guarantees survive inside the larger space
    for m in range(3):
        for n in range(3):
            if (m + n) % 2 == 0:
                assert rep.deviation(m, n) < 1e-9


def test_sign_balanced_paulis_secure_single_photon():
    rep = security_report(pauli8_ensemble(), 1)
    assert rep.classification is Classification.SECURE
    assert rep.worst_deviation < 1e-14


@pytest.mark.parametrize("size", [2, 5, 9])
def test_deviation_table_is_exactly_symmetric(rng, size):
    weights = rng.random(size) + 0.1
    e = WeightedEnsemble([random_unitary(rng) for _ in range(size)], weights / weights.sum())
    rep = security_report(e, 4)
    assert np.array_equal(rep.deviations, rep.deviations.T)
    # the mirrored entries are the norms of the blocks that were not computed: C_nm = C_mn^dag
    for m in range(5):
        for n in range(m):
            assert abs(rep.deviation(m, n) - np.linalg.norm(choi_block(e, m, n))) <= 1e-13


def test_worst_block_is_not_decided_by_rounding():
    # (7, 8) and (8, 7) deviate equally in exact arithmetic; the upper-triangle block is reported
    rep = security_report(clifford12_ensemble(), 8)
    assert rep.worst_block == (7, 8)
    assert rep.deviation(7, 8) == rep.deviation(8, 7) == rep.worst_deviation


def test_report_tolerance_rescales_classification():
    rep = security_report(pauli_ensemble(), 1, tol=1.0)
    assert rep.classification is Classification.SECURE
    assert rep.tol == 1.0


def test_report_json_schema():
    rep = security_report(pauli_ensemble(), 1)
    d = json.loads(json.dumps(rep.to_json_dict()))
    assert d["ensemble"] == "pauli"
    assert d["max_photons"] == 1
    assert d["classification"] == "PARITY_SECURE"
    assert d["worst_block"] == [0, 1] or d["worst_block"] == [1, 0]
    assert np.isclose(d["worst_deviation"], 1 / np.sqrt(2))
    assert len(d["blocks"]) == 4
    entry = d["blocks"][0]
    assert set(entry) == {"m", "n", "deviation"}


def test_leakage_pure_single_photon_is_private():
    amps = (0.0, 1.0)
    val = leakage(pauli_ensemble(), source(1, 0, amps), source(0, 1, amps), 1)
    assert val < 1e-14


def test_leakage_vacuum_photon_coherence_pauli():
    amps = (0.6, 0.8)
    val = leakage(pauli_ensemble(), source(1, 0, amps), source(0, 1, amps), 1)
    assert np.isclose(val, 0.24, atol=1e-12)


def test_leakage_mixed_parity_two_photons():
    amps = (0.0, 0.6, 0.8)
    val = leakage(clifford12_ensemble(), source(1, 0, amps), source(0, 1, amps), 2)
    assert np.isclose(val, 0.3417246728111771, atol=1e-12)


def test_leakage_fixed_parity_two_photons():
    amps = (0.6, 0.0, 0.8)
    val = leakage(clifford12_ensemble(), source(1, 0, amps), source(0, 1, amps), 2)
    assert val < 1e-12


def test_leakage_vanishes_after_parity_dephasing():
    amps = (0.0, 0.6, 0.8)
    val = leakage(
        clifford12_ensemble(),
        source(1, 0, amps),
        source(0, 1, amps),
        2,
        pre_channel=parity_dephase,
    )
    assert val < 1e-14


def test_leakage_dephasing_cannot_fix_three_photons():
    # same-parity leak: generic polarizations see a non-depolarizing
    # three-photon average, and parity dephasing does not touch it
    amps = (0.0, 0.0, 0.0, 1.0)
    a = source(1.0, 0.0, amps)
    b = source(0.8, 0.48 + 0.36j, amps)
    plain = leakage(clifford12_ensemble(), a, b, 3)
    dephased = leakage(clifford12_ensemble(), a, b, 3, pre_channel=parity_dephase)
    assert np.isclose(plain, 0.10726853922996815, atol=1e-12)
    assert np.isclose(dephased, plain, atol=1e-14)


def test_secure_ensemble_leaks_nothing(rng):
    amps = (0.6, 0.8)
    e = pauli8_ensemble()
    for _ in range(5):
        a = SourceSpec(random_polarization(rng), amps)
        b = SourceSpec(random_polarization(rng), amps)
        assert leakage(e, a, b, 1) < 1e-12


def dense_leakage(ensemble, a, b, max_photons, pre_channel):
    """Oracle: encrypt each source with dense block lifts, then sum |eigenvalues| of the difference."""
    s = SectorStructure(max_photons)
    lifts = [block_lift(u, s) for u in ensemble.unitaries]
    outputs = []
    for src in (a, b):
        psi = build_source_state(src, s)
        rho = np.outer(psi, psi.conj())
        if pre_channel is not None:
            rho = pre_channel(rho, s)
        outputs.append(sum(w * lift @ rho @ lift.conj().T for w, lift in zip(ensemble.weights, lifts)))
    return 0.5 * np.abs(np.linalg.eigvalsh(outputs[0] - outputs[1])).sum()


@pytest.mark.parametrize("size", [1, 5, 24])
def test_leakage_matches_dense_two_encryption_oracle(rng, size):
    weights = rng.random(size) + 0.1
    e = WeightedEnsemble([random_unitary(rng) for _ in range(size)], weights / weights.sum())
    for max_photons in range(1, 9):
        amps = random_state(rng, max_photons + 1)
        a = SourceSpec(random_polarization(rng), tuple(amps))
        b = SourceSpec(random_polarization(rng), tuple(random_state(rng, max_photons)))
        for pre in (None, parity_dephase, photon_number_dephase):
            expected = dense_leakage(e, a, b, max_photons, pre)
            assert abs(leakage(e, a, b, max_photons, pre_channel=pre) - expected) <= 1e-13


@pytest.mark.parametrize("max_photons", [10, 12, 20])
def test_leakage_matches_dense_oracle_past_cli_cap(rng, max_photons):
    weights = rng.random(6) + 0.1
    e = WeightedEnsemble([random_unitary(rng) for _ in range(6)], weights / weights.sum())
    a = SourceSpec(random_polarization(rng), tuple(random_state(rng, max_photons + 1)))
    b = SourceSpec(random_polarization(rng), tuple(random_state(rng, max_photons + 1)))
    for pre in (None, parity_dephase, photon_number_dephase):
        expected = dense_leakage(e, a, b, max_photons, pre)
        assert abs(leakage(e, a, b, max_photons, pre_channel=pre) - expected) <= 1e-13


def lifted_rotation(u):
    """A pre-channel outside the package: conjugation by the block lift of a fixed unitary."""

    def rotate(rho, structure):
        lift = block_lift(u, structure)
        return lift @ rho @ lift.conj().T

    return rotate


def test_leakage_with_user_pre_channel(rng):
    rotate = lifted_rotation(random_unitary(rng))
    e = WeightedEnsemble([random_unitary(rng) for _ in range(5)], [0.2] * 5)
    for max_photons in (1, 4, 9):
        a = SourceSpec(random_polarization(rng), tuple(random_state(rng, max_photons + 1)))
        b = SourceSpec(random_polarization(rng), tuple(random_state(rng, max_photons + 1)))
        expected = dense_leakage(e, a, b, max_photons, rotate)
        assert abs(leakage(e, a, b, max_photons, pre_channel=rotate) - expected) <= 1e-13


@pytest.mark.parametrize(
    "pre_channel, message",
    [
        (lambda rho, s: 2 * rho, "trace"),
        (lambda rho, s: 1.5 * rho - 0.5 * np.eye(s.total_dim) / s.total_dim, "negative eigenvalue"),
        (lambda rho, s: rho[:-1, :-1], "expected shape"),
    ],
)
def test_leakage_rejects_non_density_pre_channel(pre_channel, message):
    amps = (0.6, 0.0, 0.8)
    with pytest.raises(NotDensityOperatorError, match=f"^{message}"):
        leakage(clifford12_ensemble(), source(1, 0, amps), source(0, 1, amps), 2, pre_channel=pre_channel)


def test_leakage_checks_the_plaintext_vector_past_its_norm_tolerance():
    # |alpha|^2 = 1 + 9.9e-13 passes the polarization check, but ||v||^2 - 1 is about 1.5e-10 at n = 150
    amps = (0.0,) * 150 + (1.0,)
    a = source(np.sqrt(1 + 9.9e-13), 0, amps)
    b = source(0, 1, amps)
    with pytest.raises(NotDensityOperatorError, match="^trace"):
        leakage(pauli_ensemble(), a, b, 150, pre_channel=photon_number_dephase)


def test_leakage_lifts_only_for_other_pre_channels(monkeypatch, rng):
    original = su2._lift_sweep
    calls = []

    def counted(us, top):
        calls.append(top)
        return original(us, top)

    for name, module in list(sys.modules.items()):
        if name.startswith("photonpad") and getattr(module, "_lift_sweep", None) is original:
            monkeypatch.setattr(module, "_lift_sweep", counted)
    e = WeightedEnsemble([random_unitary(rng) for _ in range(5)], [0.2] * 5)
    a = SourceSpec(random_polarization(rng), tuple(random_state(rng, 5)))
    b = SourceSpec(random_polarization(rng), tuple(random_state(rng, 5)))
    for pre in (None, parity_dephase, photon_number_dephase):
        leakage(e, a, b, 4, pre_channel=pre)
    assert calls == []
    leakage(e, a, b, 4, pre_channel=lifted_rotation(random_unitary(rng)))
    assert len(calls) >= 1


@pytest.mark.parametrize("size", [1, 5, 24])
def test_rotated_source_rows_are_lifted_source(rng, size):
    # L_n(U)|phi_n(p)> = |phi_n(Up)> for every U(2) element, not only determinant one
    us = np.stack([random_unitary(rng) for _ in range(size)])
    assert np.abs(np.linalg.det(us) - 1).max() > 1e-3
    for max_photons in range(13):
        s = SectorStructure(max_photons)
        src = SourceSpec(random_polarization(rng), tuple(random_state(rng, max_photons + 1)))
        p = np.array([src.polarization.alpha, src.polarization.beta])
        rows = _source_rows(src, us @ p, s)
        v = build_source_state(src, s)
        for n, lift in enumerate(sector_lifts(us, max_photons)):
            sl = s.sector_slice(n)
            assert np.abs(rows[:, sl] - lift @ v[sl]).max() <= 1e-14


def test_leakage_rejects_oversized_source():
    amps = (0.0, 0.0, 1.0)
    with pytest.raises(DimensionError):
        leakage(pauli_ensemble(), source(1, 0, amps), source(0, 1, amps), 1)


def test_ensemble_is_validated_once(monkeypatch, rng):
    original = su2._check_qubit_unitaries
    calls = []

    def counted(us):
        calls.append(1)
        return original(us)

    for name, module in list(sys.modules.items()):
        if name.startswith("photonpad") and getattr(module, "_check_qubit_unitaries", None) is original:
            monkeypatch.setattr(module, "_check_qubit_unitaries", counted)
    e = WeightedEnsemble(np.stack([random_unitary(rng) for _ in range(5)]), np.full(5, 0.2))
    assert len(calls) == 1
    security_report(e, 8)
    choi_block(e, 2, 1)
    is_k_design(e, 4)
    a = source(1, 0, [0.6] + [0.8 / np.sqrt(8)] * 8)
    b = source(0, 1, [0.6] + [0.8 / np.sqrt(8)] * 8)
    leakage(e, a, b, 8)
    assert len(calls) == 1
    bad = np.array([[1.0, 0.1], [0.0, 1.0]])
    for lift in (lambda: sector_lifts(bad[None], 2), lambda: lift_symmetric(bad, 2),
                 lambda: block_lift(bad, SectorStructure(2))):
        with pytest.raises(NotUnitaryError):
            lift()
    assert len(calls) == 4


def test_appendix_a_reference_pattern():
    ref = AppendixAReference()
    mat = ref.matrix()
    assert mat.shape == (9, 4)
    assert np.count_nonzero(np.abs(mat) > 1e-14) == 16
    assert np.isclose(ref.checksum, 0.5, atol=1e-14)
    assert np.isclose(np.linalg.norm(mat) ** 2, ref.checksum, atol=1e-14)
    assert mat[0, 0] == (3 + 1j) / 12
    assert mat[8, 3] == (3 - 1j) / 12


def test_reproduce_appendix_a():
    result = reproduce_appendix_a()
    assert result.passed
    assert result.nonzero
    assert result.max_deviation < 1e-12
    assert np.isclose(result.checksum, 0.5, atol=1e-12)
    assert result.checksum_deviation < 1e-12
    d = result.to_json_dict()
    assert d["passed"] is True
    assert len(d["computed"]) == 9
    assert len(d["computed"][0]) == 4


def test_reproduce_appendix_b_closed_form():
    result = reproduce_appendix_b(0.6, 0.8, 0.6)
    assert result.passed
    assert result.deviation < 1e-12
    s = SectorStructure(2)
    expected = 0.36 * np.diag([1.0, 0, 0, 0, 0, 0]) + 0.64 * s.projector(2) / 3
    assert np.abs(result.reference - expected).max() < 1e-14


def test_reproduce_appendix_b_extremes():
    s = SectorStructure(2)
    vac = reproduce_appendix_b(1.0, 1.0, 0.0)
    assert np.abs(vac.output - np.diag([1.0, 0, 0, 0, 0, 0])).max() < 1e-12
    full = reproduce_appendix_b(0.0, 1.0, 0.0)
    assert np.abs(full.output - s.projector(2) / 3).max() < 1e-12


def test_reproduce_appendix_b_complex_amplitude_and_random_polarizations(rng):
    assert reproduce_appendix_b(0.6j, 0.8, 0.6).deviation < 1e-12
    for _ in range(5):
        pol = random_polarization(rng)
        assert reproduce_appendix_b(0.6, pol.alpha, pol.beta).deviation < 1e-12


def test_reproduce_appendix_b_validation():
    with pytest.raises(NormalizationError):
        reproduce_appendix_b(1.5, 1.0, 0.0)
    with pytest.raises(NormalizationError):
        reproduce_appendix_b(0.6, 1.0, 1.0)


def test_antisymmetric_identity():
    assert antisymmetric_identity_check() < 1e-12
