"""End-to-end acceptance checks for the advertised guarantees.

One test per guarantee, in a fixed order, so the -v report reads as a
checklist. Multi-clause guarantees collect every clause before failing,
which makes a red line self-explanatory: the message lists each unmet
clause together with the computed value.
"""

import numpy as np

from photonpad.channels import choi_block, parity_dephase
from photonpad.designs import (
    clifford12_ensemble,
    frame_potential,
    haar_frame_potential,
    is_k_design,
    key_length,
    pauli_ensemble,
)
from photonpad.fock import PolarizationSpec, SectorStructure, SourceSpec, build_source_state
from photonpad.linalg import trace_norm
from photonpad.security import (
    _APPENDIX_A,
    Classification,
    leakage,
    reproduce_appendix_b,
    security_report,
)
from photonpad.su2 import HaarQuadrature, _multiplicity, block_lift, haar_choi, lift_symmetric

from conftest import antisymmetric_identity_check, apply_choi, random_density, random_state, random_unitary


def _require(failures, condition, message):
    if not condition:
        failures.append(message)


def test_appendix_a_choi_block_reproduction():
    computed = choi_block(clifford12_ensemble(), 2, 1)
    reference = _APPENDIX_A
    assert np.abs(computed - reference).max() <= 1e-12
    assert abs(np.linalg.norm(computed) ** 2 - 0.5) <= 1e-12


def test_appendix_b_encrypted_state_reproduction(rng):
    result = reproduce_appendix_b(0.6, 0.8, 0.6)
    s = SectorStructure(2)
    expected = np.zeros((6, 6), dtype=complex)
    expected[0, 0] = 0.36
    expected += 0.64 * s.projector(2) / 3
    assert np.abs(result.output - expected).max() <= 1e-12
    for _ in range(20):
        v = random_state(rng, 2)
        assert reproduce_appendix_b(0.6, v[0], v[1]).deviation <= 1e-12


def test_antisymmetric_singlet_identity():
    assert antisymmetric_identity_check() <= 1e-12


def test_haar_oracle_consistency(rng):
    s = SectorStructure(3)
    quad = HaarQuadrature(3)

    lifts = [block_lift(u, s) for u in quad.unitaries]

    def twirl(rho):
        return sum(w * big @ rho @ big.conj().T for big, w in zip(lifts, quad.weights))

    for _ in range(10):
        rho = random_density(rng, s.total_dim)
        assert np.abs(twirl(rho) - apply_choi(haar_choi(s), rho)).max() <= 1e-8

    vecs = np.stack([big.reshape(-1) for big in lifts])
    assert np.abs(np.einsum("j,ja,jb->ab", quad.weights, vecs, vecs.conj()) - haar_choi(s)).max() <= 1e-8


def test_design_certification():
    failures = []
    cl = clifford12_ensemble()
    pauli = pauli_ensemble()

    # clifford12 is a group (up to phases), so F_k = (1/12) sum_g |tr g|^(2k).
    # Its traces are |tr| = 2 (identity), 0 (the three pi-rotations) and
    # 1 (the eight 2pi/3 rotations, 2 cos(pi/3)), hence F_k = (4^k + 8)/12
    # = 1, 2, 6, 22 for k = 1..4 against the Haar Catalan numbers 1, 2, 5, 14:
    # an exact 2-design whose gap is 1 at k = 3 and 8 at k = 4.
    for k in (1, 2):
        check = is_k_design(cl, k, tol=1e-9)
        _require(
            failures,
            check.passed,
            f"clifford12 expected to pass k={k}: moment deviation {check.moment_deviation:.6g}"
            f" (frame potential {check.frame_potential:.6g}"
            f" vs Haar {check.haar_frame_potential:.6g})",
        )

    third = is_k_design(cl, 3, tol=1e-9)
    _require(failures, not third.passed, "clifford12 expected to fail k=3")
    _require(
        failures,
        abs(third.frame_potential - 6.0) <= 1e-9,
        f"clifford12 third frame potential {third.frame_potential:.12g} != 6",
    )
    _require(
        failures,
        abs(third.moment_deviation - 1.0) <= 1e-9,
        f"clifford12 k=3 moment deviation {third.moment_deviation:.12g} != 1"
        " (the square root of the frame gap 6 - 5)",
    )

    fourth = is_k_design(cl, 4, tol=1e-9)
    _require(failures, not fourth.passed, "clifford12 expected to fail k=4")
    _require(
        failures,
        abs(fourth.frame_gap - 8.0) <= 1e-9,
        f"clifford12 k=4 frame-potential gap {fourth.frame_gap:.12g} != 8 (22 - 14)",
    )

    _require(failures, is_k_design(pauli, 1, tol=1e-9).passed, "pauli expected to pass k=1")
    second = is_k_design(pauli, 2, tol=1e-9)
    _require(failures, not second.passed, "pauli expected to fail k=2")
    _require(
        failures,
        abs(frame_potential(pauli, 2) - 4.0) <= 1e-9,
        f"pauli second frame potential {frame_potential(pauli, 2):.12g} != 4",
    )

    for k, expected in [(1, 1.0), (2, 2.0), (3, 5.0), (4, 14.0)]:
        value = haar_frame_potential(k)
        _require(
            failures,
            abs(value - expected) <= 1e-10,
            f"Haar frame potential k={k}: {value:.12g} != {expected}",
        )

    assert not failures, "unmet guarantees:\n- " + "\n- ".join(failures)


def test_security_classification():
    failures = []
    cl = clifford12_ensemble()

    # The (0,1) block is vec E[U]^dag, so its deviation is ||E[U]||_F. For
    # pauli E[U] = (I + X + Y + Z)/4 and the Paulis are trace-orthogonal, so
    # ||E[U]||_F^2 = 4 * 2 / 16 = 1/2. The diagonal blocks are exact: (0,0)
    # is the scalar 1, and the (1,1) deviation squared is
    # (1/16) sum_ij |tr(P_i P_j)|^2 - 1 = 4 * 4 / 16 - 1 = 0 (a 1-design).
    pauli1 = security_report(pauli_ensemble(), 1, tol=1e-9)
    _require(
        failures,
        pauli1.classification is Classification.PARITY_SECURE,
        f"pauli at max_photons=1 expected PARITY_SECURE, computed"
        f" {pauli1.classification.value} (worst block {pauli1.worst_block} deviates by"
        f" {pauli1.worst_deviation:.6g}; the (0,1) block is the ensemble mean E[U],"
        " which is (I + X + Y + Z)/4, not 0, for pauli)",
    )
    for n in range(2):
        _require(
            failures,
            pauli1.deviation(n, n) <= 1e-9,
            f"pauli diagonal block ({n},{n}) deviation {pauli1.deviation(n, n):.6g} > 1e-9",
        )
    for m, n in ((0, 1), (1, 0)):
        _require(
            failures,
            abs(pauli1.deviation(m, n) - 1 / np.sqrt(2)) <= 1e-9,
            f"pauli block ({m},{n}) deviation {pauli1.deviation(m, n):.12g} != 1/sqrt(2)",
        )

    pauli2 = security_report(pauli_ensemble(), 2, tol=1e-9)
    _require(
        failures,
        pauli2.classification is Classification.INSECURE,
        f"pauli at max_photons=2 expected INSECURE, computed {pauli2.classification.value}",
    )

    # A 2-design depolarizes every sector up to 2 photons, so all same-parity
    # blocks vanish. The (2,1) deviation squared is
    # sum_ij q_i q_j chi_1(U_i^dag U_j) conj(chi_1/2(U_i^dag U_j)). Only i = j
    # contributes: off the diagonal U_i^dag U_j is, up to sign, a pi-rotation
    # (chi_1/2 = 0) or a 2pi/3 rotation (chi_1 = |tr|^2 - 1 = 0). That leaves
    # 12 * (3 * 2) / 144 = 1/2.
    cl2 = security_report(cl, 2, tol=1e-9)
    _require(
        failures,
        cl2.classification is Classification.PARITY_SECURE,
        f"clifford12 at max_photons=2 expected PARITY_SECURE, computed"
        f" {cl2.classification.value} (a 2-design depolarizes sectors up to 2 photons)",
    )
    for m in range(3):
        for n in range(3):
            if (m + n) % 2 == 0:
                _require(
                    failures,
                    cl2.deviation(m, n) <= 1e-9,
                    f"max_photons=2 same-parity block ({m},{n}) deviation"
                    f" {cl2.deviation(m, n):.6g} > 1e-9",
                )
    _require(
        failures,
        abs(cl2.deviation(2, 1) - 1 / np.sqrt(2)) <= 1e-9,
        f"block (2,1) deviation {cl2.deviation(2, 1):.12g} != 1/sqrt(2)",
    )

    # Beyond its design order the ensemble leaves a same-parity block
    # undepolarized. The (3,3) deviation squared is
    # (1/12) sum_g |chi_3/2(g)|^2 - 1 with spin-3/2 characters 4, 0, -1 on
    # the identity, the pi- and the 2pi/3 rotations: (16 + 8)/12 - 1 = 1.
    # Since chi_1/2^3 = chi_3/2 + 2 chi_1/2 and the spin-1/2 part is exact,
    # this is also the k = 3 frame gap 6 - 5.
    cl3 = security_report(cl, 3, tol=1e-9)
    _require(
        failures,
        cl3.classification is Classification.INSECURE,
        f"clifford12 at max_photons=3 expected INSECURE, computed"
        f" {cl3.classification.value} (a 2-design leaves the 3-photon sector undepolarized)",
    )
    for m in range(4):
        for n in range(4):
            if (m + n) % 2 == 0 and (m, n) != (3, 3):
                _require(
                    failures,
                    cl3.deviation(m, n) <= 1e-9,
                    f"max_photons=3 same-parity block ({m},{n}) deviation"
                    f" {cl3.deviation(m, n):.6g} > 1e-9",
                )
    _require(
        failures,
        abs(cl3.deviation(3, 3) - 1.0) <= 1e-9,
        f"block (3,3) deviation {cl3.deviation(3, 3):.12g} != 1",
    )
    third_gap = is_k_design(cl, 3, tol=1e-9).frame_gap
    _require(
        failures,
        abs(cl3.deviation(3, 3) - np.sqrt(third_gap)) <= 1e-9,
        f"block (3,3) deviation {cl3.deviation(3, 3):.12g} != sqrt of the k=3 frame gap"
        f" {third_gap:.12g}",
    )

    assert not failures, "unmet guarantees:\n- " + "\n- ".join(failures)


def test_leakage_bounds(rng):
    failures = []

    # polarization is the plaintext: pairs share photon-number amplitudes
    for n in (1, 2, 3):
        s = SectorStructure(n)
        for _ in range(5):
            amps = random_state(rng, n + 1)
            rho_pair = []
            for _ in range(2):
                pol = random_state(rng, 2)
                spec = SourceSpec(PolarizationSpec(pol[0], pol[1]), amps)
                psi = build_source_state(spec, s)
                rho_pair.append(np.outer(psi, psi.conj()))
            value = 0.5 * trace_norm(apply_choi(haar_choi(s), rho_pair[0] - rho_pair[1]))
            _require(
                failures,
                value <= 1e-10,
                f"Haar channel leaked {value:.6g} at max_photons={n}",
            )

    cl = clifford12_ensemble()
    fixed = (0.6, 0.0, 0.8)
    a = SourceSpec(PolarizationSpec(1.0, 0.0), fixed)
    b = SourceSpec(PolarizationSpec(0.0, 1.0), fixed)
    value = leakage(cl, a, b, 2)
    _require(failures, value <= 1e-10, f"fixed-parity sources leaked {value:.6g}")

    mixed = (0.0, 0.6, 0.8)
    a = SourceSpec(PolarizationSpec(1.0, 0.0), mixed)
    b = SourceSpec(PolarizationSpec(0.0, 1.0), mixed)
    plain = leakage(cl, a, b, 2)
    _require(
        failures,
        plain > 1e-3,
        f"mixed-parity orthogonal pair expected to leak > 1e-3, got {plain:.6g}",
    )
    dephased = leakage(cl, a, b, 2, pre_channel=parity_dephase)
    _require(
        failures,
        dephased <= 1e-10,
        f"parity dephasing should stop the leak, got {dephased:.6g}",
    )

    assert not failures, "unmet guarantees:\n- " + "\n- ".join(failures)


def test_representation_properties(rng):
    from test_su2 import closed_form_lift

    unitaries = [random_unitary(rng) for _ in range(50)]
    for i, u in enumerate(unitaries):
        w = unitaries[(i + 1) % len(unitaries)]
        for n in range(6):
            lifted = lift_symmetric(u, n)
            assert np.abs(lifted.conj().T @ lifted - np.eye(n + 1)).max() <= 1e-12
            assert np.abs(lifted - closed_form_lift(u, n)).max() <= 1e-12
            product = lift_symmetric(u @ w, n)
            assert np.abs(product - lifted @ lift_symmetric(w, n)).max() <= 1e-12

    for k in range(1, 9):
        assert sum((n + 1) * _multiplicity(k, n) for n in range(k % 2, k + 1, 2)) == 2**k


def test_key_length_two_bits():
    assert key_length(pauli_ensemble()) == 2.0
