import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from photonpad import su2
from photonpad.channels import apply_channel, choi_block, parity_dephase, photon_number_dephase
from photonpad.designs import WeightedEnsemble, clifford12_ensemble, is_k_design, pauli_ensemble
from photonpad.errors import DimensionError, NormalizationError, NotUnitaryError, SectorRangeError
from photonpad.fock import PolarizationSpec, SectorStructure, SourceSpec, _source_rows, build_source_state
from photonpad.security import (
    _APPENDIX_A,
    _APPENDIX_A_CHECKSUM,
    Classification,
    SecurityReport,
    _classify,
    leakage,
    reproduce_appendix_a,
    reproduce_appendix_b,
    security_report,
)
from photonpad.su2 import HaarQuadrature, block_lift, lift_symmetric, sector_lifts

from conftest import (antisymmetric_identity_check, exact_squared_deviations, pauli8_ensemble, random_ensemble,
                      random_source, random_state, random_unitary)


def source(alpha, beta, amplitudes):
    return SourceSpec(PolarizationSpec(alpha, beta), amplitudes)


def random_polarization(rng):
    v = random_state(rng, 2)
    return PolarizationSpec(v[0], v[1])


def test_classification_values():
    assert Classification.SECURE.value == "SECURE"
    assert Classification.PARITY_SECURE.value == "PARITY_SECURE"
    assert Classification.INSECURE.value == "INSECURE"


def twisted(ensemble, seed):
    """The copy V U_j W for seeded random unitaries V, W: every U_i^dag U_j keeps its trace and determinant."""
    rng = np.random.default_rng(seed)
    v, w = random_unitary(rng), random_unitary(rng)
    return WeightedEnsemble(v @ ensemble.unitaries @ w, ensemble.weights, name=f"{ensemble.name}-twisted")


EXACT_ENSEMBLES = [pauli_ensemble(), clifford12_ensemble()]
# (ensemble, top, bound on the blocks that vanish exactly). The twisted copies
# have dense lifts, whose zero blocks round to about 1.1e-15 where the sparse
# lifts of pauli and clifford12 stay below 1e-15.
CHARACTER_ORACLE_CASES = [
    *[pytest.param(e, top, 1e-15, id=f"{e.name}-{top}") for top in (8, 16, 24) for e in EXACT_ENSEMBLES],
    *[pytest.param(twisted(e, 5), 16, 4e-15, id=f"{e.name}-twisted-16") for e in EXACT_ENSEMBLES],
]


@pytest.mark.parametrize("ensemble, top, zero_bound", CHARACTER_ORACLE_CASES)
def test_security_report_matches_exact_character_oracle(ensemble, top, zero_bound):
    exact = exact_squared_deviations(ensemble, top)
    report = security_report(ensemble, top)
    fails = []
    for m in range(top + 1):
        for n in range(top + 1):
            if exact[m][n] == 0:
                assert report.deviations[m, n] <= zero_bound, (m, n)
            else:
                assert abs(report.deviations[m, n] - math.sqrt(exact[m][n])) <= 1e-13, (m, n)
            if exact[m][n] > Fraction(report.tol) ** 2:
                fails.append((m, n))
    if not fails:
        expected = Classification.SECURE
    elif all((m - n) % 2 for m, n in fails):
        expected = Classification.PARITY_SECURE
    else:
        expected = Classification.INSECURE
    assert report.classification is expected


VERDICTS = {
    "security_report": lambda tol: security_report(pauli_ensemble(), 3, tol),
    "is_k_design": lambda tol: is_k_design(pauli_ensemble(), 3, tol),
    "reproduce_appendix_a": reproduce_appendix_a,
    "reproduce_appendix_b": lambda tol: reproduce_appendix_b(0.6, 0.8, 0.6, tol),
}


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9, True, "1e-9", 0.5, 1.0, 1e300])
@pytest.mark.parametrize("verdict", VERDICTS)
def test_verdicts_refuse_a_tolerance_that_decides_nothing(verdict, tol):
    # An infinite tolerance used to make pauli SECURE at N = 3 and a 3-design, and
    # 1.0 made it SECURE at N = 1: every tolerance above 1e-3 is refused, as on the command line.
    with pytest.raises(ValueError, match=r"^tol must be a number in \(0, 0.001\], got "):
        VERDICTS[verdict](tol)


@pytest.mark.parametrize("verdict", VERDICTS)
def test_verdicts_record_the_tolerance_they_decide_with(verdict):
    for tol in (np.float32(1e-4), np.float64(1e-3)):
        result = VERDICTS[verdict](tol)
        assert type(result.tol) is float and result.tol == float(tol)
        if verdict == "security_report":
            assert result.classification is _classify(result.deviations, result.tol)


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
    # (7, 8), (8, 7) and (8, 8) deviate by sqrt(6) in exact arithmetic; the first in row-major order is reported
    rep = security_report(clifford12_ensemble(), 8)
    assert rep.worst_block == (7, 8)
    assert rep.deviation(7, 8) == rep.deviation(8, 7) == rep.worst_deviation
    # pauli's Delta_23 = Delta_33 = sqrt(3) at N = 3, which rounding once reported as (3, 3)
    rep = security_report(pauli_ensemble(), 3)
    assert rep.worst_block == (2, 3)
    assert abs(rep.worst_deviation - math.sqrt(3)) <= 1e-15


@pytest.mark.parametrize("top", range(1, 9))
def test_worst_block_is_the_first_exact_maximum(top):
    for ensemble in (pauli_ensemble(), clifford12_ensemble()):
        exact = exact_squared_deviations(ensemble, top)
        largest = max(max(row) for row in exact)
        first = next((m, n) for m in range(top + 1) for n in range(top + 1) if exact[m][n] == largest)
        rep = security_report(ensemble, top)
        assert rep.worst_block == first
        assert rep.worst_deviation == rep.deviation(*first)


def report_on(table):
    """A report on a given deviation table, with no ensemble behind it."""
    return SecurityReport("table", table.shape[0] - 1, 1e-9, table, _classify(table, 1e-9))


@pytest.mark.parametrize("ulps", [-4, -1, 1, 4])
def test_worst_block_ignores_a_few_ulps_between_tied_blocks(ulps):
    # The later tied blocks are moved a few ulps above or below the first one, which is still reported.
    table = np.array([[0.5, 1.0, 0.25], [1.0, 0.75, 1.0], [0.25, 1.0, 1.0]]) * math.sqrt(3)
    tied = table[0, 1]
    for _ in range(abs(ulps)):
        tied = np.nextafter(tied, np.inf if ulps > 0 else 0.0)
    table[1, 2] = table[2, 1] = table[2, 2] = tied
    table.setflags(write=False)
    rep = report_on(table)
    assert rep.worst_block == (0, 1)
    assert rep.worst_deviation == table[0, 1]
    # a block larger by more than rounding is the worst one wherever it sits
    bigger = table.copy()
    bigger[2, 2] *= 1 + 1e-9
    assert report_on(bigger).worst_block == (2, 2)


def test_worst_block_of_a_nan_table_is_its_first_nan():
    table = np.array([[0.0, 1.0], [np.nan, np.nan]])
    rep = report_on(table)
    assert rep.worst_block == (1, 0)
    assert math.isnan(rep.worst_deviation)



def test_admitted_weight_slack_decides_no_verdict():
    # Weights times (1 + 9e-13) are admitted and stored divided by their sum; kept as given, they would
    # make Delta_00 = 9e-13 (INSECURE at tol 1e-13) and the k = 2 deviation 1.3e-12.
    exact = clifford12_ensemble()
    e = WeightedEnsemble(exact.unitaries, exact.weights * (1 + 9e-13), name="clifford12")
    report = security_report(e, 2, tol=1e-13)
    assert report.classification is Classification.PARITY_SECURE
    assert report.deviation(0, 0) <= 1e-15
    assert np.abs(report.deviations - security_report(exact, 2).deviations).max() <= 1e-15
    assert is_k_design(e, 2, tol=1e-13).passed


def test_report_tolerance_rescales_classification():
    # The nodes of HaarQuadrature(1) are an exact 1-design, SECURE at N = 1; one node
    # rotated by 1e-5 moves every block by about 1e-6, between the two tolerances.
    quad = HaarQuadrature(1)
    us = quad.unitaries.copy()
    us[0] = us[0] @ np.array([[np.cos(1e-5), -np.sin(1e-5)], [np.sin(1e-5), np.cos(1e-5)]])
    e = WeightedEnsemble(us, quad.weights)
    assert 1e-9 < security_report(e, 1).worst_deviation <= 1e-3
    assert security_report(e, 1).classification is Classification.INSECURE
    rep = security_report(e, 1, tol=1e-3)
    assert rep.classification is Classification.SECURE
    assert rep.tol == 1e-3


@pytest.mark.parametrize("m, n", [(-1, 0), (True, 0), (3, 0), (0, 3), (1.0, 0), (0, "1")])
def test_report_deviation_takes_only_its_sectors(m, n):
    # a negative index, a bool or a float would read some other block, and one past max_photons none
    report = security_report(pauli_ensemble(), 2)
    with pytest.raises(SectorRangeError, match=r"^sector must be an int in \[0, 2\], got "):
        report.deviation(m, n)
    assert report.deviation(np.int64(2), 0) == report.deviations[2, 0]
    assert abs(report.deviation(2, 0) - math.sqrt(3) / 2) <= 1e-15


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


# (size, max_photons, pre-channel, route). Groups of at most 12 states share one
# batched eigensolve ("stacked"), wider ones are solved alone ("alone"), and a
# group wider than its 2s rows plus 16 is solved from its 2s x 2s QR core ("core").
LEAKAGE_ROUTES = [
    (24, 20, photon_number_dephase, "stacked"),
    (24, 12, parity_dephase, "alone"),
    (1, 8, None, "core"),
    (1, 8, parity_dephase, "core"),
    (1, 20, None, "core"),
    (1, 20, parity_dephase, "core"),
    (4, 8, None, "core"),
    (4, 8, parity_dephase, "core"),
    (4, 20, None, "core"),
    (4, 20, parity_dephase, "core"),
]


def route_taken(shapes, rows, route):
    if route == "stacked":
        return any(len(shape) == 3 for shape in shapes)
    if route == "alone":
        return any(len(shape) == 2 and shape[0] > rows for shape in shapes)
    return (rows, rows) in shapes


@pytest.mark.parametrize("size, max_photons, pre_channel, route", LEAKAGE_ROUTES)
def test_leakage_routes_match_dense_oracle(rng, eigensolves, size, max_photons, pre_channel, route):
    e = random_ensemble(rng, size)
    a, b = random_source(rng, max_photons), random_source(rng, max_photons)
    expected = dense_leakage(e, a, b, max_photons, pre_channel)
    eigensolves.clear()
    assert abs(leakage(e, a, b, max_photons, pre_channel=pre_channel) - expected) <= 1e-13
    assert route_taken(eigensolves, 2 * size, route), eigensolves


@pytest.mark.parametrize("max_photons", [3, 8, 12])
def test_leakage_with_repeated_rows_matches_dense_oracle(rng, max_photons):
    # Pauli elements send H to H, V, iV, H and V to V, H, -iH, -V, so in each
    # sector the 8 rows span only the H and V states: W has rank 5 of 8 (2 per
    # photon-number group), and the QR cores at N = 8 and 12 are singular
    e = pauli_ensemble()
    a = source(1.0, 0.0, tuple(random_state(rng, max_photons + 1)))
    b = source(0.0, 1.0, tuple(random_state(rng, max_photons + 1)))
    for pre in (None, parity_dephase, photon_number_dephase):
        expected = dense_leakage(e, a, b, max_photons, pre)
        assert abs(leakage(e, a, b, max_photons, pre_channel=pre) - expected) <= 1e-13


@pytest.mark.parametrize("size", [1, 4, 24])
def test_leakage_of_a_source_against_itself_is_rounding(rng, size):
    e = random_ensemble(rng, size)
    for max_photons in (2, 8, 20, 30):
        a = random_source(rng, max_photons)
        for pre in (None, parity_dephase, photon_number_dephase):
            assert leakage(e, a, a, max_photons, pre_channel=pre) <= 1e-14


@pytest.mark.parametrize("pre_channel", [None, parity_dephase])
def test_wide_leakage_groups_are_solved_from_their_core(rng, eigensolves, pre_channel):
    # D = 496 at N = 30, in parity groups of 256 and 240 states; s = 4 gives 2s = 8 rows
    e = random_ensemble(rng, 4)
    leakage(e, random_source(rng, 30), random_source(rng, 30), 30, pre_channel=pre_channel)
    assert eigensolves and max(shape[-1] for shape in eigensolves) <= 8


def test_photon_number_leakage_is_one_eigensolve(rng, eigensolves):
    # nine photon-number groups of at most nine states share one batched call
    leakage(random_ensemble(rng, 4), random_source(rng, 8), random_source(rng, 8), 8, photon_number_dephase)
    assert len(eigensolves) == 1


def lifted_rotation(u):
    """A pre-channel outside the package: conjugation by the block lift of a fixed unitary."""

    def rotate(rho, structure):
        lift = block_lift(u, structure)
        return lift @ rho @ lift.conj().T

    return rotate


def test_leakage_takes_only_the_package_dephasers(lift_sweeps, rng):
    # a pre-channel is matched by identity, so a lambda doing what parity_dephase does is refused too
    e = WeightedEnsemble([random_unitary(rng) for _ in range(5)], [0.2] * 5)
    a = SourceSpec(random_polarization(rng), tuple(random_state(rng, 5)))
    b = SourceSpec(random_polarization(rng), tuple(random_state(rng, 5)))
    for pre in (lifted_rotation(random_unitary(rng)), lambda rho, s: parity_dephase(rho, s), "parity"):
        with pytest.raises(TypeError, match="^pre_channel must be None, parity_dephase or photon_number_dephase"):
            leakage(e, a, b, 4, pre_channel=pre)
    for pre in (None, parity_dephase, photon_number_dephase):
        leakage(e, a, b, 4, pre_channel=pre)
    assert lift_sweeps == []


def test_leakage_accepts_the_plaintext_vector_past_its_norm_tolerance():
    # |alpha|^2 = 1 + 9.9e-13 passes the polarization check, which stores it exact: unscaled, ||v||^2 - 1
    # would be about 1.5e-10 at n = 150, and the leakage would not be that of the exact source
    amps = (0.0,) * 150 + (1.0,)
    b = source(0, 1, amps)
    near, exact = (leakage(pauli_ensemble(), source(alpha, 0, amps), b, 150, pre_channel=photon_number_dephase)
                   for alpha in (np.sqrt(1 + 9.9e-13), 1.0))
    assert abs(near - exact) <= 1e-14


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


@pytest.mark.parametrize("photons", [60, 99, 100, 120, 150])
def test_rotated_source_rows_past_the_power_switch(rng, photons):
    # numpy's complex power switches from repeated squaring to exp/log at
    # exponent 100; rows of a pure N-photon source stay on the lift either side
    us = np.stack([random_unitary(rng) for _ in range(10)])
    s = SectorStructure(photons)
    sl = s.sector_slice(photons)
    src = SourceSpec(random_polarization(rng), (0.0,) * photons + (1.0,))
    p = np.array([src.polarization.alpha, src.polarization.beta])
    lifted = sector_lifts(us, photons)[photons] @ build_source_state(src, s)[sl]
    assert np.abs(_source_rows(src, us @ p, s)[:, sl] - lifted).max() <= 5e-14


@pytest.mark.parametrize("photons", [100, 120, 150])
def test_source_rows_take_powers_by_repeated_products(rng, photons):
    # Repeated products keep the rows within 2.4e-15 of the lift here; exp/log
    # powers from exponent 100 on read 4.8e-15 at 150 photons
    us = np.stack([random_unitary(rng) for _ in range(4)])
    s = SectorStructure(photons)
    sl = s.sector_slice(photons)
    src = SourceSpec(PolarizationSpec(0.6, 0.8j), (0.0,) * photons + (1.0,))
    lifted = sector_lifts(us, photons)[photons] @ build_source_state(src, s)[sl]
    assert np.abs(_source_rows(src, us @ np.array([0.6, 0.8j]), s)[:, sl] - lifted).max() <= 4e-15


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
    mat = _APPENDIX_A
    assert mat.shape == (9, 4)
    assert not mat.flags.writeable
    assert np.count_nonzero(np.abs(mat) > 1e-14) == 16
    assert np.isclose(_APPENDIX_A_CHECKSUM, 0.5, atol=1e-14)
    assert np.isclose(np.linalg.norm(mat) ** 2, _APPENDIX_A_CHECKSUM, atol=1e-14)
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
    # |c|^2 - 1 is held to NORM_TOL, as SourceSpec holds it, so SourceSpec's message never fires first
    with pytest.raises(NormalizationError, match=r"^\|c\| = 1\.0000000000009 exceeds 1$"):
        reproduce_appendix_b(1 + 9e-13, 1.0, 0.0)
    assert reproduce_appendix_b(1 + 4e-13, 1.0, 0.0).passed
    # c takes the amplitudes' number rule, so "0.6" and True are not read as 0.6 and 1
    for c in ("0.6", True, None):
        with pytest.raises(NormalizationError, match="^c must be numbers, got dtype "):
            reproduce_appendix_b(c, 0.8, 0.6)
    with pytest.raises(NormalizationError, match=r"^c must be one number, got shape \(1,\)$"):
        reproduce_appendix_b([0.6], 0.8, 0.6)


def test_reproduce_appendix_b_matches_the_reference_channel(lift_sweeps, rng):
    # the encrypted source rows against the mixed-state channel on the same plaintext
    structure = SectorStructure(2)
    for _ in range(200):
        c = np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        pol = random_polarization(rng)
        output = reproduce_appendix_b(c, pol.alpha, pol.beta).output
        assert lift_sweeps == []
        vec = build_source_state(SourceSpec(pol, (c, 0.0, np.sqrt(1.0 - abs(c) ** 2))), structure)
        expected = apply_channel(clifford12_ensemble(), structure, np.outer(vec, vec.conj()))
        assert np.abs(output - expected).max() <= 1e-15
        lift_sweeps.clear()


def test_antisymmetric_identity():
    assert antisymmetric_identity_check() < 1e-12
