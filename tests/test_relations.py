"""Oracles that need no second implementation: metamorphic relations and the paper's theorem.

The relations change an ensemble or a source in ways that provably leave the
answer unchanged. Twisting every element to V U_j W, conjugating or
transposing every element, permuting the elements or splitting one into two
copies of half its weight leaves every Choi-block deviation unchanged, and
leakage(V e W, a, b) = leakage(e, W a, W b) with W acting on the sources'
polarization. Each relation is checked on hypothesis-drawn small inputs and
at one fixed large size.

The theorem: a unitary K-design encrypts every pulse of at most K photons
perfectly, and at K + 1 photons it leaks only through coherences between
neighbouring photon numbers. The nodes of ``HaarQuadrature(K)`` form an exact
K-design, so its report is SECURE at N = K and PARITY_SECURE at N = K + 1, and
its leakage is the photon-number total variation distance wherever no such
coherence survives.

Two relations join the verdicts. The deviation table brackets the leakage:
TV_n <= leakage <= TV_n + lambda_max(D), TV_n the photon-number total
variation distance and D_mn = sqrt(min(m, n) + 1) Delta_mn over the blocks the
pre-channel keeps. And the design order bounds the table: a t-design whose
elements all have determinant one has Delta_mn = 0 on every same-parity block
with m + n <= 2t.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpad.channels import parity_dephase, photon_number_dephase
from photonpad.designs import WeightedEnsemble, clifford12_ensemble, is_k_design, pauli_ensemble
from photonpad.fock import PolarizationSpec, SourceSpec
from photonpad.security import Classification, leakage, security_report
from photonpad.su2 import HaarQuadrature

from conftest import random_ensemble, random_source, random_unitary

PRE_CHANNELS = [None, parity_dephase, photon_number_dephase]
SMALL = settings(derandomize=True, database=None, deadline=None, max_examples=15)
SMALL_INPUTS = given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6), top=st.integers(0, 6))


def rotated(source, w):
    """The source with its polarization p replaced by W p."""
    p = w @ [source.polarization.alpha, source.polarization.beta]
    return SourceSpec(PolarizationSpec(p[0], p[1]), source.photon_amplitudes)


def split(ensemble, j):
    """Element j as two copies of half its weight, the second one last."""
    ws = ensemble.weights.copy()
    ws[j] /= 2
    return WeightedEnsemble(np.append(ensemble.unitaries, ensemble.unitaries[j : j + 1], 0), np.append(ws, ws[j]))


def relatives(ensemble, rng):
    """Copies of the ensemble whose Choi-block deviations equal its own, by name."""
    us, ws = ensemble.unitaries, ensemble.weights
    perm = rng.permutation(ensemble.size)
    return {
        "twist": WeightedEnsemble(random_unitary(rng) @ us @ random_unitary(rng), ws),
        "conj": WeightedEnsemble(us.conj(), ws),
        "transpose": WeightedEnsemble(us.transpose(0, 2, 1), ws),
        "permutation": WeightedEnsemble(us[perm], ws[perm]),
        "split": split(ensemble, int(rng.integers(ensemble.size))),
    }


def check_deviation_relations(rng, size, top):
    e = random_ensemble(rng, size)
    expected = security_report(e, top).deviations
    for name, copy in relatives(e, rng).items():
        assert np.abs(security_report(copy, top).deviations - expected).max() <= 1e-13, name


def check_leakage_relations(rng, size, top):
    e = random_ensemble(rng, size)
    v, w = random_unitary(rng), random_unitary(rng)
    twist = WeightedEnsemble(v @ e.unitaries @ w, e.weights)
    halved = split(e, int(rng.integers(size)))
    a, b = random_source(rng, top), random_source(rng, top)
    for pre in PRE_CHANNELS:
        moved = leakage(e, rotated(a, w), rotated(b, w), top, pre_channel=pre)
        assert abs(leakage(twist, a, b, top, pre_channel=pre) - moved) <= 1e-13, pre
        value = leakage(e, a, b, top, pre_channel=pre)
        assert abs(leakage(halved, a, b, top, pre_channel=pre) - value) <= 1e-13, pre


@SMALL
@SMALL_INPUTS
def test_deviation_table_relations_on_small_inputs(seed, size, top):
    check_deviation_relations(np.random.default_rng(seed), size, top)


def test_deviation_table_relations_at_sixteen_photons():
    check_deviation_relations(np.random.default_rng(16), 24, 16)


@SMALL
@SMALL_INPUTS
def test_leakage_relations_on_small_inputs(seed, size, top):
    check_leakage_relations(np.random.default_rng(seed), size, top)


def test_leakage_relations_at_thirty_photons():
    check_leakage_relations(np.random.default_rng(30), 6, 30)


def quadrature_design(order):
    quad = HaarQuadrature(order)
    return WeightedEnsemble(quad.unitaries, quad.weights, name=f"haar{order}")


def photon_number_distance(a, b, top):
    """1/2 sum_n |p_a(n) - p_b(n)|, the leakage a perfect encryption of each photon number leaves."""
    pa, pb = (np.abs(np.pad(s.photon_amplitudes, (0, top - s.max_photons))) ** 2 for s in (a, b))
    return 0.5 * np.abs(pa - pb).sum()


@pytest.mark.parametrize("order, deviation", [(2, 0.5715), (4, 0.3636), (6, 0.2667)])
def test_quadrature_design_is_secure_up_to_its_order(order, deviation):
    e = quadrature_design(order)
    assert security_report(e, order).classification is Classification.SECURE
    above = security_report(e, order + 1)
    assert above.classification is Classification.PARITY_SECURE
    assert above.worst_block == (order, order + 1)
    assert abs(above.worst_deviation - deviation) < 1e-4


@pytest.mark.parametrize("order", [4, 8])
def test_quadrature_design_leaks_only_the_photon_number_distribution(order):
    e = quadrature_design(order)
    rng = np.random.default_rng(order)
    for top, pres in ((order, PRE_CHANNELS), (order + 1, PRE_CHANNELS[1:])):
        a, b = random_source(rng, top), random_source(rng, top)
        for pre in pres:
            value = leakage(e, a, b, top, pre_channel=pre)
            assert abs(value - photon_number_distance(a, b, top)) <= 1e-14, (top, pre)


def test_quadrature_design_leaks_more_through_parity_coherence():
    # At K + 1 photons with no pre-channel the (K, K + 1) coherence survives:
    # leakage is never below the photon-number distance, and exceeds it here.
    e = quadrature_design(4)
    rng = np.random.default_rng(45)
    excess = []
    for _ in range(4):
        a, b = random_source(rng, 5), random_source(rng, 5)
        excess.append(leakage(e, a, b, 5) - photon_number_distance(a, b, 5))
    assert min(excess) >= -1e-14
    assert max(excess) > 1e-6


@pytest.mark.parametrize("size", [None, 4, 12, 24], ids=lambda s: "clifford12" if s is None else f"random-{s}")
def test_deviation_table_brackets_the_leakage(size):
    # E keeps the photon-number distribution, so the leakage is at least TV_n. Block (m, n) of
    # (E - E_Haar)(X) has trace norm at most sqrt(min(m, n) + 1) Delta_mn ||X_mn||_F, and the
    # blocks of rho_a - rho_b have Frobenius norms at most those of two unit vectors, so the
    # leakage beyond TV_n is at most the largest eigenvalue of D over the blocks the pre-channel keeps.
    rng = np.random.default_rng(size)
    for _ in range(10):
        e = clifford12_ensemble() if size is None else random_ensemble(rng, size)
        top = int(rng.integers(1, 9))
        deviations = security_report(e, top).deviations
        m, n = np.indices(deviations.shape)
        scaled = np.sqrt(np.minimum(m, n) + 1) * deviations
        a, b = random_source(rng, top), random_source(rng, top)
        floor = photon_number_distance(a, b, top)
        for pre, keep in zip(PRE_CHANNELS, (m >= 0, (m - n) % 2 == 0, m == n)):
            reach = np.linalg.eigvalsh(np.where(keep, scaled, 0)).max()
            value = leakage(e, a, b, top, pre_channel=pre)
            assert floor - 1e-12 <= value <= floor + reach + 1e-12, (top, pre)


def det_one_twist(ensemble, seed):
    """The copy V U_j W with V, W seeded random elements of SU(2) and each U_j scaled to determinant one."""
    rng = np.random.default_rng(seed)
    v, w, us = (u / np.sqrt(np.linalg.det(u))[..., None, None]
                for u in (random_unitary(rng), random_unitary(rng), ensemble.unitaries))
    return WeightedEnsemble(v @ us @ w, ensemble.weights)


@pytest.mark.parametrize("ensemble, order", [
    pytest.param(pauli_ensemble(), 1, id="pauli"),
    pytest.param(clifford12_ensemble(), 2, id="clifford12"),
    pytest.param(quadrature_design(1), 2, id="haar1"),
    pytest.param(quadrature_design(2), 4, id="haar2"),
])
def test_design_order_gives_a_parity_horizon(ensemble, order):
    # With det U = 1, conj U = sigma_y U sigma_y, so the entries of C_mn with m = n (mod 2) are
    # balanced moments of degree (m + n)/2, which a t-design reproduces up to m + n = 2t.
    e = det_one_twist(ensemble, order)
    assert is_k_design(e, order).passed and not is_k_design(e, order + 1).passed
    deviations = security_report(e, 2 * order + 2).deviations
    m, n = np.indices(deviations.shape)
    same = (m - n) % 2 == 0
    assert deviations[same & (m + n <= 2 * order)].max() <= 1e-14
    assert deviations[same & (m + n == 2 * order + 2)].max() > 0.1


def test_unequal_determinants_break_the_parity_horizon():
    # pauli's determinants are 1, -1, -1, -1: a 1-design whose (0, 2) block is sqrt(3)/2, which its
    # determinant-one copy above sets to zero.
    pauli = pauli_ensemble()
    assert is_k_design(pauli, 1).passed
    assert abs(security_report(pauli, 2).deviation(0, 2) - np.sqrt(3) / 2) <= 1e-12
