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
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpad.channels import parity_dephase, photon_number_dephase
from photonpad.designs import WeightedEnsemble
from photonpad.fock import PolarizationSpec, SourceSpec
from photonpad.security import Classification, leakage, security_report
from photonpad.su2 import HaarQuadrature

from conftest import random_state, random_unitary

PRE_CHANNELS = [None, parity_dephase, photon_number_dephase]
SMALL = settings(derandomize=True, database=None, deadline=None, max_examples=15)
SMALL_INPUTS = given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 6), top=st.integers(0, 6))


def random_ensemble(rng, size):
    weights = rng.random(size) + 0.1
    return WeightedEnsemble([random_unitary(rng) for _ in range(size)], weights / weights.sum())


def random_source(rng, max_photons):
    v = random_state(rng, 2)
    return SourceSpec(PolarizationSpec(v[0], v[1]), tuple(random_state(rng, max_photons + 1)))


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
