import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpad.designs import (
    WeightedEnsemble,
    builtin_ensembles,
    clifford12_ensemble,
    ensemble_from_json_dict,
    ensemble_moment,
    ensemble_to_json_dict,
    frame_potential,
    haar_frame_potential,
    is_k_design,
    key_length,
    load_ensemble,
    pauli_ensemble,
)
from photonpad.errors import NotUnitaryError, ParseError, WeightSumError
from photonpad.linalg import frobenius
from photonpad.su2 import HaarQuadrature, haar_moment

from conftest import random_unitary


def test_pauli_ensemble_basics():
    e = pauli_ensemble()
    assert e.size == 4
    assert np.allclose(e.weights, 0.25)
    assert np.allclose(e.unitaries[0], np.eye(2))


def test_clifford12_golden_elements():
    # golden file: the element order and phases are part of the contract
    e = clifford12_ensemble()
    assert e.size == 12
    assert np.allclose(e.weights, 1 / 12)
    assert np.allclose(e.unitaries[0], np.eye(2))
    assert np.allclose(e.unitaries[1], 1j * np.array([[0, 1], [1, 0]]))
    assert np.allclose(e.unitaries[2], 1j * np.array([[0, -1j], [1j, 0]]))
    assert np.allclose(e.unitaries[3], 1j * np.diag([1, -1]))
    first_rotation = 0.5 * np.array([[1 + 1j, 1 + 1j], [1j - 1, 1 - 1j]])
    assert np.abs(e.unitaries[4] - first_rotation).max() < 1e-15
    for u in e.unitaries:
        assert np.isclose(np.linalg.det(u), 1.0, atol=1e-13)


def test_ensemble_validation():
    eye = np.eye(2)
    with pytest.raises(WeightSumError):
        WeightedEnsemble([eye, eye], [0.5, 0.4])
    with pytest.raises(WeightSumError):
        WeightedEnsemble([eye, eye], [1.5, -0.5])
    for bad in (np.nan, np.inf):
        with pytest.raises(WeightSumError, match="finite"):
            WeightedEnsemble([eye, eye], [bad, bad])
    with pytest.raises(NotUnitaryError, match="element 1"):
        WeightedEnsemble([eye, 2 * eye], [0.5, 0.5])


def test_ensemble_arrays_are_frozen():
    e = pauli_ensemble()
    with pytest.raises(ValueError):
        e.weights[0] = 1.0
    with pytest.raises(ValueError):
        e.unitaries[0, 0, 0] = 0.0


def test_ensemble_keeps_its_own_copies():
    us = np.stack([np.eye(2), [[0, 1], [1, 0]]]).astype(np.complex128)
    ws = np.array([0.5, 0.5])
    e = WeightedEnsemble(us, ws)
    assert us.flags.writeable and ws.flags.writeable
    us[0] = 2 * np.eye(2)
    ws[:] = [2.0, -1.0]
    assert np.array_equal(e.unitaries[0], np.eye(2))
    assert np.array_equal(e.weights, [0.5, 0.5])


def test_items_pairs_weights_with_unitaries():
    e = pauli_ensemble()
    pairs = list(zip(e.weights, e.unitaries))
    assert len(pairs) == 4
    q, u = pairs[1]
    assert np.isclose(q, 0.25)
    assert np.allclose(u, np.array([[0, 1], [1, 0]]))


def test_builtin_registry():
    names = builtin_ensembles()
    assert set(names) == {"pauli", "clifford12"}


def test_frame_potentials_frozen_values():
    pauli = pauli_ensemble()
    cl = clifford12_ensemble()
    assert np.isclose(frame_potential(pauli, 1), 1.0, atol=1e-12)
    assert np.isclose(frame_potential(pauli, 2), 4.0, atol=1e-12)
    for k, expected in [(1, 1.0), (2, 2.0), (3, 6.0), (4, 22.0)]:
        assert np.isclose(frame_potential(cl, k), expected, atol=1e-10)


CATALAN = [(1, 1.0), (2, 2.0), (3, 5.0), (4, 14.0), (5, 42.0)]


def test_haar_frame_potential_catalan_numbers():
    for k, catalan in CATALAN:
        assert haar_frame_potential(k) == catalan


def test_quadrature_reproduces_catalan_numbers():
    # Independent oracle: |tr U|^(2k) has degree 2k in U and in conj(U) once
    # the double Haar average is collapsed, so the order-2k rule is exact.
    for k, catalan in CATALAN:
        value = HaarQuadrature(2 * k).average(lambda u: abs(np.trace(u)) ** (2 * k))
        assert abs(value - catalan) <= 1e-10


def test_pauli_first_moment_matches_haar():
    assert np.abs(ensemble_moment(pauli_ensemble(), 1) - haar_moment(1)).max() < 1e-13


def test_design_verdicts():
    pauli = pauli_ensemble()
    cl = clifford12_ensemble()
    assert is_k_design(pauli, 1).passed
    assert not is_k_design(pauli, 2).passed
    assert is_k_design(cl, 1).passed
    assert is_k_design(cl, 2).passed
    third = is_k_design(cl, 3)
    assert not third.passed
    assert np.isclose(third.moment_deviation, 1.0, atol=1e-9)
    assert np.isclose(third.frame_gap, 1.0, atol=1e-9)
    fourth = is_k_design(cl, 4)
    assert not fourth.passed
    assert np.isclose(fourth.frame_gap, 8.0, atol=1e-8)


def test_moment_deviation_squared_equals_frame_gap():
    for e in (pauli_ensemble(), clifford12_ensemble()):
        for k in (1, 2, 3):
            check = is_k_design(e, k)
            assert np.isclose(check.moment_deviation**2, check.frame_gap, atol=1e-8)
            assert check.passed == check.frame_passed


def rotated_clifford12(angle=3e-6):
    """clifford12 with element 5 multiplied by a real rotation through ``angle``."""
    e = clifford12_ensemble()
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    us = e.unitaries.copy()
    us[5] = us[5] @ rotation
    return WeightedEnsemble(us, e.weights, name="clifford12_rotated")


def test_frame_gap_passes_where_the_design_verdict_fails():
    # The frame gap is the squared deviation, compared with the same tol, so it
    # passes for tol < deviation <= sqrt(tol); the verdict must still fail.
    check = is_k_design(rotated_clifford12(), 2)
    assert abs(check.moment_deviation - 2.0e-6) <= 1e-9
    assert abs(check.frame_gap - 4.0e-12) <= 1e-14
    assert not check.passed
    assert check.frame_passed
    assert check.to_json_dict()["passed"] is False


def _random_ensemble(rng, size):
    """Random U(2) elements (det != 1) with non-uniform weights."""
    weights = rng.random(size) + 0.1
    return WeightedEnsemble([random_unitary(rng) for _ in range(size)], weights / weights.sum())


def test_spin_block_deviation_matches_dense_moments(rng):
    # Oracle: the 4^k x 4^k moment operators, against the spin-block sum of is_k_design.
    ensembles = [pauli_ensemble(), clifford12_ensemble()] + [_random_ensemble(rng, s) for s in (1, 3, 24)]
    assert any(abs(np.linalg.det(u) - 1) > 0.1 for u in ensembles[-1].unitaries)
    for k in (1, 2, 3, 4):
        haar = haar_moment(k)
        for e in ensembles:
            dense = frobenius(ensemble_moment(e, k) - haar)
            assert abs(is_k_design(e, k).moment_deviation - dense) <= 1e-13 * max(1.0, dense)


def test_quadrature_nodes_with_random_phases_are_designs(rng):
    # HaarQuadrature(K) is exact to order K, and a global phase per element
    # cancels in U (x) conj(U), so the rotated nodes are still a K-design;
    # the phases make det != 1, which only the scaling to det = 1 gets right.
    for order in (1, 2, 3, 4, 5):
        quad = HaarQuadrature(order)
        phases = np.exp(2j * np.pi * rng.random(quad.node_count))
        nodes = WeightedEnsemble(phases[:, None, None] * quad.unitaries, quad.weights)
        assert is_k_design(nodes, order).moment_deviation <= 1e-12


def test_order_one_rule_fails_at_third_moment():
    rule = HaarQuadrature(1)
    check = is_k_design(WeightedEnsemble(rule.unitaries, rule.weights), 3)
    assert not check.passed
    assert abs(check.moment_deviation - 0.7876) < 1e-4
    assert abs(check.frame_gap - 0.6204) < 1e-4
    assert abs(check.moment_deviation**2 - check.frame_gap) <= 1e-12


def test_bad_design_order_raises_value_error():
    for k in (0, -1, 2.0, True, None):
        with pytest.raises(ValueError):
            is_k_design(pauli_ensemble(), k)


def test_design_check_json_fields():
    d = is_k_design(pauli_ensemble(), 2).to_json_dict()
    for key in ("k", "moment_deviation", "frame_potential", "haar_frame_potential", "passed"):
        assert key in d
    assert d["k"] == 2
    assert d["passed"] is False


def test_design_monotonicity(rng):
    # a k-design is automatically a (k-1)-design
    ensembles = [pauli_ensemble(), clifford12_ensemble()]
    for _ in range(20):
        us = [random_unitary(rng) for _ in range(4)]
        ensembles.append(WeightedEnsemble(us, [0.25] * 4))
    for e in ensembles:
        passed = [is_k_design(e, k).passed for k in (1, 2, 3)]
        for lower, higher in zip(passed, passed[1:]):
            assert lower or not higher


@settings(max_examples=20, deadline=None)
@given(gamma=st.floats(0, 2 * np.pi), k=st.integers(1, 2))
def test_frame_potential_ignores_global_phase(gamma, k):
    e = pauli_ensemble()
    rotated = WeightedEnsemble(np.exp(1j * gamma) * e.unitaries, e.weights)
    assert np.isclose(frame_potential(rotated, k), frame_potential(e, k), atol=1e-12)
    assert np.isclose(
        is_k_design(rotated, k).moment_deviation,
        is_k_design(e, k).moment_deviation,
        atol=1e-12,
    )


def test_key_length():
    assert key_length(pauli_ensemble()) == 2.0
    assert np.isclose(key_length(clifford12_ensemble()), np.log2(12), atol=1e-13)
    single = WeightedEnsemble([np.eye(2)], [1.0])
    assert key_length(single) == 0.0


def test_key_length_maximal_for_uniform_weights():
    eye = np.eye(2)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    skewed = WeightedEnsemble([eye, sx, 1j * sx, np.diag([1, -1])], [0.4, 0.3, 0.2, 0.1])
    assert key_length(skewed) < key_length(pauli_ensemble())


def test_json_round_trip_exact():
    e = clifford12_ensemble()
    again = ensemble_from_json_dict(json.loads(json.dumps(ensemble_to_json_dict(e))))
    assert again.name == e.name
    assert np.array_equal(again.unitaries, e.unitaries)
    assert np.array_equal(again.weights, e.weights)


def test_json_schema_shape():
    d = ensemble_to_json_dict(pauli_ensemble())
    assert d["name"] == "pauli"
    assert len(d["elements"]) == 4
    el = d["elements"][0]
    assert np.isclose(el["weight"], 0.25)
    assert el["unitary"][0][0] == [1.0, 0.0]


def test_save_and_load(tmp_path):
    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(ensemble_to_json_dict(pauli_ensemble())))
    again = load_ensemble(path)
    assert np.array_equal(again.unitaries, pauli_ensemble().unitaries)


def test_load_builtin_names():
    assert load_ensemble("pauli").size == 4
    assert load_ensemble("clifford12").size == 12


def test_load_missing_file_names_builtins():
    with pytest.raises(ParseError, match="clifford12"):
        load_ensemble("no-such-ensemble")


def test_load_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_ensemble(bad)
    nonunitary = tmp_path / "nonunitary.json"
    nonunitary.write_text(
        json.dumps(
            {
                "name": "x",
                "elements": [
                    {"weight": 1.0, "unitary": [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}
                ],
            }
        )
    )
    with pytest.raises(NotUnitaryError):
        load_ensemble(nonunitary)


def test_from_json_dict_reports_bad_element_index():
    d = ensemble_to_json_dict(pauli_ensemble())
    del d["elements"][2]["unitary"]
    with pytest.raises(ParseError, match="2"):
        ensemble_from_json_dict(d)
    # JSON numbers only: a bool, a numeric string or an int past the float range is malformed
    for field, value in (("weight", True), ("weight", "0.25"), ("weight", 10**400)):
        d = ensemble_to_json_dict(pauli_ensemble())
        d["elements"][2][field] = value
        with pytest.raises(ParseError, match="element 2"):
            ensemble_from_json_dict(d)
    for entry in ([True, False], ["1", 0], [1.0], [10**400, 0]):
        d = ensemble_to_json_dict(pauli_ensemble())
        d["elements"][2]["unitary"][0][1] = entry
        with pytest.raises(ParseError, match="element 2"):
            ensemble_from_json_dict(d)
    for data in ({"name": 7, "elements": []}, {"elements": 5}):
        with pytest.raises(ParseError):
            ensemble_from_json_dict(data)
