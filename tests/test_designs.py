import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photonpad import designs
from photonpad.designs import (
    _UNIT_ROUNDOFF,
    MAX_DESIGN_ORDER,
    WEIGHT_TOL,
    WeightedEnsemble,
    _frame_potentials,
    _gap_bound,
    _spin_block_deviation,
    builtin_ensembles,
    clifford12_ensemble,
    ensemble_from_json_dict,
    ensemble_moment,
    frame_potential,
    haar_frame_potential,
    is_k_design,
    key_length,
    load_ensemble,
    pauli_ensemble,
)
from photonpad.errors import NotUnitaryError, ParseError, WeightSumError
from photonpad.fock import MAX_TOL
from photonpad.linalg import frobenius
from photonpad.security import Classification, _classify, security_report
from photonpad.su2 import UNITARY_TOL, HaarQuadrature, _multiplicity, haar_moment

from conftest import ensemble_to_json_dict, random_ensemble, random_unitary


def test_pauli_ensemble_basics():
    e = pauli_ensemble()
    assert e.size == 4
    assert np.array_equal(e.weights, np.full(4, 0.25))  # already within 16u of summing to 1: stored as given
    assert np.allclose(e.unitaries[0], np.eye(2))


def test_clifford12_golden_elements():
    # golden file: the element order and phases are part of the contract
    e = clifford12_ensemble()
    assert e.size == 12
    assert np.array_equal(e.weights, np.full(12, 1 / 12))
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


def test_ensemble_refuses_arrays_that_are_not_numbers():
    # numpy would convert each of these to numbers; the JSON reader refuses them too
    eye = np.eye(2)
    for weights in (["0.5", "0.5"], [True, True], np.array([0.5, 0.5], dtype=object), [0.5 + 0j, 0.5]):
        with pytest.raises(WeightSumError, match="^weights must be real numbers, got dtype "):
            WeightedEnsemble([eye, eye], weights)
    for unitaries in ([[["1", "0"], ["0", "1"]]], [[[True, False], [False, True]]], np.array([eye], dtype=object)):
        with pytest.raises(NotUnitaryError, match="^unitary entries must be numbers, got dtype "):
            WeightedEnsemble(unitaries, [1.0])
    e = WeightedEnsemble(np.array([[[1, 0], [0, 1]]]), np.array([1]))
    assert e.unitaries.dtype == np.complex128 and e.weights.dtype == np.float64


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
        quad = HaarQuadrature(2 * k)
        value = quad.weights @ np.abs(np.trace(quad.unitaries, axis1=1, axis2=2)) ** (2 * k)
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


def test_spin_block_deviation_forms_no_haar_block():
    # The Haar value is subtracted on the diagonal of each product in place, so
    # no identity-sized array joins the blocks: at k = 20 the peak reads 3.9 MB,
    # and 8.6 MB when each diagonal block is compared with a dense I/(n+1).
    e = clifford12_ensemble()
    _spin_block_deviation(e, 20)
    tracemalloc.start()
    try:
        _spin_block_deviation(e, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6e6


def test_spin_block_deviation_matches_dense_moments(rng):
    # Oracle: the 4^k x 4^k moment operators, against the spin-block sum of is_k_design.
    ensembles = [pauli_ensemble(), clifford12_ensemble()] + [random_ensemble(rng, s) for s in (1, 3, 24)]
    assert any(abs(np.linalg.det(u) - 1) > 0.1 for u in ensembles[-1].unitaries)
    for k in (1, 2, 3, 4):
        haar = haar_moment(k)
        for e in ensembles:
            dense = frobenius(ensemble_moment(e, k) - haar)
            assert abs(is_k_design(e, k).moment_deviation - dense) <= 1e-13 * max(1.0, dense)
            # the exact path itself, also where is_k_design screens the check
            assert abs(_spin_block_deviation(e, k) - dense) <= 1e-13 * max(1.0, dense)


def test_quadrature_nodes_with_random_phases_are_designs(rng):
    # HaarQuadrature(K) is exact to order K, and a global phase per element
    # cancels in U (x) conj(U), so the rotated nodes are still a K-design;
    # the phases make det != 1, which only the scaling to det = 1 gets right.
    for order in (1, 2, 3, 4, 5):
        quad = HaarQuadrature(order)
        phases = np.exp(2j * np.pi * rng.random(len(quad.weights)))
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


def test_design_order_is_capped_at_twelve():
    # MAX_DESIGN_ORDER is the one range of k: 12 is taken, 13 raises before any work
    assert MAX_DESIGN_ORDER == 12
    assert frame_potential(clifford12_ensemble(), 12) > haar_frame_potential(12) == 208012.0
    assert not is_k_design(clifford12_ensemble(), 12).passed
    for call in (lambda: frame_potential(clifford12_ensemble(), 13), lambda: haar_frame_potential(13),
                 lambda: is_k_design(clifford12_ensemble(), 13)):
        with pytest.raises(ValueError, match=r"^k must be an int in \[1, 12\], got 13$"):
            call()


def test_exact_design_at_the_cap_keeps_its_deviation_far_below_tol():
    # The nodes of HaarQuadrature(12) are an exact 12-design. Their spin-block deviation is rounding alone,
    # 7.9e-13 (one BLAS thread), three orders under the default tol; is_k_design would also stream the
    # 8125^2-entry frame table, which decides no passing check, so the exact path is called directly.
    quad = HaarQuadrature(MAX_DESIGN_ORDER)
    assert _spin_block_deviation(WeightedEnsemble(quad.unitaries, quad.weights), MAX_DESIGN_ORDER) < 1e-11


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


def test_a_file_with_no_name_is_named_by_its_path(tmp_path):
    path = tmp_path / "unnamed.json"
    data = ensemble_to_json_dict(pauli_ensemble())
    del data["name"]
    for named in (data, {**data, "name": ""}):
        path.write_text(json.dumps(named))
        assert load_ensemble(path).name == load_ensemble(str(path)).name == str(path)
    for name in (0, False, None, []):  # falsy, but not a string
        path.write_text(json.dumps({**data, "name": name}))
        with pytest.raises(ParseError, match="^ensemble name must be a string"):
            load_ensemble(path)


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


def single_table_frame_potentials(e, k):
    """(F_{k-1}(e), F_k(e)) from the whole s x s table at once, in the order of operations of one row block."""
    flat = e.unitaries.reshape(e.size, 4)
    overlaps = flat.conj() @ flat.T
    squares = overlaps.real**2 + overlaps.imag**2
    power = np.ones_like(squares)
    for _ in range(k - 1):
        power *= squares
    return float(e.weights @ power @ e.weights), float(e.weights @ (power * squares) @ e.weights)


@pytest.mark.parametrize("size", [1, 12, 256])
def test_frame_table_of_one_block_keeps_its_bits(rng, size):
    e = random_ensemble(rng, size)
    for k in (1, 2, 5, 12):
        assert _frame_potentials(e, k) == single_table_frame_potentials(e, k)[1]


def test_frame_table_streams_its_rows():
    # The 1183 nodes of HaarQuadrature(6) at k = 6 peaked at 53 MB with the whole table at once, and read
    # 9.3 MB in blocks of 256 rows. F_6 of an exact 6-design is the Catalan number 132.
    quad = HaarQuadrature(6)
    e = WeightedEnsemble(quad.unitaries, quad.weights)
    assert e.size == 1183
    frame_potential(e, 6)
    tracemalloc.start()
    try:
        potential = frame_potential(e, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20
    assert abs(potential - single_table_frame_potentials(e, 6)[1]) <= 1e-12
    assert abs(potential - haar_frame_potential(6)) <= 1e-12


def gap_and_bound(e, k):
    potential, haar = _frame_potentials(e, k), haar_frame_potential(k)
    return potential - haar, _gap_bound(e, k, potential, haar)


def test_clear_failures_are_decided_without_a_lift_sweep(lift_sweeps, rng):
    # Random ensembles of the sizes the benchmark's design ladder draws, at its orders 3 and 4, fail by a
    # gap far above B: the worst B/gap over 500 of them, 100 of each size, read 1.2e-13 to 1.5e-13 in four
    # draws, under the screen's 1e-12.
    named = [(load_ensemble(name), k) for name, k in [("clifford12", 3), ("clifford12", 4), ("clifford12", 5),
                                                      ("pauli", 2), ("pauli", 3), ("pauli", 4), ("pauli", 5)]]
    drawn = [(random_ensemble(rng, size), k) for size in (4, 8, 12, 16, 24) for k in (3, 4)]
    for e, k in named + drawn:
        check = is_k_design(e, k)
        assert not check.passed
        assert check.moment_deviation == math.sqrt(check.frame_gap)
    assert lift_sweeps == []
    for name, k in [("pauli", 1), ("clifford12", 1), ("clifford12", 2)]:
        assert is_k_design(load_ensemble(name), k).passed
    assert lift_sweeps == [1, 1, 2]


@pytest.mark.parametrize("angle", [1.0, 0.3, 0.1, 3e-6] + [10.0**-p for p in range(2, 13)])
def test_screen_leaves_the_band_to_the_exact_path(lift_sweeps, angle):
    # Only a gap far above tol^2 + B with B <= 1e-12 gap is decided from the
    # gap; small rotations (3e-6: deviation 2e-6, gap 4e-12) take the spin blocks.
    # At 0.3 the gap is 0.037 and B = 1.25e-12 gap, with the weight term 34u C_k.
    e = rotated_clifford12(angle)
    exact = _spin_block_deviation(e, 2)
    lift_sweeps.clear()
    check = is_k_design(e, 2)
    gap, bound = gap_and_bound(e, 2)
    screened = gap > 1e-9**2 + bound and bound <= 1e-12 * gap
    assert lift_sweeps == ([] if screened else [2])
    assert screened == (angle >= 1.0)
    assert check.passed == (exact <= 1e-9)
    assert abs(check.moment_deviation - exact) <= 1e-12 * exact


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 1.0, math.sqrt(2), 1.5, 1e300])
def test_screen_verdict_matches_the_exact_path_at_any_tol(tol):
    # pauli's second-moment deviation is sqrt(2), gap 2: the screen fails it
    # only for tol^2 + B < 2. Every tol the API takes is at most 1e-3, so
    # tol^2 <= 1e-6, and a tol near sqrt(2) is refused.
    pauli = pauli_ensemble()
    if tol > MAX_TOL:
        with pytest.raises(ValueError):
            is_k_design(pauli, 2, tol)
    else:
        assert is_k_design(pauli, 2, tol).passed == (_spin_block_deviation(pauli, 2) <= tol)


@pytest.mark.parametrize("name, k", [("clifford12", 3), ("pauli", 2)])
def test_screen_verdict_matches_the_exact_path_next_to_the_deviation(name, k):
    # sqrt(gap) and the spin-block deviation differ in their last bits; a tol
    # between them, next to a deviation of 1 or sqrt(2), is above 1e-3 and so
    # refused, and no tol the API takes is within B of the gap.
    e = load_ensemble(name)
    exact = _spin_block_deviation(e, k)
    lo, hi = sorted((exact, is_k_design(e, k).moment_deviation))
    assert lo < hi
    ulp = np.spacing(hi)
    for step in range(-4, round((hi - lo) / ulp) + 5):
        with pytest.raises(ValueError):
            is_k_design(e, k, lo + step * ulp)
    gap, bound = gap_and_bound(e, k)
    assert MAX_TOL**2 + bound < gap - bound


def exact_frame_potential(e, k):
    """F_k(e) in rational arithmetic on the ensemble's floats."""
    rows = [[(Fraction(z.real), Fraction(z.imag)) for z in u.ravel()] for u in e.unitaries]
    weights = [Fraction(w) for w in e.weights]
    total = Fraction(0)
    for qi, ui in zip(weights, rows):
        for qj, uj in zip(weights, rows):
            re = sum(a * c + b * d for (a, b), (c, d) in zip(ui, uj))
            im = sum(a * d - b * c for (a, b), (c, d) in zip(ui, uj))
            total += qi * qj * (re * re + im * im) ** k
    return total


def check_gap_bound_covers_the_rounding(rng):
    ensembles = [pauli_ensemble(), clifford12_ensemble()] + [random_ensemble(rng, s) for s in (1, 3, 8)]
    for e in ensembles:
        for k in (1, 2, 3, 4, 5):
            gap, bound = gap_and_bound(e, k)
            assert abs(Fraction(gap) - (exact_frame_potential(e, k) - Fraction(haar_frame_potential(k)))) <= bound


def test_gap_bound_covers_the_rounding_of_the_frame_potential(rng):
    check_gap_bound_covers_the_rounding(rng)


@pytest.mark.parametrize("rows", [3, 1])
def test_gap_bound_covers_the_rounding_of_a_streamed_table(rng, monkeypatch, rows):
    # The table in blocks of 3 rows or of 1 row takes the summation order of an ensemble past 256 elements.
    monkeypatch.setattr(designs, "_FRAME_ROWS", rows)
    check_gap_bound_covers_the_rounding(rng)


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
def test_gap_bound_covers_an_exact_design(order):
    # An exact design's gap is 0 but for rounding, which may leave it below 0 (HaarQuadrature(4) prints
    # -1.1e-14 at k = 4); every order passes on the spin blocks, and B still covers gap - deviation^2.
    quad = HaarQuadrature(order)
    e = WeightedEnsemble(quad.unitaries, quad.weights)
    check = is_k_design(e, order)
    gap, bound = gap_and_bound(e, order)
    assert check.passed and check.frame_gap == gap
    assert abs(check.frame_gap - check.moment_deviation**2) <= bound


def perturbed(rng, e, residual, weight_sum=1.0):
    """Each element times I + eps A, scaled to ||U^dag U - I||_F = residual; weights scaled to weight_sum."""
    us = []
    for u in e.unitaries:
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = a + a.conj().T if rng.random() < 0.5 else a  # a Hermitian A moves |det U| the most
        v = u @ (np.eye(2) + 1e-11 * a)
        v = u @ (np.eye(2) + 1e-11 * a * residual / np.linalg.norm(v.conj().T @ v - np.eye(2)))
        us.append(v)
    return WeightedEnsemble(us, e.weights * weight_sum)


def residuals(us):
    """||U^dag U - I||_F of each element of a stack."""
    return np.linalg.norm(us.conj().transpose(0, 2, 1) @ us - np.eye(2), axis=(1, 2))


def test_gap_bound_covers_unitarity_and_weight_slack(rng):
    # The gap equals deviation^2 only for unitary elements and weights summing
    # to one; the validation allows 1e-10 and 1e-12 off. The ensemble projects
    # the elements to within 16u, and B must cover that and the weights.
    bases = [pauli_ensemble(), clifford12_ensemble()] + [random_ensemble(rng, s) for s in (1, 5, 12)]
    for base in bases:
        for residual, weight_sum in ((0.9 * UNITARY_TOL, 1.0), (0.0, 1 + 0.9 * WEIGHT_TOL), (0.0, 1 - 0.9 * WEIGHT_TOL)):
            e = perturbed(rng, base, residual, weight_sum)
            assert residuals(e.unitaries).max() <= 16 * _UNIT_ROUNDOFF
            for k in (1, 2, 3, 4, 5):
                gap, bound = gap_and_bound(e, k)
                assert abs(gap - _spin_block_deviation(e, k) ** 2) <= bound



@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(angles=st.lists(st.floats(0, 2 * np.pi), min_size=3, max_size=3),
       hermitian=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       skew=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       size=st.floats(1e-6, 0.999))
def test_stored_elements_are_unitary_to_rounding(angles, hermitian, skew, size):
    # Any element the validation admits, U (I + d (H + S)) with H Hermitian of unit norm and S
    # skew-Hermitian, whose residual is 2d to first order, is stored within 16u of unitary.
    phi, psi, t = angles
    u = np.array([[np.exp(1j * phi) * np.cos(t), np.exp(1j * psi) * np.sin(t)],
                  [-np.exp(-1j * psi) * np.sin(t), np.exp(-1j * phi) * np.cos(t)]])
    a, b, c, d = hermitian
    h = np.array([[2 + a, b + 1j * c], [b - 1j * c, d]])  # norm >= 1
    e, f, g, k = skew
    s = np.array([[1j * e, f + 1j * g], [-f + 1j * g, 1j * k]])
    v = u @ (np.eye(2) + size * UNITARY_TOL / 2 * (h / np.linalg.norm(h) + s))
    assert residuals(v[None])[0] <= UNITARY_TOL
    stored = WeightedEnsemble([v, u], [0.5, 0.5]).unitaries
    assert residuals(stored).max() <= 16 * _UNIT_ROUNDOFF
    assert np.abs(stored[0] - u).max() <= UNITARY_TOL
    assert np.array_equal(stored[1], u) or residuals(u[None])[0] > 16 * _UNIT_ROUNDOFF


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(raw=st.lists(st.floats(0.01, 1), min_size=1, max_size=24),
       slack=st.sampled_from([-0.9 * WEIGHT_TOL, 0.0, 0.9 * WEIGHT_TOL]) | st.floats(-0.9 * WEIGHT_TOL, 0.9 * WEIGHT_TOL))
def test_stored_weights_sum_to_one_across_the_admitted_band(raw, slack):
    # Weights off by more than 16u are divided by their sum; weights within 16u are stored as given.
    w = np.array(raw) / math.fsum(raw) * (1 + slack)
    stored = WeightedEnsemble(np.tile(np.eye(2), (w.size, 1, 1)), w).weights
    assert abs(math.fsum(stored.tolist()) - 1) <= 16 * _UNIT_ROUNDOFF
    assert np.abs(stored - w).max() <= 1e-12 * w.max()
    if abs(math.fsum(w.tolist()) - 1) <= 16 * _UNIT_ROUNDOFF:
        assert np.array_equal(stored, w)


def near_unitary_copy(rng, us, residual):
    """Each element of a stack moved to ``residual``, alternately as U (1 + eps) and as U (I + eps H), H Hermitian.

    U is the polar factor of both.
    """
    h = rng.normal(size=us.shape) + 1j * rng.normal(size=us.shape)
    h = h + h.conj().transpose(0, 2, 1)
    h *= residual / 2 / np.linalg.norm(h, axis=(1, 2))[:, None, None]  # ||(I + H)^2 - I||_F = 2 ||H||_F to first order
    out = us + us @ h
    out[::2] = us[::2] * math.sqrt(1 + residual / math.sqrt(2))  # ||(1 + eps)^2 I - I||_F = residual
    return out


@pytest.mark.parametrize("order", range(1, 9))
def test_admitted_noise_decides_no_verdict(rng, order):
    # The nodes of HaarQuadrature(K) are an exact K-design, SECURE at N = K. Unprojected, a copy
    # off unitarity by 0.9 UNITARY_TOL reads Delta_KK of order K 1e-10, INSECURE at tol = 1e-12.
    quad = HaarQuadrature(order)
    us = near_unitary_copy(rng, quad.unitaries, 0.9 * UNITARY_TOL)
    assert np.allclose(residuals(us), 0.9 * UNITARY_TOL, rtol=1e-3, atol=0)
    near, exact = WeightedEnsemble(us, quad.weights), WeightedEnsemble(quad.unitaries, quad.weights)
    got, want = security_report(near, order, 1e-12), security_report(exact, order, 1e-12)
    assert got.classification is want.classification is Classification.SECURE
    assert _classify(got.deviations, 1e-9) is _classify(want.deviations, 1e-9)
    assert np.abs(got.deviations - want.deviations).max() <= 1e-14
    if order <= 6:  # the s x s frame-potential table holds 2601^2 entries at K = 8
        for tol in (1e-9, 1e-12):
            got, want = is_k_design(near, order, tol), is_k_design(exact, order, tol)
            assert got.passed and want.passed
            assert abs(got.moment_deviation - want.moment_deviation) <= 1e-14

def test_design_deviation_is_the_multiplicity_weighted_security_table(rng):
    # Schur-Weyl: ||M_k(e) - M_k(Haar)||_F^2 = sum mu_k(m) mu_k(n) Delta_mn^2 over m = n = k (mod 2),
    # exactly when every element has determinant one, so the two public verdicts must agree
    us = np.stack([random_unitary(rng) for _ in range(7)])
    weights = rng.random(7) + 0.1
    quad = HaarQuadrature(3)
    ensembles = [
        clifford12_ensemble(),
        WeightedEnsemble(us / np.sqrt(np.linalg.det(us))[:, None, None], weights / weights.sum()),
        WeightedEnsemble(quad.unitaries, quad.weights),
    ]
    for e in ensembles:
        for k in range(1, 6):
            deviations = security_report(e, k).deviations
            sectors = range(k % 2, k + 1, 2)
            expected = math.sqrt(sum(
                _multiplicity(k, m) * _multiplicity(k, n) * deviations[m, n] ** 2 for m in sectors for n in sectors
            ))
            assert abs(is_k_design(e, k).moment_deviation - expected) <= 1e-14 + 1e-13 * expected, (e.name, k)
