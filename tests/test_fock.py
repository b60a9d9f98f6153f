import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from photonpad.channels import apply_channel, as_choi_operator, parity_dephase, photon_number_dephase
from photonpad.designs import WeightedEnsemble, pauli_ensemble
from photonpad.errors import (
    DimensionError,
    NormalizationError,
    NotDensityOperatorError,
    NotUnitaryError,
    ParseError,
    SectorRangeError,
    WeightSumError,
)
from photonpad.fock import (
    MAX_TOL,
    PolarizationSpec,
    SectorStructure,
    SourceSpec,
    _binomial_layout,
    _json_pairs,
    _read_json_object,
    _tolerance,
    build_source_state,
    symmetric_embedding,
)
from photonpad.linalg import trace_norm
from photonpad.security import reproduce_appendix_b
from photonpad.su2 import block_lift, check_density, lift_symmetric, sector_lifts

from conftest import random_state


def test_sector_layout():
    s = SectorStructure(3)
    assert [s.sector_slice(n) for n in range(4)] == [slice(0, 1), slice(1, 3), slice(3, 6), slice(6, 10)]
    assert s.total_dim == 10


@pytest.mark.parametrize("top", range(9))
def test_photon_numbers_and_offsets(top):
    s = SectorStructure(top)
    labels = [n for n in range(top + 1) for _ in range(n + 1)]
    assert s.photon_numbers.tolist() == labels
    assert [s.sector_slice(n).start for n in range(top + 1)] == [labels.index(n) for n in range(top + 1)]
    for n in range(top + 1):
        assert s.photon_numbers[s.sector_slice(n)].tolist() == [n] * (n + 1)
    # built once per N and shared read-only, with the source-row layout too
    assert s.photon_numbers is SectorStructure(top).photon_numbers is _binomial_layout(top)[0]
    assert not s.photon_numbers.flags.writeable


@pytest.mark.parametrize("n", range(5))
def test_total_dim_formula(n):
    assert SectorStructure(n).total_dim == (n + 1) * (n + 2) // 2


def test_index_orders_by_descending_h_count():
    s = SectorStructure(2)
    # sector n lists |n,0>, |n-1,1>, ..., |0,n>
    assert s.index(1, 1) == 1
    assert s.index(1, 0) == 2
    assert s.index(2, 2) == 3
    assert s.index(2, 1) == 4
    assert s.index(2, 0) == 5


def test_index_range_checks():
    s = SectorStructure(2)
    with pytest.raises(SectorRangeError):
        s.index(3, 0)
    with pytest.raises(SectorRangeError):
        s.index(1, 2)


def test_projectors_resolve_identity():
    s = SectorStructure(3)
    total = sum(s.projector(n) for n in range(4))
    assert np.allclose(total, np.eye(s.total_dim))
    for n in range(4):
        p = s.projector(n)
        assert np.allclose(p @ p, p)
        assert np.isclose(np.trace(p), n + 1)


def test_polarization_requires_normalization():
    PolarizationSpec(0.6, 0.8j)
    with pytest.raises(NormalizationError):
        PolarizationSpec(1.0, 0.1)


def test_source_spec_normalization_and_max_photons():
    src = SourceSpec(PolarizationSpec(1.0, 0.0), (0.0, 0.6, 0.8))
    assert src.max_photons == 2
    with pytest.raises(NormalizationError):
        SourceSpec(PolarizationSpec(1.0, 0.0), (1.0, 1.0))


def test_source_spec_json_round_trip(tmp_path):
    src = SourceSpec(PolarizationSpec(0.6, 0.8j), (0.0, 0.6, 0.8j))
    path = tmp_path / "source.json"
    pol = src.polarization
    pairs = {"alpha": pol.alpha, "beta": pol.beta, "photon_amplitudes": np.array(src.photon_amplitudes)}
    path.write_text(json.dumps({key: _json_pairs(value) for key, value in pairs.items()}))
    again = SourceSpec.from_json_dict(_read_json_object(path, "source file"))
    assert again.polarization.alpha == src.polarization.alpha
    assert again.polarization.beta == src.polarization.beta
    assert np.array_equal(again.photon_amplitudes, src.photon_amplitudes)


def test_source_spec_parse_errors():
    for data in ([1, 2, 3], {"alpha": [1.0, 0.0], "beta": [0.0, 0.0]}):
        with pytest.raises(ParseError):
            SourceSpec.from_json_dict(data)
    # [re, im] pairs of JSON numbers only; [] used to read as 0
    amps = [[0.0, 0.0], [1.0, 0.0]]
    for alpha, beta in (([], [1, 0]), ([True, False], [0, 0]), (["1", 0], [0, 0]), ([10**400, 0], [0, 0])):
        with pytest.raises(ParseError):
            SourceSpec.from_json_dict({"alpha": alpha, "beta": beta, "photon_amplitudes": amps})


@pytest.mark.parametrize("kind, content", [
    ("missing", None), ("directory", None), ("undecodable", b"\xff\xfe"), ("invalid", b"{"),
    ("deep", b"[" * 100_000), ("array", b"[1, 2]"), ("string", b'"{}"'),
], ids=lambda x: x if isinstance(x, str) else "")
def test_read_json_object_names_the_file_in_every_failure(tmp_path, kind, content):
    path = tmp_path / f"{kind}.json"
    if kind == "directory":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    with pytest.raises(ParseError, match=f"^[^\n]*source file '[^']*{kind}.json'") as info:
        _read_json_object(str(path), "source file")
    assert isinstance(info.value.__cause__, FileNotFoundError) == (kind == "missing")


@pytest.mark.parametrize("value", [1e-9, 5e-324, MAX_TOL, np.float32(1e-4)])
def test_tolerance_accepts_a_finite_positive_real_as_a_float(value):
    tol = _tolerance(value)
    assert type(tol) is float and tol == float(value)


# After the values that no tolerance rule ever took, the ones that an unbounded rule took: ints, and
# floats above MAX_TOL, float32(1e-3) included, since it is 1.0000000474974513e-3 as a float.
@pytest.mark.parametrize("value", [
    0, 0.0, -1e-9, math.inf, -math.inf, math.nan, np.float64("nan"), np.float32("inf"), 10**400,
    True, np.bool_(True), "1e-9", None, 1e-9 + 0j, np.array([1e-9]),
    1, 0.5, 1e300, sys.float_info.max, np.float32(1e-3), np.int64(2),
])
def test_tolerance_refuses_everything_else(value):
    with pytest.raises(ValueError, match=r"^tol must be a number in \(0, 0.001\], got "):
        _tolerance(value)


def test_array_messages_name_the_argument_and_the_fault():
    with pytest.raises(NormalizationError, match=r"^\(alpha, beta\) must be of shape \(n,\), got shape \(2, 1\)$"):
        PolarizationSpec([0.6], [0.8])
    deep = functools.reduce(lambda nest, _: [nest], range(64), [1.0, 0.0])  # 65 levels
    with pytest.raises(NormalizationError, match="^photon_amplitudes must be numbers, got a nesting past 64 levels$"):
        SourceSpec(PolarizationSpec(1.0, 0.0), deep)
    with pytest.raises(NormalizationError, match="^photon_amplitudes must be numbers, got a ragged nesting$"):
        SourceSpec(PolarizationSpec(1.0, 0.0), [[1.0], []])


def test_amplitudes_are_numbers():
    # The JSON reader refuses strings and bools, and so does the constructor
    for alpha, beta in (("0.6", "0.8j"), (True, 0), (np.bool_(True), 0), (0.6, b"0.8")):
        with pytest.raises(NormalizationError, match=r"^\(alpha, beta\) must be numbers, got "):
            PolarizationSpec(alpha, beta)
    with pytest.raises(NormalizationError, match="^photon_amplitudes must be numbers, got dtype <U1$"):
        SourceSpec(PolarizationSpec(1.0, 0.0), ["0", "1"])
    numbers = SourceSpec(PolarizationSpec(np.float32(1), 0), (np.int64(0), np.complex64(1), 0.0))
    assert numbers.photon_amplitudes == (0j, 1 + 0j, 0j)
    assert all(type(z) is complex for z in numbers.photon_amplitudes + (numbers.polarization.alpha,))


@pytest.mark.parametrize("value, got, got_alone", [(np.True_, "a bool among them", "dtype bool"),
                                                   (10**400, "dtype object", "dtype object")], ids=["bool", "huge int"])
def test_amplitudes_refuse_a_bool_among_numbers_and_an_int_past_the_float_range(value, got, got_alone):
    # numpy reads (True, 0.5) as (1.0, 0.5); complex(10**400) raised a bare OverflowError
    pol = PolarizationSpec(1.0, 0.0)
    for build, what in ((lambda: PolarizationSpec(value, 0.5), r"\(alpha, beta\)"),
                        (lambda: SourceSpec(pol, (value, 0.5)), "photon_amplitudes"),
                        (lambda: reproduce_appendix_b(0.6, value, 0.5), r"\(alpha, beta\)")):
        with pytest.raises(NormalizationError, match=f"^{what} must be numbers, got {got}$"):
            build()
    with pytest.raises(NormalizationError, match=f"^c must be numbers, got {got_alone}$"):
        reproduce_appendix_b(value, 1.0, 0.0)


U = np.finfo(np.float64).eps / 2
EDGES = st.sampled_from([-0.9e-12, 0.9e-12])  # the slack NORM_TOL admits, near both of its ends


def summed(amps):
    """sum |z|^2 in the order and rounding of ``fock._unit_amplitudes``."""
    total = 0.0
    for z in amps:
        total += z.real * z.real + z.imag * z.imag
    return total


def off_by(slack, parts):
    """A vector in the direction of ``parts`` whose sum |z|^2 is about 1 + slack."""
    v = np.array([complex(re, im) for re, im in parts])
    return tuple(v * (math.sqrt(1 + slack) / np.linalg.norm(v)))


AMPLITUDES = st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=1, max_size=151).filter(
    lambda parts: sum(re * re + im * im for re, im in parts) > 1e-3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(parts=AMPLITUDES, slack=EDGES | st.just(0.0) | st.floats(-0.9e-12, 0.9e-12))
def test_amplitudes_are_stored_exact_across_the_admitted_band(parts, slack):
    # A vector off by more than 16u is scaled to sum to 1 within 16u; one within 16u is stored as given.
    given_amps = off_by(slack, parts)
    stored = SourceSpec(PolarizationSpec(1.0, 0.0), given_amps).photon_amplitudes
    assert abs(summed(stored) - 1) <= 16 * U
    exact = sum(Fraction(z.real) ** 2 + Fraction(z.imag) ** 2 for z in stored)
    assert abs(exact - 1) <= (16 + 2 * len(stored)) * U  # the exact sum: 16u and the rounding of the computed one
    assert max(abs(a - b) for a, b in zip(stored, given_amps)) <= 1e-12
    if abs(summed(given_amps) - 1) <= 16 * U:
        assert stored == given_amps


def test_amplitudes_already_exact_are_stored_bit_for_bit():
    # The README's sources and polarizations, and those of the command-line examples
    pairs = ((1.0, 0.0), (0.0, 1.0), (0.8, 0.6), (0.6, 0.8), (0.6, 0.8j), (0.6j, 0.8))
    for values in pairs + ((0.0, 0.6, 0.8), (0.6, 0.0, 0.8)):
        assert SourceSpec(PolarizationSpec(1.0, 0.0), values).photon_amplitudes == values
    for alpha, beta in pairs:
        pol = PolarizationSpec(alpha, beta)
        assert (pol.alpha, pol.beta) == (alpha, beta)
    pol = PolarizationSpec(math.sqrt(1 + 9e-13), 0.0)
    assert abs(summed((pol.alpha, pol.beta)) - 1) <= 16 * U


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(angles=st.tuples(st.floats(0, math.pi / 2), st.floats(0, 2 * math.pi)), parts=AMPLITUDES,
       slacks=st.tuples(EDGES, EDGES))
@example(angles=(0.0, 0.0), parts=[(0.0, 0.0)] * 150 + [(1.0, 0.0)], slacks=(0.9e-12, 0.9e-12))
def test_plaintext_row_is_a_unit_vector_at_the_edges_of_the_norm_tolerance(angles, parts, slacks):
    # The condition leakage relies on in place of a density check (security._encrypted_rows): with (alpha, beta)
    # and c stored exact, ||v||^2 = sum_n |c_n|^2 (|alpha|^2 + |beta|^2)^n does not compound the slack with n.
    t, phase = angles
    pol = PolarizationSpec(*off_by(slacks[0], [(math.cos(t), 0.0), (math.sin(t) * math.cos(phase),
                                                                     math.sin(t) * math.sin(phase))]))
    src = SourceSpec(pol, off_by(slacks[1], parts))
    v = build_source_state(src, SectorStructure(src.max_photons))
    assert abs(np.vdot(v, v).real - 1) <= 1e-12


EYE = np.eye(2)
VACUUM = np.diag([1.0, 0.0, 0.0])  # |0><0| on K(1)
ONE_PHOTON = SectorStructure(1)

# Every entry point that takes an array argument through fock._array: (call, a valid value, its error type).
ARRAY_ENTRY_POINTS = {
    "WeightedEnsemble unitaries": (lambda a: WeightedEnsemble(a, [1.0]), EYE[None], NotUnitaryError),
    "WeightedEnsemble weights": (lambda a: WeightedEnsemble([EYE], a), np.ones(1), WeightSumError),
    "sector_lifts": (lambda a: sector_lifts(a, 2), EYE[None], NotUnitaryError),
    "lift_symmetric": (lambda a: lift_symmetric(a, 2), EYE, NotUnitaryError),
    "block_lift": (lambda a: block_lift(a, ONE_PHOTON), EYE, NotUnitaryError),
    "check_density": (lambda a: check_density(a, 3), VACUUM, NotDensityOperatorError),
    "apply_channel": (lambda a: apply_channel(pauli_ensemble(), ONE_PHOTON, a), VACUUM, NotDensityOperatorError),
    "parity_dephase": (lambda a: parity_dephase(a, ONE_PHOTON), VACUUM, NotDensityOperatorError),
    "photon_number_dephase": (lambda a: photon_number_dephase(a, ONE_PHOTON), VACUUM, NotDensityOperatorError),
    "trace_norm": (trace_norm, EYE, DimensionError),
    "as_choi_operator": (lambda a: as_choi_operator(a, ONE_PHOTON), np.eye(9), SectorRangeError),
}


def with_a_bool(v):
    """``v`` as nested lists with its first entry replaced by True."""
    nested = v.tolist()
    inner = nested
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = True
    return nested


MALFORMED_ARRAYS = {
    "string": lambda v: v.astype(str),
    "bool": lambda v: v.astype(bool),
    "bool among numbers": with_a_bool,
    "object": lambda v: v.astype(object),
    "ragged": lambda v: [v.tolist(), v.tolist()[:-1]],
    "nested past 64 levels": lambda v: functools.reduce(lambda nest, _: [nest], range(65 - v.ndim), v.tolist()),
    "extra axis": lambda v: v[None],
    "short last axis": lambda v: v[..., :-1],
}


@pytest.mark.parametrize("malform", MALFORMED_ARRAYS)
@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_array_arguments_fail_closed_with_their_own_error(entry, malform):
    # numpy would read "1.0" and True as 1, and an object array of floats as numbers
    call, valid, error = ARRAY_ENTRY_POINTS[entry]
    call(valid)
    with pytest.raises(error):
        call(MALFORMED_ARRAYS[malform](valid))


def test_build_source_state_two_photon_amplitudes():
    alpha, beta = 0.6, 0.8
    src = SourceSpec(PolarizationSpec(alpha, beta), (0.0, 0.0, 1.0))
    s = SectorStructure(2)
    psi = build_source_state(src, s)
    # |psi_2> = alpha^2|2,0> + sqrt(2) alpha beta |1,1> + beta^2|0,2>
    assert np.isclose(psi[s.index(2, 2)], alpha**2)
    assert np.isclose(psi[s.index(2, 1)], np.sqrt(2) * alpha * beta)
    assert np.isclose(psi[s.index(2, 0)], beta**2)
    assert np.isclose(np.linalg.norm(psi), 1.0)


def test_build_source_state_matches_per_index_formula(rng):
    for top in range(9):
        s = SectorStructure(top + 1)
        alpha, beta = random_state(rng, 2)
        amps = random_state(rng, top + 1)
        expected = np.zeros(s.total_dim, dtype=complex)
        for n, c in enumerate(amps):
            for k in range(n + 1):
                expected[s.index(n, k)] = c * alpha**k * beta ** (n - k) * np.sqrt(math.comb(n, k))
        psi = build_source_state(SourceSpec(PolarizationSpec(alpha, beta), tuple(amps)), s)
        assert np.abs(psi - expected).max() <= 1e-15


def test_build_source_state_pads_into_larger_structure():
    src = SourceSpec(PolarizationSpec(1.0, 0.0), (0.6, 0.8))
    s = SectorStructure(3)
    psi = build_source_state(src, s)
    assert np.isclose(psi[0], 0.6)
    assert np.isclose(psi[s.index(1, 1)], 0.8)
    assert np.allclose(psi[3:], 0.0)


def test_build_source_state_rejects_overflow():
    src = SourceSpec(PolarizationSpec(1.0, 0.0), (0.0, 0.0, 1.0))
    with pytest.raises(DimensionError):
        build_source_state(src, SectorStructure(1))


def test_symmetric_embedding_is_isometry():
    for n in range(5):
        v = symmetric_embedding(n)
        assert v.shape == (2**n, n + 1)
        assert np.allclose(v.conj().T @ v, np.eye(n + 1))


def test_symmetric_embedding_two_photon_columns():
    v = symmetric_embedding(2)
    assert np.allclose(v[:, 0], [1, 0, 0, 0])
    assert np.allclose(v[:, 1], [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])
    assert np.allclose(v[:, 2], [0, 0, 0, 1])


@pytest.mark.parametrize("n", range(11))
def test_symmetric_embedding_entries(n):
    # Row r has one nonzero, exactly 1/sqrt(C(n, c)), in column c = popcount(r).
    v = symmetric_embedding(n)
    assert v.shape == (2**n, n + 1)
    for row, entries in enumerate(v.tolist()):
        c = bin(row).count("1")
        assert [col for col, z in enumerate(entries) if z != 0] == [c]
        assert entries[c] == 1.0 / math.sqrt(math.comb(n, c))


@pytest.mark.parametrize(
    "mat",
    [
        # zeros of both signs in both parts, read through a transposed, non-contiguous view
        np.array([[complex(0.6, -0.0), complex(-0.0, 0.8)], [complex(-0.0, -0.8), complex(0.6, 0.0)]]).T,
        -np.eye(3),
        [[complex(-0.0, 1.0), complex(0.5, -0.0)], [1j, complex(-0.0, -0.0)]],
    ],
    ids=["transposed-view", "real-eye", "nested-lists"],
)
def test_json_pairs_match_the_per_entry_loop(mat):
    pairs = _json_pairs(mat)
    # json.dumps prints -0.0 with its sign, so equal strings mean equal signs too
    assert json.dumps(pairs) == json.dumps([[[z.real, z.imag] for z in row] for row in mat])
    assert {type(x) for row in pairs for pair in row for x in pair} == {float}
