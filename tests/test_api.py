import importlib

import pytest

import photonpad

PUBLIC = [
    "Classification", "DesignCheck", "DimensionError", "HaarQuadrature",
    "NormalizationError", "NotDensityOperatorError", "NotUnitaryError", "ParseError", "PhotonPadError",
    "PolarizationSpec", "QuadratureOrderError", "SectorRangeError", "SectorStructure", "SecurityReport",
    "SourceSpec", "WeightSumError", "WeightedEnsemble", "__version__", "apply_channel", "as_choi_operator",
    "block_lift", "build_source_state", "builtin_ensembles", "choi_block", "clifford12_ensemble",
    "ensemble_moment", "frame_potential", "frobenius", "haar_choi", "haar_frame_potential", "haar_moment",
    "is_k_design", "key_length", "leakage", "lift_symmetric", "load_ensemble", "parity_dephase",
    "pauli_ensemble", "photon_number_dephase", "reproduce_appendix_a", "reproduce_appendix_b",
    "sector_lifts", "security_report", "symmetric_embedding", "trace_norm",
]
MODULES = ["channels", "designs", "errors", "fock", "linalg", "security", "su2"]


def test_package_exports_exactly_the_public_names():
    assert sorted(photonpad.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(photonpad, name), name


@pytest.mark.parametrize("module", MODULES)
def test_module_lists_only_package_names(module):
    names = importlib.import_module(f"photonpad.{module}").__all__
    assert set(names) <= set(PUBLIC)


@pytest.mark.parametrize("module, name", [
    ("su2", "tensor_power"), ("su2", "check_density"), ("designs", "ensemble_from_json_dict"),
    ("security", "AppendixAResult"), ("security", "AppendixBResult"),
])
def test_unlisted_helpers_stay_importable_from_their_module(module, name):
    assert hasattr(importlib.import_module(f"photonpad.{module}"), name)
