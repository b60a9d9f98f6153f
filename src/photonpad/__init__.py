"""Verification toolkit for random-unitary encryption of polarization states.

The plaintext of an optical encryption scheme is the polarization of a
light pulse; the pulse may contain a superposition of photon numbers. A
qubit unitary drawn from a keyed ensemble acts on every photon at once,
i.e. through its symmetric lift on each photon-number sector. This package
computes those lifts, the resulting encryption channels and their
sector-pair Choi blocks, certifies unitary k-designs from the spin blocks
of one lift sweep, and classifies schemes as SECURE, PARITY_SECURE, or
INSECURE depending on which Choi blocks match the Haar channel.
"""

from .channels import (
    apply_channel,
    as_choi_operator,
    choi_block,
    parity_dephase,
    photon_number_dephase,
)
from .designs import (
    DesignCheck,
    WeightedEnsemble,
    builtin_ensembles,
    clifford12_ensemble,
    ensemble_moment,
    frame_potential,
    haar_frame_potential,
    is_k_design,
    key_length,
    load_ensemble,
    pauli_ensemble,
)
from .errors import (
    DimensionError,
    NormalizationError,
    NotDensityOperatorError,
    NotUnitaryError,
    ParseError,
    PhotonPadError,
    QuadratureOrderError,
    SectorRangeError,
    WeightSumError,
)
from .fock import (
    PolarizationSpec,
    SectorStructure,
    SourceSpec,
    build_source_state,
    symmetric_embedding,
)
from .linalg import frobenius, trace_norm
from .security import (
    AppendixAReference,
    Classification,
    SecurityReport,
    leakage,
    reproduce_appendix_a,
    reproduce_appendix_b,
    security_report,
)
from .su2 import (
    HaarQuadrature,
    block_lift,
    haar_choi,
    haar_moment,
    lift_symmetric,
    sector_lifts,
)

__version__ = "0.1.0"

__all__ = [
    "PhotonPadError",
    "NotUnitaryError",
    "NotDensityOperatorError",
    "DimensionError",
    "SectorRangeError",
    "NormalizationError",
    "QuadratureOrderError",
    "ParseError",
    "WeightSumError",
    "frobenius",
    "trace_norm",
    "SectorStructure",
    "PolarizationSpec",
    "SourceSpec",
    "build_source_state",
    "symmetric_embedding",
    "sector_lifts",
    "lift_symmetric",
    "block_lift",
    "HaarQuadrature",
    "haar_moment",
    "haar_choi",
    "WeightedEnsemble",
    "DesignCheck",
    "pauli_ensemble",
    "clifford12_ensemble",
    "builtin_ensembles",
    "frame_potential",
    "haar_frame_potential",
    "ensemble_moment",
    "is_k_design",
    "key_length",
    "load_ensemble",
    "apply_channel",
    "choi_block",
    "as_choi_operator",
    "parity_dephase",
    "photon_number_dephase",
    "Classification",
    "SecurityReport",
    "security_report",
    "leakage",
    "AppendixAReference",
    "reproduce_appendix_a",
    "reproduce_appendix_b",
    "__version__",
]
