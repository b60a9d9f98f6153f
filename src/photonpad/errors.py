"""Exception types raised by photonpad validation checks."""

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
]


class PhotonPadError(ValueError):
    """Base class for all photonpad validation errors."""


class NotUnitaryError(PhotonPadError):
    """Matrix expected to be unitary is not, within tolerance."""


class NotDensityOperatorError(PhotonPadError):
    """Operator is not a valid density matrix (Hermitian, PSD, unit trace)."""


class DimensionError(PhotonPadError):
    """Operand dimensions do not match the expected sector layout."""


class SectorRangeError(PhotonPadError):
    """Photon-number sector index outside the configured range."""


class NormalizationError(PhotonPadError):
    """Amplitude vector is not normalized within tolerance."""


class QuadratureOrderError(PhotonPadError):
    """Quadrature rule is too coarse for the requested moment order."""


class ParseError(PhotonPadError):
    """Malformed JSON payload for an ensemble, source, or unitary."""


class WeightSumError(PhotonPadError):
    """Ensemble weights are negative or do not sum to one."""
