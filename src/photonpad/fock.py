"""Two-mode Fock space of polarized photons, organized by total photon number.

A pulse holding at most ``N`` photons in two polarization modes (horizontal
``x`` and vertical ``y``) lives in the direct sum

    K(N) = K_0 (+) K_1 (+) ... (+) K_N,

where the n-photon sector K_n is spanned by the Fock states |k, n-k> with
``k`` photons in ``x`` and ``n-k`` in ``y``, so dim K_n = n + 1 and
dim K(N) = (N+1)(N+2)/2.

Basis conventions used everywhere in this package:

* sectors are laid out in ascending photon number;
* inside sector n the basis runs with ``k descending``: |n,0> first,
  |0,n> last;
* the single-photon qubit identification is |0> = |1,0> (horizontal) and
  |1> = |0,1> (vertical).

Sector n is unitarily the symmetric subspace of n qubits: |k, n-k>
corresponds to the normalized symmetric state with ``k`` zeros.
``symmetric_embedding`` returns that isometry explicitly.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NormalizationError, ParseError, SectorRangeError

__all__ = [
    "SectorStructure",
    "PolarizationSpec",
    "SourceSpec",
    "build_source_state",
    "symmetric_embedding",
]

NORM_TOL = 1e-12


def _is_int(value) -> bool:
    """An int or numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _norm_sq(amplitudes) -> float:
    """sum |z|^2, which is inf (never an OverflowError) once a square exceeds the float range."""
    return sum(abs(z) * abs(z) for z in amplitudes)


def _json_number(value) -> float:
    """A JSON number as a float; bools and numeric strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _json_complex(pair) -> complex:
    """An [re, im] pair of JSON numbers as a complex."""
    if not (isinstance(pair, list) and len(pair) == 2):
        raise TypeError(f"expected an [re, im] pair, got {type(pair).__name__}")
    return complex(_json_number(pair[0]), _json_number(pair[1]))


def _json_pairs(mat) -> list:
    """A complex matrix as rows of [re, im] pairs, the inverse of ``_json_complex``."""
    return [[[z.real, z.imag] for z in row] for row in mat]


def _as_complex(value, what: str) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NormalizationError(f"{what} must be finite, got {value!r}")
    return z


@dataclass(frozen=True)
class SectorStructure:
    """Index layout of K(N) for a maximum photon number N."""

    max_photons: int

    def __post_init__(self):
        if not (_is_int(self.max_photons) and self.max_photons >= 0):
            raise SectorRangeError(f"max_photons must be a non-negative int, got {self.max_photons!r}")

    @property
    def total_dim(self) -> int:
        n = self.max_photons
        return (n + 1) * (n + 2) // 2

    @property
    def photon_numbers(self) -> np.ndarray:
        """The photon number of each basis state, in layout order: 0, 1, 1, 2, 2, 2, ..."""
        sectors = np.arange(self.max_photons + 1)
        return np.repeat(sectors, sectors + 1)

    def check_sector(self, n: int) -> int:
        if not (_is_int(n) and 0 <= n <= self.max_photons):
            raise SectorRangeError(f"sector {n!r} outside 0..{self.max_photons}")
        return int(n)

    def sector_slice(self, n: int) -> slice:
        n = self.check_sector(n)
        off = n * (n + 1) // 2
        return slice(off, off + n + 1)

    def index(self, n: int, k: int) -> int:
        """Flat index of the Fock state |k, n-k> (k horizontal photons)."""
        n = self.check_sector(n)
        if not 0 <= k <= n:
            raise SectorRangeError(f"need 0 <= k <= {n}, got k={k}")
        return n * (n + 1) // 2 + (n - k)

    def projector(self, n: int) -> np.ndarray:
        """Orthogonal projector onto sector n as a total_dim matrix."""
        n = self.check_sector(n)
        return np.diag((self.photon_numbers == n).astype(np.complex128))


@dataclass(frozen=True)
class PolarizationSpec:
    """Pure single-photon polarization alpha|1,0> + beta|0,1>, |alpha|^2 + |beta|^2 = 1."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_complex(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _as_complex(self.beta, "beta"))
        norm = _norm_sq((self.alpha, self.beta))
        if abs(norm - 1.0) > NORM_TOL:
            raise NormalizationError(f"|alpha|^2 + |beta|^2 = {norm!r} is not 1 within {NORM_TOL}")


@dataclass(frozen=True)
class SourceSpec:
    """A photon source: one polarization, a superposition of photon numbers.

    ``photon_amplitudes[n]`` is the amplitude c_n of the n-photon component;
    the emitted state is  sum_n c_n |phi_n>  with |phi_n> the n-photon state
    of identical polarization (|phi_0> is the vacuum).
    """

    polarization: PolarizationSpec
    photon_amplitudes: tuple[complex, ...]

    def __post_init__(self):
        amps = tuple(_as_complex(c, "photon amplitude") for c in self.photon_amplitudes)
        if not amps:
            raise NormalizationError("photon_amplitudes must be non-empty")
        object.__setattr__(self, "photon_amplitudes", amps)
        norm = _norm_sq(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise NormalizationError(f"sum |c_n|^2 = {norm!r} is not 1 within {NORM_TOL}")

    @property
    def max_photons(self) -> int:
        return len(self.photon_amplitudes) - 1

    def to_json_dict(self) -> dict:
        return {
            "alpha": [self.polarization.alpha.real, self.polarization.alpha.imag],
            "beta": [self.polarization.beta.real, self.polarization.beta.imag],
            "photon_amplitudes": [[c.real, c.imag] for c in self.photon_amplitudes],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SourceSpec":
        try:
            alpha = _json_complex(data["alpha"])
            beta = _json_complex(data["beta"])
            amps = tuple(_json_complex(c) for c in data["photon_amplitudes"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed source spec: {exc}") from exc
        return cls(PolarizationSpec(alpha, beta), amps)

    @classmethod
    def from_json(cls, text: str) -> "SourceSpec":
        try:
            data = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
            raise ParseError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError("source spec JSON must be an object")
        return cls.from_json_dict(data)


def build_source_state(source: SourceSpec, structure: SectorStructure) -> np.ndarray:
    """State vector of a source on K(N), sector by sector.

    The n-photon component of polarization (alpha, beta) expands binomially
    over the Fock basis:

        |phi_n> = sum_k alpha^k beta^(n-k) sqrt(C(n,k)) |k, n-k>,

    so the returned vector holds c_n * that expansion in each sector. A
    structure larger than the source zero-pads the high sectors.
    """
    pol = source.polarization
    return _source_rows(source, np.array([[pol.alpha, pol.beta]]), structure)[0]


@functools.cache
def _binomial_layout(top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Photon number n, horizontal photons k and sqrt(C(n,k)) of each basis state of K(top), in layout order.

    Read-only, since the cache hands the same arrays to every call.
    """
    n = SectorStructure(top).photon_numbers
    k = n - (np.arange(n.size) - n * (n + 1) // 2)
    roots = np.array([math.sqrt(math.comb(int(a), int(b))) for a, b in zip(n, k)])
    for array in (n, k, roots):
        array.setflags(write=False)
    return n, k, roots


def _source_rows(source: SourceSpec, polarizations: np.ndarray, structure: SectorStructure) -> np.ndarray:
    """The source re-emitted with each polarization of a stack, one state vector per row.

    ``polarizations`` has shape (m, 2), row j holding (alpha_j, beta_j); row j
    of the (m, total_dim) result is sum_n c_n |phi_n(alpha_j, beta_j)>, the
    expansion of ``build_source_state``. The polarizations need not be
    normalized: a lift acts on n identically polarized photons by acting on
    their polarization, L_n(U)|phi_n(p)> = |phi_n(Up)> for every 2x2 U, so
    the rows for U_j p are L(U_j) applied to the source with polarization p.
    """
    if source.max_photons > structure.max_photons:
        raise DimensionError(
            f"source reaches {source.max_photons} photons, structure stops at {structure.max_photons}"
        )
    n, k, roots = _binomial_layout(structure.max_photons)
    amps = np.zeros(structure.max_photons + 1, dtype=np.complex128)
    amps[: source.max_photons + 1] = source.photon_amplitudes
    powers = np.power(polarizations[:, :, None], np.arange(structure.max_photons + 1))
    return amps[n] * powers[:, 0, k] * powers[:, 1, n - k] * roots


def symmetric_embedding(n: int) -> np.ndarray:
    """Isometry V_n from sector n onto the symmetric subspace of n qubits.

    Column n-k (the position of |k, n-k> in the descending-k layout) is the
    normalized symmetric n-qubit state with k zeros, under |0> = horizontal.
    Shape (2**n, n+1); V_n^dag V_n = I and V_n V_n^dag is the symmetrizer.
    ``n = 0`` returns the 1x1 identity.
    """
    if not (_is_int(n) and n >= 0):
        raise SectorRangeError(f"photon number must be a non-negative int, got {n!r}")
    n = int(n)
    v = np.zeros((2**n, n + 1), dtype=np.complex128)
    if n == 0:
        v[0, 0] = 1.0
        return v
    for bits in itertools.product((0, 1), repeat=n):
        k = n - sum(bits)
        row = int("".join(map(str, bits)), 2)
        v[row, n - k] += 1.0
    for k in range(n + 1):
        v[:, n - k] /= math.sqrt(math.comb(n, k))
    return v
