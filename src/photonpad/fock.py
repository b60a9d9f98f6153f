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

import itertools
import json
import math
from dataclasses import dataclass, field

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
    def sector_dims(self) -> tuple[int, ...]:
        return tuple(n + 1 for n in range(self.max_photons + 1))

    @property
    def offsets(self) -> tuple[int, ...]:
        out, acc = [], 0
        for d in self.sector_dims:
            out.append(acc)
            acc += d
        return tuple(out)

    @property
    def total_dim(self) -> int:
        n = self.max_photons
        return (n + 1) * (n + 2) // 2

    def check_sector(self, n: int) -> int:
        if not (_is_int(n) and 0 <= n <= self.max_photons):
            raise SectorRangeError(f"sector {n!r} outside 0..{self.max_photons}")
        return int(n)

    def sector_slice(self, n: int) -> slice:
        n = self.check_sector(n)
        off = self.offsets[n]
        return slice(off, off + n + 1)

    def index(self, n: int, k: int) -> int:
        """Flat index of the Fock state |k, n-k> (k horizontal photons)."""
        n = self.check_sector(n)
        if not 0 <= k <= n:
            raise SectorRangeError(f"need 0 <= k <= {n}, got k={k}")
        return self.offsets[n] + (n - k)

    def projector(self, n: int) -> np.ndarray:
        """Orthogonal projector onto sector n as a total_dim matrix."""
        p = np.zeros((self.total_dim, self.total_dim), dtype=np.complex128)
        s = self.sector_slice(n)
        p[s, s] = np.eye(n + 1)
        return p

    def parity_projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(P_even, P_odd): projectors onto even/odd total photon number."""
        even = np.zeros((self.total_dim, self.total_dim), dtype=np.complex128)
        odd = np.zeros_like(even)
        for n in range(self.max_photons + 1):
            target = even if n % 2 == 0 else odd
            s = self.sector_slice(n)
            target[s, s] = np.eye(n + 1)
        return even, odd

    def sector_norms(self, vec: np.ndarray) -> np.ndarray:
        """Euclidean norm of each sector component of a state vector."""
        v = np.asarray(vec, dtype=np.complex128)
        if v.shape != (self.total_dim,):
            raise DimensionError(f"expected vector of length {self.total_dim}, got {v.shape}")
        return np.array([np.linalg.norm(v[self.sector_slice(n)]) for n in range(self.max_photons + 1)])


@dataclass(frozen=True)
class PolarizationSpec:
    """Pure single-photon polarization alpha|1,0> + beta|0,1>, |alpha|^2 + |beta|^2 = 1."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", _as_complex(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _as_complex(self.beta, "beta"))
        norm = abs(self.alpha) ** 2 + abs(self.beta) ** 2
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
    photon_amplitudes: tuple[complex, ...] = field(default=(0.0 + 0j, 1.0 + 0j))

    def __post_init__(self):
        amps = tuple(_as_complex(c, "photon amplitude") for c in self.photon_amplitudes)
        if not amps:
            raise NormalizationError("photon_amplitudes must be non-empty")
        object.__setattr__(self, "photon_amplitudes", amps)
        norm = sum(abs(c) ** 2 for c in amps)
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
            alpha = complex(*data["alpha"])
            beta = complex(*data["beta"])
            amps = tuple(complex(re, im) for re, im in data["photon_amplitudes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed source spec: {exc}") from exc
        return cls(PolarizationSpec(alpha, beta), amps)

    @classmethod
    def from_json(cls, text: str) -> "SourceSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError("source spec JSON must be an object")
        return cls.from_json_dict(data)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def build_source_state(source: SourceSpec, structure: SectorStructure | None = None) -> np.ndarray:
    """State vector of a source on K(N), sector by sector.

    The n-photon component of polarization (alpha, beta) expands binomially
    over the Fock basis:

        |phi_n> = sum_k alpha^k beta^(n-k) sqrt(C(n,k)) |k, n-k>,

    so the returned vector holds c_n * that expansion in each sector. If
    ``structure`` is omitted it is sized by the source itself; a larger
    structure zero-pads the high sectors.
    """
    if structure is None:
        structure = SectorStructure(source.max_photons)
    if source.max_photons > structure.max_photons:
        raise DimensionError(
            f"source reaches {source.max_photons} photons, structure stops at {structure.max_photons}"
        )
    alpha, beta = source.polarization.alpha, source.polarization.beta
    vec = np.zeros(structure.total_dim, dtype=np.complex128)
    for n, c in enumerate(source.photon_amplitudes):
        for k in range(n, -1, -1):
            amp = c * alpha**k * beta ** (n - k) * math.sqrt(math.comb(n, k))
            vec[structure.index(n, k)] = amp
    return vec


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
