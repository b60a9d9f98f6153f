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

import cmath
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
_UNIT_ROUNDOFF = 2.0**-53  # u of a float64; a Python float, as a numpy scalar makes every comparison slow
_PROJECT_ABOVE = 16 * _UNIT_ROUNDOFF  # an input off its constraint by more than this is stored projected
MAX_TOL = 1e-3  # a larger tol would pass order-one deviations, such as pauli's sqrt(2) on the (2,2) block
_MAY_BE_BOOL = frozenset({bool, np.bool_, np.ndarray})  # a 0-d array in a nesting may hold a bool too


def _count(value, name: str, lo: int = 0, hi: int | None = None, error: type = SectorRangeError) -> int:
    """The package's one rule for a count argument: an int or numpy integer, not a bool, in [lo, hi].

    Returns it as an int; ``hi=None`` leaves it unbounded above. Anything else raises ``error``.
    """
    top = math.inf if hi is None else hi
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and lo <= value <= top:
        return int(value)
    raise error(f"{name} must be an int in [{lo}, {top}], got {value!r}")


def _tolerance(value) -> float:
    """The package's one rule for a verdict tolerance: a float or numpy float in (0, ``MAX_TOL``].

    Returns it as a float; anything else, an int, a bool, a string or NaN included, raises ValueError.
    """
    number = float(value) if isinstance(value, (float, np.floating)) else math.nan  # float32(1e-3) > 1e-3 as a float
    if 0 < number <= MAX_TOL:
        return number
    raise ValueError(f"tol must be a number in (0, {MAX_TOL:g}], got {value!r}")


def _array(value, shape: tuple, what: str, error: type, dtype=np.complex128) -> np.ndarray:
    """The package's one rule for numbers: ints or floats (complex too, for a complex ``dtype``), never a bool.

    Returns a copy as ``dtype`` of ``shape``, where None (written n) matches any length; anything else raises
    ``error`` naming ``what``: an int past the float range (an object array), or a bool anywhere, which numpy
    reads among numbers as 0 or 1.
    """
    try:
        array = np.asarray(value)
    except ValueError:  # numpy refuses a ragged nesting, and one past its 64 axes
        depth, inner = 0, value
        while isinstance(inner, (list, tuple)) and inner:
            depth, inner = depth + 1, inner[0]
        fault = "a nesting past 64 levels" if depth > 64 else "a ragged nesting"
        raise error(f"{what} must be numbers, got {fault}") from None
    complex_ok = issubclass(dtype, np.complexfloating)
    if array.dtype.kind not in ("iufc" if complex_ok else "iuf"):
        raise error(f"{what} must be {'' if complex_ok else 'real '}numbers, got dtype {array.dtype}")
    fresh = isinstance(value, (list, tuple))  # numpy copied it, and a flat one holds the numbers themselves
    if not isinstance(value, np.ndarray):
        items = value if fresh and array.ndim == 1 else np.asarray(value, dtype=object).ravel()
        if not _MAY_BE_BOOL.isdisjoint(map(type, items)) and any(np.asarray(x).dtype == bool for x in items):
            raise error(f"{what} must be numbers, got a bool among them")
    # Only a fixed length needs the scan; an amplitude vector, of shape (None,), skips it
    if array.ndim != len(shape) or shape.count(None) < len(shape) and any(
            n not in (None, m) for n, m in zip(shape, array.shape)):
        expected = "one number" if not shape else "of shape " + str(shape).replace("None", "n")
        raise error(f"{what} must be {expected}, got shape {array.shape}")
    return array.astype(dtype, copy=not fresh)


def _unit_amplitudes(values, what: str) -> tuple[complex, ...]:
    """The package's one rule for an amplitude vector: ``_array`` numbers with sum |z|^2 = 1, stored exact to 16u.

    The sum must be 1 within ``NORM_TOL``, or NormalizationError, so an empty or non-finite vector fails too;
    a sum off by more than 16u is divided out, so no admitted slack compounds with N.
    """
    amps = _array(values, (None,), what, NormalizationError).tolist()
    norm = 0.0
    for z in amps:  # products reach inf where abs or ** would raise OverflowError
        norm += z.real * z.real + z.imag * z.imag
    if abs(norm - 1.0) <= _PROJECT_ABOVE:
        return tuple(amps)
    if not abs(norm - 1.0) <= NORM_TOL:
        bad = [z for z in amps if not cmath.isfinite(z)]
        raise NormalizationError(f"{what} must be finite, got {bad[0]!r}" if bad else
                                 f"sum |z|^2 over {what} = {norm!r} is not 1 within {NORM_TOL}")
    scale = 1.0 / math.sqrt(norm)
    return tuple(z * scale for z in amps)


def _read_json_object(path, what: str) -> dict:
    """The package's one reader of an input file: the JSON object the file at ``path`` holds.

    An unreadable file, invalid or too deeply nested JSON, or a value other than an object raises
    ParseError naming ``what`` and the path; the OSError of an unreadable file is its ``__cause__``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable bytes, or a NUL in the path
        raise ParseError(f"cannot read {what} {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an int past the digit limit
        raise ParseError(f"invalid JSON in {what} {path!r}: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{what} {path!r} must hold a JSON object, got {type(data).__name__}")
    return data


def _json_pairs(mat) -> list:
    """A complex matrix as rows of [re, im] Python-float pairs, the inverse of ``_from_json_pairs``.

    One ``tolist`` of the stacked real and imaginary parts builds every row, so
    the pairs are Python floats and each zero keeps its sign.
    """
    m = np.asarray(mat)
    return np.stack((m.real, m.imag), -1).tolist()


def _from_json_pairs(pairs, shape: tuple, what: str) -> np.ndarray:
    """[re, im] pairs nested to ``shape`` as a complex array, the inverse of ``_json_pairs``, by the ``_array`` rule.

    Anything else raises ParseError, naming the shape of the complex array the pairs make; zeros keep their sign.
    """
    parts = _array(pairs, (None,) * len(shape) + (2,), what, ParseError, np.float64)
    return _array(np.ascontiguousarray(parts).view(np.complex128)[..., 0], shape, what, ParseError)


@functools.cache
def _photon_numbers(top: int) -> np.ndarray:
    """Photon number of each basis state of K(top), in layout order; read-only, since the cache shares it."""
    sectors = np.arange(top + 1)
    n = np.repeat(sectors, sectors + 1)
    n.setflags(write=False)
    return n


@dataclass(frozen=True)
class SectorStructure:
    """Index layout of K(N) for a maximum photon number N."""

    max_photons: int

    def __post_init__(self):
        object.__setattr__(self, "max_photons", _count(self.max_photons, "max_photons"))

    @property
    def total_dim(self) -> int:
        n = self.max_photons
        return (n + 1) * (n + 2) // 2

    @property
    def photon_numbers(self) -> np.ndarray:
        """The photon number of each basis state, in layout order: 0, 1, 1, 2, 2, 2, ... (read-only)."""
        return _photon_numbers(self.max_photons)

    def check_sector(self, n: int) -> int:
        return _count(n, "sector", hi=self.max_photons)

    def sector_slice(self, n: int) -> slice:
        n = self.check_sector(n)
        off = n * (n + 1) // 2
        return slice(off, off + n + 1)

    def index(self, n: int, k: int) -> int:
        """Flat index of the Fock state |k, n-k> (k horizontal photons)."""
        n = self.check_sector(n)
        return n * (n + 1) // 2 + (n - _count(k, "k", hi=n))

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
        alpha, beta = _unit_amplitudes((self.alpha, self.beta), "(alpha, beta)")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


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
        amps = _unit_amplitudes(self.photon_amplitudes, "photon_amplitudes")
        object.__setattr__(self, "photon_amplitudes", amps)

    @property
    def max_photons(self) -> int:
        return len(self.photon_amplitudes) - 1

    @classmethod
    def from_json_dict(cls, data: dict) -> "SourceSpec":
        """Schema: {"alpha": [re, im], "beta": [re, im], "photon_amplitudes": [[re, im], ...]}, by ``_array``."""
        try:
            alpha, beta = _from_json_pairs([data["alpha"], data["beta"]], (2,), "(alpha, beta)").tolist()
            amps = _from_json_pairs(data["photon_amplitudes"], (None,), "photon_amplitudes")
        except (KeyError, TypeError, ParseError) as exc:
            raise ParseError(f"malformed source spec: {exc}") from exc
        return cls(PolarizationSpec(alpha, beta), amps)


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
    n = _photon_numbers(top)
    k = n - (np.arange(n.size) - n * (n + 1) // 2)
    roots = np.array([math.sqrt(math.comb(int(a), int(b))) for a, b in zip(n, k)])
    for array in (k, roots):
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
    # Repeated products: numpy's complex power switches to exp/log at exponent 100, which loses digits.
    powers = np.empty((*polarizations.shape, structure.max_photons + 1), dtype=np.complex128)
    powers[..., 0] = 1
    powers[..., 1:] = polarizations[..., None]
    np.cumprod(powers, axis=-1, out=powers)
    return amps[n] * powers[:, 0, k] * powers[:, 1, n - k] * roots


def symmetric_embedding(n: int) -> np.ndarray:
    """Isometry V_n from sector n onto the symmetric subspace of n qubits.

    Column n-k (the position of |k, n-k> in the descending-k layout) is the
    normalized symmetric n-qubit state with k zeros, under |0> = horizontal.
    Shape (2**n, n+1); V_n^dag V_n = I and V_n V_n^dag is the symmetrizer.
    ``n = 0`` returns the 1x1 identity.
    """
    n = _count(n, "photon number")
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
