"""Weighted unitary ensembles and k-design certification.

An encryption scheme draws a qubit unitary U_j with probability q_j. It is
a k-design when its moment operator M_k(e) = sum_j q_j U_j^(x k) (x)
conj(U_j)^(x k) equals the Haar one. ``is_k_design`` measures
||M_k(e) - M_k(Haar)||_F without forming either 4^k x 4^k operator. M_k
ignores a global phase on each element, so every U_j is first scaled to
determinant one. By Schur-Weyl duality (Gross, Audenaert & Eisert 2007),
U^(x k) for det U = 1 is a sum of spin blocks L_n(U), for n <= k with
n = k (mod 2), each repeated mu_k(n) = ``su2._multiplicity(k, n)`` times,
where L_n is the symmetric lift of ``su2.sector_lifts``. Block (m, n) of
M_k(e) is then a realignment, which keeps Frobenius norms, of the Choi block

    C_mn = sum_j q_j vec(L_m(U_j)) vec(L_n(U_j))^dag

of ``channels.choi_block``, with Haar value delta_mn I/(n+1). The frame
potential F_k(e) = sum_ij q_i q_j |tr(U_i^dag U_j)|^(2k) gives the same
number without a lift: F_k(e) - F_k(Haar) is the squared moment deviation,
with F_k(Haar) the Catalan number C(2k, k)/(k+1), and F_k is one reduction
of the table of |tr(U_i^dag U_j)|^2 to the k-th power. That difference of
two O(1) numbers cancels to rounding when the deviation is small, so
``is_k_design`` reads a verdict off the gap only when it fails by a wide
margin, and takes the spin blocks otherwise. The dense ``ensemble_moment``
and ``su2.haar_moment`` stay as oracles.

Two built-in ensembles:

* ``pauli_ensemble``: I, sigma_x, sigma_y, sigma_z with equal weights. A
  1-design (it scrambles any single qubit to the maximally mixed state) but
  not a 2-design.
* ``clifford12_ensemble``: twelve equally weighted rotations, the identity,
  the three binary rotations i sigma_a (angle pi about the coordinate axes),
  and the eight rotations by 2pi/3 about the four cube diagonals. Projectively
  this is the rotation group of the tetrahedron. It is an exact 2-design and
  the smallest group-generated one on a qubit, but fails at k = 3: its frame
  potential there is 6 against the Haar value 5.

The element phases of ``clifford12_ensemble`` are fixed by realizing every
element as a rotation exp(i theta/2 n.sigma) (so determinant one, with the
pi-rotations carrying the factor i). For sector-diagonal quantities phases
cancel, but lifted cross-sector blocks pick up relative phases between odd
and even photon numbers, so the phase convention is part of the ensemble
definition, not a gauge choice.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitaryError, ParseError, WeightSumError
from .fock import _PROJECT_ABOVE, _UNIT_ROUNDOFF, _array, _count, _from_json_pairs, _read_json_object, _tolerance
from .su2 import _check_qubit_unitaries, _choi_block, _haar_deviation, _lift_sweep, _moment, _multiplicity

__all__ = [
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
]

WEIGHT_TOL = 1e-12
MAX_DESIGN_ORDER = 12  # the exact 12-design HaarQuadrature(12) reads 7.9e-13 here, three orders under tol 1e-9
_FRAME_ROWS = 256  # rows of the frame-potential table held at once: 2.4 MB of floats per array at s = 1183

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class WeightedEnsemble:
    """A finite ensemble of 2x2 unitaries with a probability weight each, stored exact to within 16u."""

    unitaries: np.ndarray
    weights: np.ndarray
    name: str = ""

    def __post_init__(self):
        # Own copies: the caller's arrays stay writeable, and writing to them cannot change this ensemble.
        us, residual = _check_qubit_unitaries(self.unitaries)
        if not us.shape[0]:
            raise NotUnitaryError("an ensemble needs at least one element")
        ws = _array(self.weights, (us.shape[0],), "weights", WeightSumError, np.float64)
        if not ((ws > 0) & (ws < math.inf)).all():  # NaN fails both
            raise WeightSumError("weights must be finite and positive")
        total = math.fsum(ws.tolist())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise WeightSumError(f"weights sum to {total!r}, not 1 within {WEIGHT_TOL}")
        if abs(total - 1.0) > _PROJECT_ABOVE:  # the admitted slack decides no verdict
            ws /= total
        far = residual > _PROJECT_ABOVE
        if far.any():
            # The polar factor, by one Newton step X <- (X + X^-dag)/2 with X^-dag =
            # [[d*, -c*], [-b*, a*]] / det(X)*: it takes a residual of 1e-10 to a few u.
            a, b, c, d = us[far].reshape(-1, 4).T
            inverse_dag = np.stack((d, -c, -b, a), axis=-1).conj() / (a * d - b * c).conj()[:, None]
            us[far] = (us[far] + inverse_dag.reshape(-1, 2, 2)) / 2
        us.setflags(write=False)
        ws.setflags(write=False)
        object.__setattr__(self, "unitaries", us)
        object.__setattr__(self, "weights", ws)

    @property
    def size(self) -> int:
        return self.unitaries.shape[0]


def pauli_ensemble() -> WeightedEnsemble:
    """I, sigma_x, sigma_y, sigma_z with weights 1/4 each."""
    us = np.stack([np.eye(2, dtype=np.complex128), SIGMA_X, SIGMA_Y, SIGMA_Z])
    return WeightedEnsemble(us, np.full(4, 0.25), name="pauli")


def clifford12_ensemble() -> WeightedEnsemble:
    """Twelve equally weighted rotations: the tetrahedral 2-design.

    Order of elements: identity; i sigma_x, i sigma_y, i sigma_z; then the
    eight diagonal rotations

        R_klm = cos(pi/3) I + i sin(pi/3) n_klm . sigma,
        n_klm = ((-1)^k, (-1)^l, (-1)^m) / sqrt(3),

    for (k, l, m) in lexicographic order. All twelve have determinant one.
    """
    mats = [np.eye(2, dtype=np.complex128), 1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z]
    half_sqrt3 = math.sqrt(3.0) / 2.0
    for k in (0, 1):
        for l in (0, 1):
            for m in (0, 1):
                n = np.array([(-1.0) ** k, (-1.0) ** l, (-1.0) ** m]) / math.sqrt(3.0)
                axis = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
                mats.append(0.5 * np.eye(2, dtype=np.complex128) + 1j * half_sqrt3 * axis)
    return WeightedEnsemble(np.stack(mats), np.full(12, 1.0 / 12.0), name="clifford12")


def builtin_ensembles() -> dict:
    return {"pauli": pauli_ensemble, "clifford12": clifford12_ensemble}


def _frame_potentials(ensemble: WeightedEnsemble, k: int) -> float:
    """F_k(e) from the table of |tr(U_i^dag U_j)|^2, ``_FRAME_ROWS`` rows i at a time.

    The k-th power is k - 1 products of the table, read by one reduction;
    ``_gap_bound`` counts its roundings. Up to ``_FRAME_ROWS`` elements are
    one block, the whole table; more hold a few ``_FRAME_ROWS`` x s arrays
    at a time and add their blocks' sums exactly rounded.
    """
    flat, ws, b = ensemble.unitaries.reshape(ensemble.size, 4), ensemble.weights, _FRAME_ROWS
    if ensemble.size <= b:
        return _frame_sums(flat, flat, ws, ws, k)
    return math.fsum(_frame_sums(flat[i : i + b], flat, ws[i : i + b], ws, k) for i in range(0, ensemble.size, b))


def _frame_sums(rows: np.ndarray, flat: np.ndarray, row_ws: np.ndarray, ws: np.ndarray, k: int) -> float:
    """The terms of F_k(e) from the flattened elements ``rows``, summed over all elements ``flat``."""
    overlaps = rows.conj() @ flat.T  # tr(U_i^dag U_j)
    squares = overlaps.real**2 + overlaps.imag**2
    power = squares.copy()
    for _ in range(k - 1):
        power *= squares
    return float(row_ws @ power @ ws)


def frame_potential(ensemble: WeightedEnsemble, k: int) -> float:
    """F_k(e) = sum_ij q_i q_j |tr(U_i^dag U_j)|^(2k)."""
    return _frame_potentials(ensemble, _count(k, "k", lo=1, hi=MAX_DESIGN_ORDER, error=ValueError))


def _catalan(k: int) -> float:
    return float(math.comb(2 * k, k) // (k + 1))  # F_k(Haar) = C(2k, k)/(k + 1), for a k already validated


def haar_frame_potential(k: int) -> float:
    """Haar frame potential integral |tr(U)|^(2k) dU for a qubit.

    By invariance the double Haar average collapses to a single one, which
    for a qubit is the k-th Catalan number C(2k, k)/(k+1) (1, 2, 5, 14, ...).
    """
    return _catalan(_count(k, "k", lo=1, hi=MAX_DESIGN_ORDER, error=ValueError))


def ensemble_moment(ensemble: WeightedEnsemble, k: int) -> np.ndarray:
    """Ensemble moment operator M_k(e) = sum_j q_j U_j^(x k) (x) conj(U_j)^(x k)."""
    return _moment(ensemble.unitaries, ensemble.weights, _count(k, "k", lo=1, error=ValueError))


@dataclass(frozen=True)
class DesignCheck:
    """Outcome of a k-design test for one ensemble and one order k.

    The verdict is the moment-operator criterion: the ensemble is a k-design
    when ||M_k(e) - M_k(Haar)||_F <= tol. The frame-potential gap equals the
    squared moment deviation within rounding, so it can read below 0. Where
    the spin blocks decide (every passing check, and failures near tol) it is
    an independent cross-check; where the gap decided a clear failure,
    moment_deviation is sqrt(frame_gap). ``frame_passed`` compares that
    squared norm with the same tol, so it is also True when
    tol < moment_deviation <= sqrt(tol): only ``passed`` decides the verdict.
    """

    k: int
    moment_deviation: float
    frame_potential: float
    haar_frame_potential: float
    tol: float

    @property
    def frame_gap(self) -> float:
        """F_k(e) - F_k(Haar): moment_deviation squared within ``_gap_bound``, so rounding can put it below 0."""
        return self.frame_potential - self.haar_frame_potential

    @property
    def passed(self) -> bool:
        return self.moment_deviation <= self.tol

    @property
    def frame_passed(self) -> bool:
        return self.frame_gap <= self.tol

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "moment_deviation": self.moment_deviation,
            "frame_potential": self.frame_potential,
            "haar_frame_potential": self.haar_frame_potential,
            "frame_gap": self.frame_gap,
            "tol": self.tol,
            "passed": self.passed,
        }


def _spin_block_deviation(ensemble: WeightedEnsemble, k: int) -> float:
    """||M_k(e) - M_k(Haar)||_F from the spin blocks of one lift sweep."""
    us = ensemble.unitaries
    det = us[:, 0, 0] * us[:, 1, 1] - us[:, 0, 1] * us[:, 1, 0]
    lifts = _lift_sweep(us / np.sqrt(det)[:, None, None], k)
    sectors = range(k % 2, k + 1, 2)
    mu = {n: _multiplicity(k, n) for n in sectors}
    total = 0.0
    for m in sectors:
        for n in range(m, k + 1, 2):
            deviation = _haar_deviation(_choi_block(lifts, ensemble.weights, m, n), m, n)
            # (m, n) and (n, m) blocks are adjoints of each other
            total += (1 if m == n else 2) * mu[m] * mu[n] * deviation**2
    return math.sqrt(total)


def _gap_bound(ensemble: WeightedEnsemble, k: int, potential: float, haar: float) -> float:
    """B >= |fl(F_k(e) - F_k(Haar)) - deviation^2|, deviation being the spin-block one.

    ``potential`` is F_k(e) from ``_frame_potentials``; u is the unit
    roundoff, s the ensemble size and C_k = F_k(Haar). Two terms:

    * rounding, to first order in u, constants rounded up. An overlap t is a
      complex 4-term dot product, off by at most
      sqrt(2) gamma_8 ||U_i||_F ||U_j||_F = 16 sqrt(2) u, so |t|^(2k) is off
      by 32 sqrt(2) k u |t|^(2k-1), and sum q_i q_j |t|^(2k-1) <=
      F_k^((2k-1)/(2k)) <= F_k by the power-mean inequality, as sum q_i q_j
      is 1 to first order and F_k >= C_k >= 1. Squaring the table adds 2k u
      relative, the k - 1 products (k - 1) u, the two weighted sums 2s u, and
      the subtraction of C_k and the sum tol^2 + B the screen compares with
      at most 3u F_k. The spin blocks see U_j / sqrt(det U_j), and every
      stored element is unitary within 16u (``WeightedEnsemble``), so
      |det U_j| is within 16u / sqrt(2) of 1, which moves F_k by at most
      16 sqrt(2) k u F_k; the Haar cross term moves only at second order.
      The weighted sums' terms are nonnegative, so a term that passes d
      roundings is off by at most d u relative. In blocks of b =
      ``_FRAME_ROWS`` rows a term passes at most b + s + 1 (b in its row
      block, s over the columns, one in ``math.fsum``), and a second block
      exists only when s >= b + 1, so the 2s u term still covers it.
    * weights: the cross term is off by 2 |sum q - 1| C_k <= 34u C_k, as stored weights sum to 1 within 17u.
    """
    return _UNIT_ROUNDOFF * ((72 * k + 2 * ensemble.size + 4) * potential + 34 * haar)


def is_k_design(ensemble: WeightedEnsemble, k: int, tol: float = 1e-9) -> DesignCheck:
    """Test whether an ensemble reproduces Haar moments at order k.

    The verdict is ||M_k(e) - M_k(Haar)||_F <= tol, from the spin-block identity

        ||M_k(e) - M_k(Haar)||_F^2 = sum_mn mu_k(m) mu_k(n) ||C_mn - delta_mn I/(n+1)||_F^2

    over m, n <= k with m = n = k (mod 2), where C_mn is the Choi block of
    the ensemble scaled to determinant one (module docstring). One lift
    sweep to sector k gives every block; each block difference is formed
    directly, so a vanishing deviation comes out at rounding.

    The frame-potential gap comes first, from one reduction of the streamed
    s x s table of |tr(U_i^dag U_j)|^2 to the k-th power. It decides a check
    only when it fails clearly: gap > tol^2 + B and B <= 1e-12 gap, where B
    (``_gap_bound``) bounds |fl(gap) - deviation^2| from the rounding of the
    table, of its sums and of the elements' unitarity, and from the weight
    sum. The first condition makes the deviation exceed tol at any tol; the
    second keeps moment_deviation = sqrt(gap) within about 5e-13 relative of
    the spin-block value. Every other check, every passing one included,
    takes the spin blocks, and a NaN never satisfies the screen.
    A k-design is a design at every lower order, so checking the target
    order suffices. A k outside [1, ``MAX_DESIGN_ORDER``] raises ValueError
    before any work.
    """
    k, tol = _count(k, "k", lo=1, hi=MAX_DESIGN_ORDER, error=ValueError), _tolerance(tol)
    potential, haar = _frame_potentials(ensemble, k), _catalan(k)
    gap, bound = potential - haar, _gap_bound(ensemble, k, potential, haar)
    # A clear failure: deviation^2 >= gap - bound > tol^2 at any tol, and
    # sqrt(gap) is within 5e-13 relative of the deviation. NaN compares False.
    if gap > tol * tol + bound and bound <= 1e-12 * gap:
        deviation = math.sqrt(gap)
    else:
        deviation = _spin_block_deviation(ensemble, k)
    return DesignCheck(k=k, moment_deviation=deviation, frame_potential=potential,
                       haar_frame_potential=haar, tol=tol)


def key_length(ensemble: WeightedEnsemble) -> float:
    """Key bits consumed by one draw from the ensemble.

    One draw costs the Shannon entropy H(q) = -sum_j q_j log2 q_j of the
    weight distribution.
    """
    ws = ensemble.weights
    return float(-(ws * np.log2(ws)).sum())


def ensemble_from_json_dict(data: dict) -> WeightedEnsemble:
    """Schema: {"name": str, "elements": [{"weight": w, "unitary": [[[re,im],...],...]}]}.

    Each weight and each [re, im] pair takes the ``fock._array`` number rule: a bool, a string, an int past
    the float range or a unitary other than 2x2 raises ParseError naming the element's index.
    """
    try:
        name = data.get("name", "")
        elements = data["elements"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed ensemble spec: {exc}") from exc
    if not isinstance(name, str):
        raise ParseError(f"ensemble name must be a string, got {type(name).__name__}")
    if not isinstance(elements, list):
        raise ParseError(f"ensemble elements must be a list, got {type(elements).__name__}")
    weights, unitaries = [], []
    for i, el in enumerate(elements):
        try:
            weights.append(_array(el["weight"], (), "weight", ParseError, np.float64))
            unitaries.append(_from_json_pairs(el["unitary"], (2, 2), "unitary"))
        except (KeyError, TypeError, ParseError) as exc:
            raise ParseError(f"malformed ensemble element {i}: {exc}") from exc
    if not unitaries:
        raise ParseError("ensemble has no elements")
    return WeightedEnsemble(np.array(unitaries), np.array(weights), name=name)


def load_ensemble(name_or_path: str | os.PathLike) -> WeightedEnsemble:
    """Load a built-in ensemble by name or a JSON ensemble file by path; a file with no name, or "", takes its path."""
    builders = builtin_ensembles()
    if isinstance(name_or_path, str) and name_or_path in builders:
        return builders[name_or_path]()
    try:
        data = _read_json_object(name_or_path, "ensemble file")
    except ParseError as exc:
        if not isinstance(exc.__cause__, FileNotFoundError):
            raise
        raise ParseError(
            f"no ensemble named {name_or_path!r}: not a built-in "
            f"({', '.join(sorted(builders))}) and no such file"
        ) from None
    if data.get("name", "") == "":
        data["name"] = os.fsdecode(name_or_path)
    return ensemble_from_json_dict(data)
