"""Weighted unitary ensembles and k-design certification.

An encryption scheme draws a qubit unitary U_j with probability q_j. It is
a k-design when its moment operator M_k(e) = sum_j q_j U_j^(x k) (x)
conj(U_j)^(x k) equals the Haar one. ``is_k_design`` measures
||M_k(e) - M_k(Haar)||_F without forming either 4^k x 4^k operator. M_k
ignores a global phase on each element, so every U_j is first scaled to
determinant one. By Schur-Weyl duality (Gross, Audenaert & Eisert 2007),
U^(x k) for det U = 1 is a sum of spin blocks L_n(U), for n <= k with
n = k (mod 2), each repeated mu_k(n) = ``multiplicity(k, n/2)`` times,
where L_n is the symmetric lift of ``su2.sector_lifts``. Block (m, n) of
M_k(e) is then a realignment, which keeps Frobenius norms, of the Choi block

    C_mn = sum_j q_j vec(L_m(U_j)) vec(L_n(U_j))^dag

of ``channels.choi_block``, with Haar value delta_mn I/(n+1). The frame
potential F_k(e) = sum_ij q_i q_j |tr(U_i^dag U_j)|^(2k) is the independent
cross-check: F_k(e) - F_k(Haar) is the squared moment deviation, with
F_k(Haar) the Catalan number C(2k, k)/(k+1). The dense ``ensemble_moment``
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

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitaryError, ParseError, WeightSumError
from .fock import _is_int, _json_complex, _json_number, _json_pairs
from .su2 import _check_qubit_unitaries, _lift_sweep, _moment, _multiplicity

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
    "ensemble_to_json_dict",
    "ensemble_from_json_dict",
    "load_ensemble",
]

WEIGHT_TOL = 1e-12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class WeightedEnsemble:
    """A finite ensemble of 2x2 unitaries with a probability weight each."""

    unitaries: np.ndarray
    weights: np.ndarray
    name: str = ""

    def __post_init__(self):
        # Own copies: the caller's arrays stay writeable, and writing to them
        # cannot change an ensemble that was validated here.
        us = np.array(self.unitaries, dtype=np.complex128)
        ws = np.array(self.weights, dtype=np.float64)
        if us.ndim != 3 or us.shape[1:] != (2, 2) or us.shape[0] == 0:
            raise NotUnitaryError(f"expected shape (m, 2, 2), got {us.shape}")
        _check_qubit_unitaries(us)
        if ws.shape != (us.shape[0],):
            raise WeightSumError(f"need {us.shape[0]} weights, got shape {ws.shape}")
        if not np.all(np.isfinite(ws)):
            raise WeightSumError("weights must be finite")
        if np.any(ws <= 0):
            raise WeightSumError("weights must be positive")
        total = float(ws.sum())
        if abs(total - 1.0) > WEIGHT_TOL:
            raise WeightSumError(f"weights sum to {total!r}, not 1 within {WEIGHT_TOL}")
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


def _check_order(k) -> None:
    if not (_is_int(k) and k >= 1):
        raise ValueError(f"k must be a positive int, got {k!r}")


def frame_potential(ensemble: WeightedEnsemble, k: int) -> float:
    """F_k(e) = sum_ij q_i q_j |tr(U_i^dag U_j)|^(2k)."""
    _check_order(k)
    us, ws = ensemble.unitaries, ensemble.weights
    # overlaps[i, j] = tr(U_i^dag U_j)
    overlaps = np.einsum("iab,jab->ij", us.conj(), us)
    powers = np.abs(overlaps) ** (2 * k)
    return float(np.einsum("i,ij,j->", ws, powers, ws).real)


def haar_frame_potential(k: int) -> float:
    """Haar frame potential integral |tr(U)|^(2k) dU for a qubit.

    By invariance the double Haar average collapses to a single one, which
    for a qubit is the k-th Catalan number C(2k, k)/(k+1) (1, 2, 5, 14, ...).
    """
    _check_order(k)
    return float(math.comb(2 * k, k) // (k + 1))


def ensemble_moment(ensemble: WeightedEnsemble, k: int) -> np.ndarray:
    """Ensemble moment operator M_k(e) = sum_j q_j U_j^(x k) (x) conj(U_j)^(x k)."""
    _check_order(k)
    return _moment(ensemble.unitaries, ensemble.weights, k)


@dataclass(frozen=True)
class DesignCheck:
    """Outcome of a k-design test for one ensemble and one order k.

    The verdict is the moment-operator criterion: the ensemble is a k-design
    when ||M_k(e) - M_k(Haar)||_F <= tol. The frame-potential gap is carried
    as an independent cross-check; it equals the squared moment deviation.
    ``frame_passed`` compares that squared norm with the same tol, so it is
    also True when tol < moment_deviation <= sqrt(tol): only ``passed``
    decides the verdict.
    """

    k: int
    moment_deviation: float
    frame_potential: float
    haar_frame_potential: float
    tol: float

    @property
    def frame_gap(self) -> float:
        """F_k(e) - F_k(Haar) >= 0; equals moment_deviation squared."""
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
    stacks = {n: lifts[n].reshape(ensemble.size, -1) for n in sectors}
    mu = {n: _multiplicity(k, n) for n in sectors}
    total = 0.0
    for m in sectors:
        weighted = ensemble.weights[:, None] * stacks[m]
        for n in range(m, k + 1, 2):
            block = weighted.T @ stacks[n].conj()
            if m == n:
                block -= np.eye((n + 1) ** 2) / (n + 1)
            # (m, n) and (n, m) blocks are adjoints of each other
            total += (1 if m == n else 2) * mu[m] * mu[n] * np.vdot(block, block).real
    return math.sqrt(total)


def is_k_design(ensemble: WeightedEnsemble, k: int, tol: float = 1e-9) -> DesignCheck:
    """Test whether an ensemble reproduces Haar moments at order k.

    The verdict is ||M_k(e) - M_k(Haar)||_F <= tol, from the spin-block identity

        ||M_k(e) - M_k(Haar)||_F^2 = sum_mn mu_k(m) mu_k(n) ||C_mn - delta_mn I/(n+1)||_F^2

    over m, n <= k with m = n = k (mod 2), where C_mn is the Choi block of
    the ensemble scaled to determinant one (module docstring). One lift
    sweep to sector k gives every block; each block difference is formed
    directly, so a vanishing deviation comes out at rounding. The
    frame-potential gap is recorded alongside. A k-design is a design at
    every lower order, so checking the target order suffices.
    """
    _check_order(k)
    return DesignCheck(
        k=int(k),
        moment_deviation=_spin_block_deviation(ensemble, int(k)),
        frame_potential=frame_potential(ensemble, k),
        haar_frame_potential=haar_frame_potential(k),
        tol=float(tol),
    )


def key_length(ensemble: WeightedEnsemble) -> float:
    """Key bits consumed by one draw from the ensemble.

    One draw costs the Shannon entropy H(q) = -sum_j q_j log2 q_j of the
    weight distribution.
    """
    ws = ensemble.weights
    return float(-(ws * np.log2(ws)).sum())


def ensemble_to_json_dict(ensemble: WeightedEnsemble) -> dict:
    """Schema: {"name": str, "elements": [{"weight": w, "unitary": [[[re,im],...],...]}]}."""
    return {
        "name": ensemble.name,
        "elements": [
            {"weight": float(w), "unitary": _json_pairs(u)}
            for w, u in zip(ensemble.weights, ensemble.unitaries)
        ],
    }


def ensemble_from_json_dict(data: dict) -> WeightedEnsemble:
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
            weights.append(_json_number(el["weight"]))
            unitaries.append([[_json_complex(z) for z in row] for row in el["unitary"]])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed ensemble element {i}: {exc}") from exc
    if not unitaries:
        raise ParseError("ensemble has no elements")
    try:
        us = np.asarray(unitaries, dtype=np.complex128)
    except ValueError as exc:
        raise ParseError(f"ragged unitary entries: {exc}") from exc
    return WeightedEnsemble(us, np.asarray(weights, dtype=np.float64), name=name)


def load_ensemble(name_or_path: str | os.PathLike) -> WeightedEnsemble:
    """Load a built-in ensemble by name or a JSON ensemble file by path."""
    builders = builtin_ensembles()
    if isinstance(name_or_path, str) and name_or_path in builders:
        return builders[name_or_path]()
    try:
        with open(name_or_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ParseError(
            f"no ensemble named {name_or_path!r}: not a built-in "
            f"({', '.join(sorted(builders))}) and no such file"
        ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read ensemble file {name_or_path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ParseError(f"invalid JSON in {name_or_path!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("ensemble JSON must be an object")
    return ensemble_from_json_dict(data)
