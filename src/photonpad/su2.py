"""Lifting qubit unitaries to photon-number sectors, and exact Haar averages.

A polarization rotation U in U(2) acts on the n-photon sector as the
restriction of U^(x n) to the symmetric subspace,

    L_n(U) = V_n^dag U^(x n) V_n,

the (n+1)-dimensional spin-n/2 representation. ``sector_lifts`` never forms
the 2^n x 2^n power. Splitting the last photon off sector n gives
V_n = (V_{n-1} (x) I_2) W_n with a fixed real isometry W_n, so

    L_n(U) = W_n^T (L_{n-1}(U) (x) U) W_n,   L_0(U) = 1.

In the descending-k layout W_n has two nonzeros per column: |k, n-k> is
sqrt(k/n) |k-1, n-k>|0> + sqrt((n-k)/n) |k, n-k-1>|1>. One step costs
O(n^2) per unitary, so a sweep to sector N costs O(N^3) and lifts a whole
stack of unitaries at once. Every step compresses a unitary through an
isometry, so rounding error grows about linearly in n. ``lift_symmetric``
and ``block_lift`` take their sectors from this sweep. Every input unitary
must satisfy ||U^dag U - I||_F <= ``UNITARY_TOL``. These three public
functions check their raw input on every call. A ``WeightedEnsemble`` is
checked once, when it is constructed, on its own copy of the arrays, so the
sweeps inside ``choi_block``, the encryption channel and ``is_k_design``
run the same recursion (``_lift_sweep``) on the validated stack directly.

Haar averages over U(2) come in two independent forms:

* closed form: averaging L(U) rho L(U)^dag over Haar-random U projects each
  sector onto its maximally mixed state and erases all cross-sector blocks
  (``haar_channel_apply``, ``haar_choi``);
* exact quadrature: ``HaarQuadrature`` integrates any moment of degree
  <= order in U and in conj(U) with zero quadrature error, and
  ``haar_moment`` builds the dense 4^k x 4^k Haar moment operator from it.
  Both serve only as oracles: ``designs.is_k_design`` decides from spin blocks
  of ``sector_lifts`` and never calls them.

Quadrature construction: write U = [[e^{i phi} cos t, e^{i psi} sin t],
[-e^{-i psi} sin t, e^{-i phi} cos t]] with phi, psi in [0, 2pi) and t in
[0, pi/2]; the Haar measure is sin t cos t dt dphi dpsi / (2 pi^2).
A monomial of degree k in U and k in conj(U) is a trigonometric
polynomial of degree <= 2k in phi and psi, exact on uniform grids of 2k+1
points, and a polynomial of degree <= k in u = cos(2t), exact on k+1
Gauss-Legendre nodes.

Density operators are checked (Hermiticity, unit trace, no negative
eigenvalue) at the fixed tolerance ``DENSITY_TOL``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    NotDensityOperatorError,
    NotUnitaryError,
    QuadratureOrderError,
    SectorRangeError,
    SpinRangeError,
)
from .fock import SectorStructure, _is_int
from .linalg import DENSITY_TOL, frobenius

__all__ = [
    "sector_lifts",
    "lift_symmetric",
    "block_lift",
    "multiplicity",
    "HaarQuadrature",
    "tensor_power",
    "haar_moment",
    "haar_channel_apply",
    "haar_choi",
    "check_density",
]


UNITARY_TOL = 1e-10


def _check_qubit_unitaries(us: np.ndarray) -> np.ndarray:
    """Validate a stack of qubit unitaries: ||u^dag u - I||_F <= ``UNITARY_TOL`` for each."""
    us = np.asarray(us, dtype=np.complex128)
    if us.ndim != 3 or us.shape[1:] != (2, 2):
        raise NotUnitaryError(f"expected a stack of 2x2 matrices, got shape {us.shape}")
    # Entries near the float range overflow to an inf or NaN residual, which fails below.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm(us.conj().transpose(0, 2, 1) @ us - np.eye(2), axis=(1, 2))
    bad = np.flatnonzero(~(residual <= UNITARY_TOL))
    if bad.size:
        raise NotUnitaryError(f"element {bad[0]} is not unitary within tolerance")
    return us


def tensor_power(u: np.ndarray, k: int) -> np.ndarray:
    """k-fold Kronecker power; k = 0 gives the 1x1 identity."""
    out = np.eye(1, dtype=np.complex128)
    for _ in range(k):
        out = np.kron(out, u)
    return out


def sector_lifts(unitaries: np.ndarray, top: int) -> list[np.ndarray]:
    """Lifts of a stack of qubit unitaries to every sector 0..top in one sweep.

    ``unitaries`` has shape (m, 2, 2). Returns ``[L_0, ..., L_top]`` with
    ``L_n`` of shape (m, n+1, n+1) in the descending-k Fock basis of sector
    n, built by the recursion L_n(U) = W_n^T (L_{n-1}(U) (x) U) W_n.
    """
    us = _check_qubit_unitaries(unitaries)
    if not (_is_int(top) and top >= 0):
        raise SectorRangeError(f"top sector must be a non-negative int, got {top!r}")
    return _lift_sweep(us, int(top))


@functools.cache
def _column_weights(n: int) -> np.ndarray:
    """The two nonzeros of each column of W_n, shape (2, n).

    w[0, c] = sqrt((n-c)/n) and w[1, c] = sqrt((c+1)/n). Read-only, since the
    cache hands the same array to every sweep. Only w is cached: the
    (2, n, 2, n) outer products of every n up to 200 would hold about 86 MB.
    """
    roots = np.sqrt(np.arange(n + 1))
    w = np.stack((roots[n:0:-1], roots[1 : n + 1])) / roots[n]
    w.setflags(write=False)
    return w


def _lift_sweep(us: np.ndarray, top: int) -> list[np.ndarray]:
    """The ``sector_lifts`` recursion on a stack already checked as (m, 2, 2) complex128 unitaries."""
    m = us.shape[0]
    lifts = [np.ones((m, 1, 1), dtype=np.complex128)]
    for n in range(1, top + 1):
        # Row c of L_{n-1} feeds row c + b of L_n, where b is the last photon's
        # polarization, with weight w[0, c] for b = 0 (horizontal) and w[1, c]
        # for b = 1. Columns alike, so t[:, b, c, e, d] = U[b, e] w[b, c] w[e, d] L_{n-1}[c, d].
        w = _column_weights(n)
        t = us[:, :, None, :, None] * np.multiply.outer(w, w) * lifts[-1][:, None, :, None, :]
        out = np.zeros((m, n + 1, n + 1), dtype=np.complex128)
        out[:, :n, :n] = t[:, 0, :, 0]
        out[:, :n, 1:] += t[:, 0, :, 1]
        out[:, 1:, :n] += t[:, 1, :, 0]
        out[:, 1:, 1:] += t[:, 1, :, 1]
        lifts.append(out)
    return lifts


def lift_symmetric(u: np.ndarray, n: int) -> np.ndarray:
    """Spin-n/2 lift of a qubit unitary: V_n^dag u^(x n) V_n.

    Shape (n+1, n+1) in the descending-k Fock basis of sector n; ``n = 0``
    returns the 1x1 identity. Satisfies L_n(uw) = L_n(u) L_n(w) and
    L_n(u)^dag = L_n(u^dag). Computed by ``sector_lifts``.
    """
    return sector_lifts(np.asarray(u, dtype=np.complex128)[None], n)[n][0]


def block_lift(u: np.ndarray, structure: SectorStructure) -> np.ndarray:
    """Direct sum of sector lifts: L(U) = L_0(U) (+) ... (+) L_N(U) on K(N)."""
    out = np.zeros((structure.total_dim, structure.total_dim), dtype=np.complex128)
    for n, lifted in enumerate(sector_lifts(np.asarray(u, dtype=np.complex128)[None], structure.max_photons)):
        out[structure.sector_slice(n), structure.sector_slice(n)] = lifted[0]
    return out


def multiplicity(k: int, s) -> int:
    """Multiplicity of the spin-s irreducible block inside (C^2)^(x k).

    ``s`` may be an int, Fraction, or float equal to a half-integer with the
    same parity as k (integer spins for even k, half-odd for odd k), with
    s <= k/2. Closed form: (2s+1)/(k/2+s+1) * C(k, k/2+s), always an integer.
    The multiplicities satisfy sum_s (2s+1) m_s = 2^k.
    """
    if not (_is_int(k) and k >= 1):
        raise SpinRangeError(f"tensor order k must be a positive int, got {k!r}")
    two_s = Fraction(s).limit_denominator(2) * 2
    if two_s.denominator != 1 or Fraction(s) * 2 != two_s:
        raise SpinRangeError(f"spin {s!r} is not a half-integer")
    two_s = int(two_s)
    if two_s < 0 or two_s > k:
        raise SpinRangeError(f"spin {s!r} outside 0..{k}/2 for k={k}")
    if two_s % 2 != k % 2:
        raise SpinRangeError(f"spin {s!r} has wrong parity for k={k}")
    return _multiplicity(k, two_s)


def _multiplicity(k: int, n: int) -> int:
    """Multiplicity of spin n/2 in (C^2)^(x k), for 0 <= n <= k with n = k (mod 2).

    The closed form (n+1) C(k, j) / (j+1) with j = (k+n)/2, in integer
    arithmetic; it is the ballot number C(k, j) - C(k, j+1), so the division is exact.
    """
    j = (k + n) // 2
    return (n + 1) * math.comb(k, j) // (j + 1)


@dataclass(frozen=True)
class HaarQuadrature:
    """Product quadrature rule exact for balanced Haar moments up to ``order``.

    2*order+1 uniform points in each of phi and psi and order+1
    Gauss-Legendre points in u = cos(2 theta), the fewest that are exact:
    any integrand that is a polynomial of degree <= order in the entries of
    U and degree <= order in their conjugates is integrated with zero
    quadrature error.
    """

    order: int

    def __post_init__(self):
        if not (_is_int(self.order) and self.order >= 1):
            raise QuadratureOrderError(f"order must be a positive int, got {self.order!r}")

    @cached_property
    def _nodes(self) -> tuple[np.ndarray, np.ndarray]:
        m, g = 2 * self.order + 1, self.order + 1
        phi = 2.0 * np.pi * np.arange(m) / m
        u, w = np.polynomial.legendre.leggauss(g)
        cos_t = np.sqrt((1.0 + u) / 2.0)
        sin_t = np.sqrt((1.0 - u) / 2.0)
        count = m * m * g
        us = np.empty((count, 2, 2), dtype=np.complex128)
        ws = np.empty(count)
        idx = 0
        for a in range(m):
            ea = np.exp(1j * phi[a])
            for b in range(m):
                eb = np.exp(1j * phi[b])
                for c in range(g):
                    us[idx, 0, 0] = ea * cos_t[c]
                    us[idx, 0, 1] = eb * sin_t[c]
                    us[idx, 1, 0] = -np.conj(eb) * sin_t[c]
                    us[idx, 1, 1] = np.conj(ea) * cos_t[c]
                    ws[idx] = w[c] / (2.0 * m * m)
                    idx += 1
        return us, ws

    @property
    def unitaries(self) -> np.ndarray:
        """All quadrature nodes as an (n_nodes, 2, 2) array of SU(2) matrices."""
        return self._nodes[0]

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights; they are positive and sum to one."""
        return self._nodes[1]

    @property
    def node_count(self) -> int:
        return (2 * self.order + 1) ** 2 * (self.order + 1)

    def average(self, f) -> np.ndarray:
        """Haar average of a matrix-valued function of U."""
        us, ws = self._nodes
        acc = None
        for u, w in zip(us, ws):
            term = w * np.asarray(f(u), dtype=np.complex128)
            acc = term if acc is None else acc + term
        return acc


def _moment(unitaries: np.ndarray, weights: np.ndarray, k: int) -> np.ndarray:
    """sum_j w_j U_j^(x k) (x) conj(U_j)^(x k), a 4^k x 4^k matrix."""
    dim = 4**k
    out = np.zeros((dim, dim), dtype=np.complex128)
    for u, w in zip(unitaries, weights):
        uk = tensor_power(u, k)
        out += w * np.kron(uk, uk.conj())
    return out


def haar_moment(k: int) -> np.ndarray:
    """Haar moment operator M_k = integral of U^(x k) (x) conj(U)^(x k) dU.

    A 4^k x 4^k Hermitian idempotent (the projector onto operators commuting
    with the diagonal k-fold action), integrated by the order-k quadrature.
    """
    if not (_is_int(k) and k >= 1):
        raise QuadratureOrderError(f"moment order k must be a positive int, got {k!r}")
    quad = HaarQuadrature(k)
    return _moment(quad.unitaries, quad.weights, k)


def check_density(rho: np.ndarray, dim: int) -> np.ndarray:
    """Validate a density operator of the given dimension (at ``DENSITY_TOL``) and return it.

    Positivity: rho passes if rho + DENSITY_TOL I has a Cholesky factor; only if
    not does ``eigvalsh`` decide, failing a smallest eigenvalue below -DENSITY_TOL.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (dim, dim):
        raise NotDensityOperatorError(f"expected shape {(dim, dim)}, got {rho.shape}")
    if not np.all(np.isfinite(rho.view(np.float64))):
        raise NotDensityOperatorError("density operator contains non-finite entries")
    if frobenius(rho - rho.conj().T) > DENSITY_TOL:
        raise NotDensityOperatorError("density operator is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > DENSITY_TOL:
        raise NotDensityOperatorError(f"trace {np.trace(rho)!r} is not 1 within tolerance")
    try:
        np.linalg.cholesky(rho + DENSITY_TOL * np.eye(dim))
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(rho)
        if w.min() < -DENSITY_TOL:
            raise NotDensityOperatorError(f"negative eigenvalue {w.min():.3e}") from None
    return rho


def _check_pure_density(vec: np.ndarray) -> None:
    """Validate a state vector v as ``check_density`` validates v v^dag.

    v v^dag, and every pinching of it onto groups of photon-number sectors,
    is Hermitian and positive semidefinite with trace ||v||^2, so only
    finiteness and the trace are left to check.
    """
    if not np.all(np.isfinite(vec)):
        raise NotDensityOperatorError("density operator contains non-finite entries")
    trace = np.vdot(vec, vec).real
    if abs(trace - 1.0) > DENSITY_TOL:
        raise NotDensityOperatorError(f"trace {trace!r} is not 1 within tolerance")


def haar_channel_apply(rho: np.ndarray, structure: SectorStructure) -> np.ndarray:
    """Closed-form Haar-averaged encryption of a state on K(N).

    Averaging L(U) rho L(U)^dag over Haar-random U gives

        rho' = sum_n tr[rho Pi_n] Pi_n / (n+1):

    every sector collapses to its maximally mixed state weighted by the
    sector population, and all coherence between different photon numbers
    is erased.
    """
    rho = check_density(rho, structure.total_dim)
    out = np.zeros_like(rho)
    for n in range(structure.max_photons + 1):
        s = structure.sector_slice(n)
        population = np.trace(rho[s, s]).real
        out[s, s] = (population / (n + 1)) * np.eye(n + 1)
    return out


def haar_choi(structure: SectorStructure) -> np.ndarray:
    """Choi operator of the Haar-averaged channel on K(N).

    With the convention J = (E (x) I)(|Omega><Omega|), |Omega> = sum_i |ii>
    unnormalized, the Haar channel gives

        J = sum_n Pi_n (x) Pi_n / (n+1),

    which is positive semidefinite with tr_1 J = I.
    """
    d = structure.total_dim
    out = np.zeros((d * d, d * d), dtype=np.complex128)
    for n in range(structure.max_photons + 1):
        p = structure.projector(n)
        out += np.kron(p, p) / (n + 1)
    return out
