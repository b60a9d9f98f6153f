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
functions check and lift their raw input on every call, since L_n is a
homomorphism for every 2x2 matrix. A ``WeightedEnsemble`` is checked once,
when it is constructed, on its own copy of the arrays, and stores each
element off unitarity by more than rounding as its polar factor, so the
sweeps inside ``choi_block``, the encryption channel and ``is_k_design``
run the same recursion (``_lift_sweep``) on unitaries exact to rounding.
The Choi block C_mn = (q A_m)^T conj(A_n) of a sweep (``_choi_block``), its
distance from the Haar value delta_mn I/(n+1) (``_haar_deviation``) and that
value as payload rows (``_haar_rows``, never an array) are written only here,
for ``choi_block``, the security report, the design check and the ``haar`` command.

Haar averages over U(2) come in two independent forms:

* closed form: averaging L(U) rho L(U)^dag over Haar-random U projects each
  sector onto its maximally mixed state and erases all cross-sector blocks,
  so ``haar_choi`` is a sum of sector projectors;
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
from functools import cached_property

import numpy as np

from .errors import NotDensityOperatorError, NotUnitaryError, QuadratureOrderError
from .fock import SectorStructure, _array, _count
from .linalg import DENSITY_TOL, frobenius

__all__ = [
    "sector_lifts",
    "lift_symmetric",
    "block_lift",
    "HaarQuadrature",
    "haar_moment",
    "haar_choi",
]


UNITARY_TOL = 1e-10


def _check_qubit_unitaries(unitaries) -> tuple[np.ndarray, np.ndarray]:
    """A stack of qubit unitaries as a complex128 copy, and each ||u^dag u - I||_F, checked <= ``UNITARY_TOL``."""
    us = _array(unitaries, (None, 2, 2), "unitary entries", NotUnitaryError)
    # Entries near the float range overflow to an inf or NaN residual, which fails below.
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.linalg.norm(us.conj().transpose(0, 2, 1) @ us - np.eye(2), axis=(1, 2))
    if not residual.max(initial=0.0) <= UNITARY_TOL:  # NaN if any residual is NaN
        bad = np.flatnonzero(~(residual <= UNITARY_TOL))[0]
        raise NotUnitaryError(f"element {bad} is not unitary within tolerance")
    return us, residual


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
    return _lift_sweep(_check_qubit_unitaries(unitaries)[0], _count(top, "top sector"))


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


def _choi_block(lifts: list[np.ndarray], weights: np.ndarray, m: int, n: int) -> np.ndarray:
    """C_mn = (q A_m)^T conj(A_n), where A_n stacks the flattened lifts L_n(U_j) of one sweep."""
    s = weights.size
    return (weights[:, None] * lifts[m].reshape(s, -1)).T @ lifts[n].reshape(s, -1).conj()


def _haar_rows(m: int, n: int) -> list:
    """The Haar Choi block delta_mn I/(n+1) as ``fock._json_pairs`` rows whose lists are shared, not copied.

    A cross block repeats one zero row; row i of a diagonal block is that zero
    row with the pair [1/(n+1), 0.0] at position i. Readers must not write to them.
    """
    zero = [[0.0, 0.0]] * (n + 1) ** 2
    if m != n:
        return [zero] * (m + 1) ** 2
    entry = [1.0 / (n + 1), 0.0]
    return [zero[:i] + [entry] + zero[i + 1 :] for i in range(len(zero))]


def _haar_deviation(block: np.ndarray, m: int, n: int) -> float:
    """||C_mn - delta_mn I/(n+1)||_F; a cross block is measured as it is.

    Consumes ``block``: 1/(n+1) comes off a diagonal block's diagonal in place, so callers pass a fresh product.
    """
    if m == n:
        block.reshape(-1)[:: block.shape[1] + 1] -= 1.0 / (n + 1)
    return math.sqrt(np.vdot(block, block).real)  # np.linalg.norm builds real and imaginary temporaries


def lift_symmetric(u: np.ndarray, n: int) -> np.ndarray:
    """Spin-n/2 lift of a qubit unitary: V_n^dag u^(x n) V_n.

    Shape (n+1, n+1) in the descending-k Fock basis of sector n; ``n = 0``
    returns the 1x1 identity. Satisfies L_n(uw) = L_n(u) L_n(w) and
    L_n(u)^dag = L_n(u^dag). Computed by ``sector_lifts``.
    """
    return sector_lifts([u], n)[n][0]


def block_lift(u: np.ndarray, structure: SectorStructure) -> np.ndarray:
    """Direct sum of sector lifts: L(U) = L_0(U) (+) ... (+) L_N(U) on K(N)."""
    out = np.zeros((structure.total_dim, structure.total_dim), dtype=np.complex128)
    for n, lifted in enumerate(sector_lifts([u], structure.max_photons)):
        out[structure.sector_slice(n), structure.sector_slice(n)] = lifted[0]
    return out


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
        object.__setattr__(self, "order", _count(self.order, "order", lo=1, error=QuadratureOrderError))

    @cached_property
    def _nodes(self) -> tuple[np.ndarray, np.ndarray]:
        m, g = 2 * self.order + 1, self.order + 1
        e = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
        u, w = np.polynomial.legendre.leggauss(g)
        cos_t = np.sqrt((1.0 + u) / 2.0)
        sin_t = np.sqrt((1.0 - u) / 2.0)
        # Node (a, b, c) has phases e[a], e[b] and angle c, in row-major order.
        ea, eb = e[:, None, None], e[None, :, None]
        entries = (ea * cos_t, eb * sin_t, -eb.conj() * sin_t, ea.conj() * cos_t)
        us = np.stack(np.broadcast_arrays(*entries), axis=-1).reshape(-1, 2, 2)
        ws = np.broadcast_to(w / (2.0 * m * m), (m, m, g)).reshape(-1)
        return us, ws

    @property
    def unitaries(self) -> np.ndarray:
        """All quadrature nodes as an (n_nodes, 2, 2) array of SU(2) matrices."""
        return self._nodes[0]

    @property
    def weights(self) -> np.ndarray:
        """Quadrature weights; they are positive and sum to one."""
        return self._nodes[1]


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
    quad = HaarQuadrature(k)
    return _moment(quad.unitaries, quad.weights, k)


def check_density(rho: np.ndarray, dim: int) -> np.ndarray:
    """Validate a density operator of the given dimension (at ``DENSITY_TOL``) and return it."""
    rho = _array(rho, (dim, dim), "density operator", NotDensityOperatorError)
    if not np.all(np.isfinite(rho.view(np.float64))):
        raise NotDensityOperatorError("density operator contains non-finite entries")
    if frobenius(rho - rho.conj().T) > DENSITY_TOL:
        raise NotDensityOperatorError("density operator is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > DENSITY_TOL:
        raise NotDensityOperatorError(f"trace {np.trace(rho)!r} is not 1 within tolerance")
    smallest = np.linalg.eigvalsh(rho).min()
    if smallest < -DENSITY_TOL:
        raise NotDensityOperatorError(f"negative eigenvalue {smallest:.3e}")
    return rho


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
