"""The random-unitary encryption channel on K(N) and its Choi operator.

Encrypting with a weighted ensemble applies each lifted unitary with its
weight:

    E(rho) = sum_j q_j L(U_j) rho L(U_j)^dag.

The channel is characterized by its Choi operator J = (E (x) I)(|Omega><Omega|)
with the unnormalized pair state |Omega> = sum_m |omega_m>, where
|omega_m> = sum_k |e_k^m> (x) |e_k^m> runs over the sector-m basis. Because
every L(U) is block diagonal over photon-number sectors, J is supported on
sector-pair blocks only; the (m, n) block

    C_mn = sum_j q_j vec(L_m(U_j)) vec(L_n(U_j))^dag

is an (m+1)^2 x (n+1)^2 matrix (row-major vec), and it carries exactly the
information an eavesdropper can exploit: the channel matches the Haar
average if and only if every diagonal block equals I/(n+1) and every
off-diagonal block vanishes. Diagonal blocks see only |entries|^2 of the
ensemble elements, while cross blocks pick up the relative phases between
the lifts L_m and L_n, which is why element phase conventions are physical
here.

``apply_channel`` encrypts sector by sector from one ``sector_lifts``
sweep in 2(N+1) GEMMs and never forms a D x D lift; so does ``leakage``
through a pre-channel defined outside this module. With no pre-channel or
with one of the two dephasers below, ``leakage`` lifts nothing: it encrypts
a pure source by rotating its polarization.
"""

from __future__ import annotations

import numpy as np

from .designs import WeightedEnsemble
from .errors import SectorRangeError
from .fock import SectorStructure, _is_int
from .su2 import _lift_sweep, check_density

__all__ = [
    "apply_channel",
    "choi_block",
    "as_choi_operator",
    "parity_dephase",
    "photon_number_dephase",
]


def _encrypt(ensemble: WeightedEnsemble, structure: SectorStructure, op: np.ndarray) -> np.ndarray:
    """sum_j q_j L(U_j) op L(U_j)^dag on K(N) from one lift sweep, with no D x D lift.

    Column sector n of all op L(U_j)^dag is one GEMM of op's sector-n columns
    with the L_n(U_j)^dag side by side; row sector m of the sum is one GEMM of
    the q_j L_m(U_j) side by side with the sector-m rows of those products.
    ``op`` may be any D x D operator (the map is linear); callers check states.
    """
    lifts = _lift_sweep(ensemble.unitaries, structure.max_photons)
    s, d = ensemble.size, structure.total_dim
    slices = [structure.sector_slice(n) for n in range(len(lifts))]
    right = np.empty((d, s, d), dtype=np.complex128)  # right[a, j, c] = (op L(U_j)^dag)[a, c]
    for n, lift in enumerate(lifts):
        daggers = lift.conj().transpose(2, 0, 1).reshape(n + 1, -1)
        right[:, :, slices[n]] = (op[:, slices[n]] @ daggers).reshape(d, s, n + 1)
    out = np.empty((d, d), dtype=np.complex128)
    for n, lift in enumerate(lifts):
        weighted = (ensemble.weights[:, None, None] * lift).transpose(1, 2, 0).reshape(n + 1, -1)
        out[slices[n]] = weighted @ right[slices[n]].reshape(-1, d)
    return out


def apply_channel(ensemble: WeightedEnsemble, structure: SectorStructure, rho: np.ndarray) -> np.ndarray:
    """Encrypt a density operator: sum_j q_j L(U_j) rho L(U_j)^dag."""
    return _encrypt(ensemble, structure, check_density(rho, structure.total_dim))


def choi_block(ensemble: WeightedEnsemble, m: int, n: int) -> np.ndarray:
    """Sector-pair Choi block C_mn, shape ((m+1)^2, (n+1)^2), for any sectors m, n >= 0.

    One lift sweep to max(m, n) gives the stacks A_m, A_n of flattened
    lifts, and C_mn = (q A_m)^T conj(A_n).
    """
    for label, sector in (("m", m), ("n", n)):
        if not (_is_int(sector) and sector >= 0):
            raise SectorRangeError(f"sector {label}={sector!r} must be a non-negative int")
    lifts = _lift_sweep(ensemble.unitaries, max(m, n))
    a_m = lifts[m].reshape(ensemble.size, -1)
    a_n = lifts[n].reshape(ensemble.size, -1)
    return (ensemble.weights[:, None] * a_m).T @ a_n.conj()


def as_choi_operator(matrix: np.ndarray, structure: SectorStructure) -> dict:
    """Sector-pair block map {(m, n): C_mn} of a dense D^2 x D^2 Choi matrix.

    Rows and columns of ``matrix`` are pairs (a, i) flattened row-major with
    D = structure.total_dim; block (m, n) keeps the rows with both factors
    in sector m and the columns with both factors in sector n. The package
    itself never forms the dense matrix: this slicing is the oracle's view
    that ``choi_block`` and the ``haar`` command are checked against.
    """
    d = structure.total_dim
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (d * d, d * d):
        raise SectorRangeError(f"expected shape {(d * d, d * d)}, got {matrix.shape}")
    j = matrix.reshape(d, d, d, d)
    sectors = range(structure.max_photons + 1)
    slices = [structure.sector_slice(n) for n in sectors]
    return {
        (m, n): j[slices[m], slices[m], slices[n], slices[n]].reshape((m + 1) ** 2, (n + 1) ** 2)
        for m in sectors
        for n in sectors
    }


def parity_dephase(rho: np.ndarray, structure: SectorStructure) -> np.ndarray:
    """Remove coherence between even and odd photon-number sectors."""
    rho = check_density(rho, structure.total_dim)
    parity = structure.photon_numbers % 2
    return np.where(parity[:, None] == parity[None, :], rho, 0)


def photon_number_dephase(rho: np.ndarray, structure: SectorStructure) -> np.ndarray:
    """Remove all coherence between distinct photon-number sectors."""
    rho = check_density(rho, structure.total_dim)
    photons = structure.photon_numbers
    return np.where(photons[:, None] == photons[None, :], rho, 0)
