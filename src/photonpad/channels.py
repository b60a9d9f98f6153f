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

``apply_channel``, the reference channel for mixed states, encrypts sector
by sector from one ``sector_lifts`` sweep in 2(N+1) GEMMs; no verdict calls it.
The two dephasers mask by the group labels n mod P of ``_group_labels`` (P = 2
for parity, N + 1 for photon number), and ``leakage``, which accepts only them
or no pre-channel (P = 1), splits its trace norm over the same groups without a
lift (``security``).
"""

from __future__ import annotations

import numpy as np

from .designs import WeightedEnsemble
from .errors import SectorRangeError
from .fock import SectorStructure, _array, _count, _photon_numbers
from .su2 import _choi_block, _lift_sweep, check_density

__all__ = [
    "apply_channel",
    "choi_block",
    "as_choi_operator",
    "parity_dephase",
    "photon_number_dephase",
]


def apply_channel(ensemble: WeightedEnsemble, structure: SectorStructure, rho: np.ndarray) -> np.ndarray:
    """Encrypt a density operator: sum_j q_j L(U_j) rho L(U_j)^dag, from one lift sweep.

    The reference channel for mixed states; no verdict calls it. Column
    sector n of all rho L(U_j)^dag is one GEMM of rho's sector-n columns with
    the L_n(U_j)^dag side by side; row sector m of the sum is one GEMM of the
    q_j L_m(U_j) side by side with the sector-m rows of those products.
    """
    rho = check_density(rho, structure.total_dim)
    lifts = _lift_sweep(ensemble.unitaries, structure.max_photons)
    s, d = ensemble.size, structure.total_dim
    slices = [structure.sector_slice(n) for n in range(len(lifts))]
    right = np.empty((d, s, d), dtype=np.complex128)  # right[a, j, c] = (rho L(U_j)^dag)[a, c]
    for n, lift in enumerate(lifts):
        daggers = lift.conj().transpose(2, 0, 1).reshape(n + 1, -1)
        right[:, :, slices[n]] = (rho[:, slices[n]] @ daggers).reshape(d, s, n + 1)
    out = np.empty((d, d), dtype=np.complex128)
    for n, lift in enumerate(lifts):
        weighted = (ensemble.weights[:, None, None] * lift).transpose(1, 2, 0).reshape(n + 1, -1)
        out[slices[n]] = weighted @ right[slices[n]].reshape(-1, d)
    return out


def choi_block(ensemble: WeightedEnsemble, m: int, n: int) -> np.ndarray:
    """Sector-pair Choi block C_mn, shape ((m+1)^2, (n+1)^2), for any sectors m, n >= 0.

    One lift sweep to max(m, n) gives the stacks A_m, A_n of flattened
    lifts, and C_mn = (q A_m)^T conj(A_n) (``su2._choi_block``).
    """
    m, n = _count(m, "sector m"), _count(n, "sector n")
    return _choi_block(_lift_sweep(ensemble.unitaries, max(m, n)), ensemble.weights, m, n)


def as_choi_operator(matrix: np.ndarray, structure: SectorStructure) -> dict:
    """Sector-pair block map {(m, n): C_mn} of a dense D^2 x D^2 Choi matrix.

    Rows and columns of ``matrix`` are pairs (a, i) flattened row-major with
    D = structure.total_dim; block (m, n) keeps the rows with both factors
    in sector m and the columns with both factors in sector n. The package
    itself never forms the dense matrix: this slicing is the oracle's view
    that ``choi_block`` and the ``haar`` command are checked against.
    """
    d = structure.total_dim
    j = _array(matrix, (d * d, d * d), "Choi matrix", SectorRangeError).reshape(d, d, d, d)
    sectors = range(structure.max_photons + 1)
    slices = [structure.sector_slice(n) for n in sectors]
    return {
        (m, n): j[slices[m], slices[m], slices[n], slices[n]].reshape((m + 1) ** 2, (n + 1) ** 2)
        for m in sectors
        for n in sectors
    }


def _dephasing_period(pre_channel, structure: SectorStructure) -> int:
    """The period P of a pre-channel that keeps only the blocks between basis states of equal n mod P.

    No pre-channel is one group (P = 1), ``parity_dephase`` groups by parity
    (P = 2) and ``photon_number_dephase`` by photon number (P = N + 1); any
    other value, even a lambda doing the same, raises TypeError. The dephasers
    are matched by identity with this module's globals, so a wrapper bound in
    their place, as the benchmark's tracer binds, matches too.
    """
    if pre_channel is None:
        return 1
    if pre_channel is parity_dephase:
        return 2
    if pre_channel is photon_number_dephase:
        return structure.max_photons + 1
    raise TypeError(f"pre_channel must be None, parity_dephase or photon_number_dephase, got {pre_channel!r}")


def _group_labels(top: int, period: int) -> np.ndarray:
    """Group label n mod ``period`` of each basis state of K(top), in layout order."""
    return _photon_numbers(top) % period


def _dephase(rho: np.ndarray, structure: SectorStructure, period: int) -> np.ndarray:
    """Zero every entry of a checked density operator between basis states of different n mod ``period``."""
    rho = check_density(rho, structure.total_dim)
    groups = _group_labels(structure.max_photons, period)
    return np.where(groups[:, None] == groups[None, :], rho, 0)


def parity_dephase(rho: np.ndarray, structure: SectorStructure) -> np.ndarray:
    """Remove coherence between even and odd photon-number sectors."""
    return _dephase(rho, structure, 2)


def photon_number_dephase(rho: np.ndarray, structure: SectorStructure) -> np.ndarray:
    """Remove all coherence between distinct photon-number sectors."""
    return _dephase(rho, structure, structure.max_photons + 1)
