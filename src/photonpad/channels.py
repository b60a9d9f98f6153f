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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import WeightedEnsemble
from .errors import SectorRangeError
from .fock import SectorStructure, _is_int
from .su2 import _block_lifts, check_density, lift_symmetric

__all__ = [
    "lifted_ensemble",
    "apply_channel",
    "choi_block",
    "ChoiOperator",
    "full_choi",
    "as_choi_operator",
    "parity_dephase",
    "photon_number_dephase",
]


def lifted_ensemble(ensemble: WeightedEnsemble, structure: SectorStructure) -> np.ndarray:
    """All ensemble elements lifted to K(N), shape (size, D, D)."""
    return _block_lifts(ensemble.unitaries, structure)


def _encrypt(lifted: np.ndarray, weights: np.ndarray, rho: np.ndarray, tol: float) -> np.ndarray:
    """sum_j q_j L_j rho L_j^dag for a lifted ensemble of shape (size, D, D)."""
    rho = check_density(rho, lifted.shape[-1], tol)
    weighted = weights[:, None, None] * lifted
    return (weighted @ rho @ lifted.conj().transpose(0, 2, 1)).sum(axis=0)


def apply_channel(
    ensemble: WeightedEnsemble,
    structure: SectorStructure,
    rho: np.ndarray,
    tol: float = 1e-10,
) -> np.ndarray:
    """Encrypt a density operator: sum_j q_j L(U_j) rho L(U_j)^dag."""
    return _encrypt(lifted_ensemble(ensemble, structure), ensemble.weights, rho, tol)


def choi_block(
    ensemble: WeightedEnsemble,
    m: int,
    n: int,
    structure: SectorStructure | None = None,
) -> np.ndarray:
    """Sector-pair Choi block C_mn, shape ((m+1)^2, (n+1)^2).

    Any non-negative m, n are meaningful; passing a structure additionally
    bounds them by its maximum photon number.
    """
    for label, sector in (("m", m), ("n", n)):
        if not (_is_int(sector) and sector >= 0):
            raise SectorRangeError(f"sector {label}={sector!r} must be a non-negative int")
    if structure is not None:
        m = structure.check_sector(m)
        n = structure.check_sector(n)
    out = np.zeros(((m + 1) ** 2, (n + 1) ** 2), dtype=np.complex128)
    for w, u in ensemble.items():
        vm = lift_symmetric(u, m).reshape(-1)
        vn = lift_symmetric(u, n).reshape(-1)
        out += w * np.outer(vm, vn.conj())
    return out


@dataclass(frozen=True, eq=False)
class ChoiOperator:
    """Full Choi operator of an encryption channel on K(N).

    ``matrix`` is the D^2 x D^2 operator with D = structure.total_dim, rows
    and columns indexed by pairs (a, i) flattened row-major. ``blocks`` maps
    (m, n) to the sector-pair submatrix with both row factors in sector m
    and both column factors in sector n; everything outside these blocks
    is structurally zero.
    """

    matrix: np.ndarray
    structure: SectorStructure
    blocks: dict

    def block(self, m: int, n: int) -> np.ndarray:
        m = self.structure.check_sector(m)
        n = self.structure.check_sector(n)
        return self.blocks[(m, n)]

    def to_json_dict(self) -> dict:
        """Schema: {"max_photons": N, "blocks": [{"m", "n", "matrix"}, ...]}."""
        blocks = []
        for m in range(self.structure.max_photons + 1):
            for n in range(self.structure.max_photons + 1):
                b = self.block(m, n)
                blocks.append(
                    {"m": m, "n": n, "matrix": [[[z.real, z.imag] for z in row] for row in b]}
                )
        return {"max_photons": self.structure.max_photons, "blocks": blocks}


def _pair_indices(structure: SectorStructure, n: int) -> list[int]:
    d = structure.total_dim
    s = structure.sector_slice(n)
    return [a * d + i for a in range(s.start, s.stop) for i in range(s.start, s.stop)]


def as_choi_operator(matrix: np.ndarray, structure: SectorStructure) -> ChoiOperator:
    """Wrap a D^2 x D^2 Choi matrix, slicing out its sector-pair block map."""
    d = structure.total_dim
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (d * d, d * d):
        raise SectorRangeError(f"expected shape {(d * d, d * d)}, got {matrix.shape}")
    blocks = {}
    for m in range(structure.max_photons + 1):
        rows = _pair_indices(structure, m)
        for n in range(structure.max_photons + 1):
            cols = _pair_indices(structure, n)
            blocks[(m, n)] = matrix[np.ix_(rows, cols)]
    return ChoiOperator(matrix=matrix, structure=structure, blocks=blocks)


def full_choi(ensemble: WeightedEnsemble, structure: SectorStructure) -> ChoiOperator:
    """Choi operator J = sum_j q_j vec(L(U_j)) vec(L(U_j))^dag, plus its block map."""
    vecs = lifted_ensemble(ensemble, structure).reshape(ensemble.size, -1)
    return as_choi_operator((ensemble.weights * vecs.T) @ vecs.conj(), structure)


def parity_dephase(rho: np.ndarray, structure: SectorStructure, tol: float = 1e-10) -> np.ndarray:
    """Remove coherence between even and odd photon-number sectors."""
    rho = check_density(rho, structure.total_dim, tol)
    even, odd = structure.parity_projectors()
    return even @ rho @ even + odd @ rho @ odd


def photon_number_dephase(
    rho: np.ndarray, structure: SectorStructure, tol: float = 1e-10
) -> np.ndarray:
    """Remove all coherence between distinct photon-number sectors."""
    rho = check_density(rho, structure.total_dim, tol)
    out = np.zeros_like(rho)
    for n in range(structure.max_photons + 1):
        p = structure.projector(n)
        out += p @ rho @ p
    return out
