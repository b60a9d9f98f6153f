"""Security verdicts for random-unitary encryption of polarization states.

A scheme is private exactly when its average output carries no information
about the plaintext, which on K(N) means its Choi operator matches the Haar
channel's block by block: every sector-diagonal block must equal the
maximally mixed I/(n+1) and every cross-sector block must vanish. The
deviation table

    Delta_mn = || C_mn - delta_mn I / (n+1) ||_F

turns that into a classification:

* SECURE         every block within tolerance;
* PARITY_SECURE  all blocks with m = n (mod 2) pass but some cross-parity
                 block fails, so plaintexts confined to one photon-number
                 parity (or parity-dephased beforehand) are still protected;
* INSECURE       some same-parity block fails.

``leakage`` gives the operational counterpart: the trace distance between
two encrypted sources, i.e. the best distinguishing probability bias an
eavesdropper can achieve. A source's photons share one polarization, so a
rotation encrypts it by rotating that polarization, and the trace norm
splits over the groups of sectors a dephaser keeps apart; only a
pre-channel from outside the package needs lifts and a dense D x D output.

The module also packages two fixed reference computations used as
end-to-end checks (and exposed by the command line as ``reproduce
appendix-a`` and ``reproduce appendix-b``): the nonzero (2,1) Choi block
that breaks privacy of the twelve-element rotation ensemble for sources
mixing one- and two-photon components, and the closed-form encrypted output
for a vacuum + two-photon source showing polarization erasure within fixed
parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import _encrypt, apply_channel, choi_block, parity_dephase, photon_number_dephase
from .designs import WeightedEnsemble, clifford12_ensemble
from .errors import NormalizationError
from .fock import PolarizationSpec, SectorStructure, SourceSpec, _json_pairs, _source_rows, build_source_state
from .linalg import frobenius, trace_norm
from .su2 import _check_pure_density, check_density

__all__ = [
    "Classification",
    "SecurityReport",
    "security_report",
    "leakage",
    "AppendixAReference",
    "AppendixAResult",
    "reproduce_appendix_a",
    "AppendixBResult",
    "reproduce_appendix_b",
]


class Classification(str, Enum):
    SECURE = "SECURE"
    PARITY_SECURE = "PARITY_SECURE"
    INSECURE = "INSECURE"


def _classify(deviations: np.ndarray, tol: float) -> Classification:
    fails = ~(deviations <= tol)
    if not fails.any():
        return Classification.SECURE
    m_idx, n_idx = np.nonzero(fails)
    if all((m - n) % 2 for m, n in zip(m_idx, n_idx)):
        return Classification.PARITY_SECURE
    return Classification.INSECURE


@dataclass(frozen=True, eq=False)
class SecurityReport:
    """Per-block Choi deviations from the Haar target, with a verdict."""

    ensemble_name: str
    max_photons: int
    tol: float
    deviations: np.ndarray
    classification: Classification

    def deviation(self, m: int, n: int) -> float:
        return float(self.deviations[m, n])

    @property
    def worst_block(self) -> tuple[int, int]:
        """The block with the largest deviation; of an (m, n), (n, m) pair, the one with m < n."""
        m, n = np.unravel_index(int(np.argmax(self.deviations)), self.deviations.shape)
        return int(m), int(n)

    @property
    def worst_deviation(self) -> float:
        return float(self.deviations.max())

    def to_json_dict(self) -> dict:
        blocks = [
            {"m": m, "n": n, "deviation": float(self.deviations[m, n])}
            for m in range(self.max_photons + 1)
            for n in range(self.max_photons + 1)
        ]
        return {
            "ensemble": self.ensemble_name,
            "max_photons": self.max_photons,
            "tol": self.tol,
            "classification": self.classification.value,
            "blocks": blocks,
            "worst_block": list(self.worst_block),
            "worst_deviation": self.worst_deviation,
        }


def security_report(
    ensemble: WeightedEnsemble, max_photons: int, tol: float = 1e-9
) -> SecurityReport:
    """Compare every sector-pair Choi block against the Haar target.

    Block (m, n) is held against delta_mn I/(n+1): diagonal blocks must be
    maximally mixed, cross blocks must vanish. The resulting deviation
    table drives the SECURE / PARITY_SECURE / INSECURE verdict. Only the
    blocks with m <= n are computed: C_nm = C_mn^dag, so the table is
    symmetric by construction and ``worst_block`` is never decided by rounding.
    """
    top = SectorStructure(max_photons).max_photons  # validates max_photons
    deviations = np.zeros((top + 1, top + 1))
    for m in range(top + 1):
        for n in range(m, top + 1):
            block = choi_block(ensemble, m, n)
            if m == n:
                block = block - np.eye((n + 1) ** 2) / (n + 1)
            deviations[m, n] = deviations[n, m] = frobenius(block)
    deviations.setflags(write=False)
    return SecurityReport(
        ensemble_name=ensemble.name or "ensemble",
        max_photons=top,
        tol=float(tol),
        deviations=deviations,
        classification=_classify(deviations, tol),
    )


def leakage(
    ensemble: WeightedEnsemble,
    source_a: SourceSpec,
    source_b: SourceSpec,
    max_photons: int,
    pre_channel=None,
) -> float:
    """Trace distance between the encrypted outputs of two sources.

    Returns (1/2) || E(rho_a) - E(rho_b) ||_1 in [0, 1]; zero means an
    eavesdropper seeing only ciphertexts cannot tell the sources apart.
    ``pre_channel``, if given, is applied to both plaintext states first
    (e.g. ``parity_dephase`` with signature (rho, structure)).

    With no pre-channel, ``parity_dephase`` or ``photon_number_dephase``
    nothing is lifted. A source's photons share one polarization p, so
    L(U_j) v is the source re-emitted with polarization U_j p; stacking those
    rows into W gives E(v v^dag) = W^T diag(q) conj(W). Each dephaser keeps
    only blocks within groups of equal parity or photon number, and E keeps
    them apart, so the trace norm is the sum of |eigenvalues| of one small
    Hermitian matrix per group, never a D x D one when dephasing. Each
    plaintext vector is checked once, which for v v^dag and its pinchings is
    what ``check_density`` checks. Any other pre-channel takes the dense path:
    its outputs are checked as density operators, their difference is
    encrypted once from one lift sweep, and the trace norm is an SVD.
    """
    structure = SectorStructure(max_photons)
    if pre_channel is None:
        groups = np.zeros(structure.total_dim, dtype=int)
    elif pre_channel is parity_dephase:
        groups = structure.photon_numbers % 2
    elif pre_channel is photon_number_dephase:
        groups = structure.photon_numbers
    else:
        states = []
        for source in (source_a, source_b):
            vec = build_source_state(source, structure)
            states.append(check_density(pre_channel(np.outer(vec, vec.conj()), structure), structure.total_dim))
        return 0.5 * trace_norm(_encrypt(ensemble, structure, states[0] - states[1]))
    rows = []
    for source in (source_a, source_b):
        p = np.array([source.polarization.alpha, source.polarization.beta])
        stacked = _source_rows(source, np.concatenate([p[None], ensemble.unitaries @ p]), structure)
        _check_pure_density(stacked[0])
        rows.append(stacked[1:])
    w = np.concatenate(rows)
    signed = np.concatenate([ensemble.weights, -ensemble.weights])
    total = 0.0
    for group in range(groups.max() + 1):
        block = w[:, groups == group]
        total += np.abs(np.linalg.eigvalsh((block.T * signed) @ block.conj())).sum()
    return 0.5 * float(total)


@dataclass(frozen=True)
class AppendixAReference:
    """Fixed reference for the twelve-rotation ensemble's (2,1) Choi block.

    The 9x4 block in the descending-k product basis (first tensor factor
    major) is fully determined by three constants in a sparse sign pattern;
    16 entries are nonzero (2 of modulus |a|, 10 of |b|, 4 of c) and the
    basis-independent checksum is ||C||_F^2 = 2|a|^2 + 10|b|^2 + 4c^2 = 1/2.
    A nonzero cross-sector block certifies that the ensemble is not private
    for plaintexts mixing one- and two-photon components.
    """

    a: complex = (3 + 1j) / 12
    b: complex = (1 + 1j) / 12
    c: float = 1.0 / (3.0 * math.sqrt(2.0))

    def matrix(self) -> np.ndarray:
        a, b, c = self.a, self.b, self.c
        bc = np.conj(b)
        rows = [
            [a, 0, 0, -b],
            [0, c, 0, 0],
            [0, b, -bc, 0],
            [0, 0, c, 0],
            [bc, -bc, b, b],
            [0, c, 0, 0],
            [0, b, -bc, 0],
            [0, 0, c, 0],
            [-bc, 0, 0, np.conj(a)],
        ]
        return np.array(rows, dtype=np.complex128)

    @property
    def checksum(self) -> float:
        return 2 * abs(self.a) ** 2 + 10 * abs(self.b) ** 2 + 4 * self.c**2


@dataclass(frozen=True, eq=False)
class AppendixAResult:
    computed: np.ndarray
    reference: np.ndarray
    max_deviation: float
    checksum: float
    checksum_deviation: float
    tol: float

    @property
    def nonzero(self) -> bool:
        return bool(np.abs(self.computed).max() > self.tol)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol and self.checksum_deviation <= self.tol and self.nonzero

    def to_json_dict(self) -> dict:
        return {
            "max_deviation": self.max_deviation,
            "checksum": self.checksum,
            "checksum_deviation": self.checksum_deviation,
            "nonzero": self.nonzero,
            "tol": self.tol,
            "passed": self.passed,
            "computed": _json_pairs(self.computed),
            "reference": _json_pairs(self.reference),
        }


def reproduce_appendix_a(tol: float = 1e-10) -> AppendixAResult:
    """Recompute the twelve-rotation (2,1) Choi block against its reference.

    Checks three things: entrywise agreement with the reference pattern
    under this library's basis conventions, the basis-independent checksum
    ||C||_F^2 = 1/2, and that the block is nonzero at all (the insecurity
    witness).
    """
    reference = AppendixAReference()
    computed = choi_block(clifford12_ensemble(), 2, 1)
    ref = reference.matrix()
    checksum = float(np.sum(np.abs(computed) ** 2))
    return AppendixAResult(
        computed=computed,
        reference=ref,
        max_deviation=float(np.abs(computed - ref).max()),
        checksum=checksum,
        checksum_deviation=abs(checksum - reference.checksum),
        tol=float(tol),
    )


@dataclass(frozen=True, eq=False)
class AppendixBResult:
    output: np.ndarray
    reference: np.ndarray
    deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tol

    def to_json_dict(self) -> dict:
        return {
            "deviation": self.deviation,
            "tol": self.tol,
            "passed": self.passed,
            "output": _json_pairs(self.output),
            "reference": _json_pairs(self.reference),
        }


def reproduce_appendix_b(
    c: complex, alpha: complex, beta: complex, tol: float = 1e-10
) -> AppendixBResult:
    """Encrypt a vacuum + two-photon source and compare to the closed form.

    The source c|vac> + sqrt(1-|c|^2)|2 photons, polarization (alpha, beta)>
    encrypted with the twelve-rotation ensemble must come out as

        |c|^2 |vac><vac| + (1 - |c|^2) Pi_2 / 3,

    independent of the polarization: within the fixed parity the scheme
    erases everything except the photon-number distribution.
    """
    c = complex(c)
    if abs(c) > 1 + 1e-12:
        raise NormalizationError(f"|c| = {abs(c)!r} exceeds 1")
    polarization = PolarizationSpec(alpha, beta)
    weight = min(abs(c) ** 2, 1.0)
    source = SourceSpec(polarization, (c, 0.0, math.sqrt(1.0 - weight)))
    structure = SectorStructure(2)
    vec = build_source_state(source, structure)
    rho = np.outer(vec, vec.conj())
    output = apply_channel(clifford12_ensemble(), structure, rho)
    reference = np.zeros_like(output)
    reference[0, 0] = weight
    reference += (1.0 - weight) * structure.projector(2) / 3.0
    return AppendixBResult(
        output=output,
        reference=reference,
        deviation=frobenius(output - reference),
        tol=float(tol),
    )

