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
rotation encrypts it by rotating that polarization (``_encrypted_rows``), and
the trace norm splits over the groups of sectors a dephaser keeps apart
(``channels._group_labels``). Blocks and Haar deviations come from ``su2``.

The module also packages two fixed reference computations used as
end-to-end checks (and exposed by the command line as ``reproduce
appendix-a`` and ``reproduce appendix-b``): the nonzero (2,1) Choi block
that breaks privacy of the twelve-element rotation ensemble for sources
mixing one- and two-photon components, held against the read-only
constant ``_APPENDIX_A``, and the closed-form encrypted output for a vacuum +
two-photon source showing polarization erasure within fixed parity. Every
verdict takes its ``tol`` through ``fock._tolerance``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channels import _dephasing_period, _group_labels, choi_block
from .designs import WeightedEnsemble, clifford12_ensemble
from .errors import NormalizationError
from .fock import (NORM_TOL, PolarizationSpec, SectorStructure, SourceSpec, _array, _count, _json_pairs,
                   _source_rows, _tolerance)
from .linalg import frobenius
from .su2 import _haar_deviation

__all__ = [
    "Classification",
    "SecurityReport",
    "security_report",
    "leakage",
    "reproduce_appendix_a",
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
        return float(self.deviations[tuple(_count(i, "sector", hi=self.max_photons) for i in (m, n))])

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
    top, tol = SectorStructure(max_photons).max_photons, _tolerance(tol)
    deviations = np.zeros((top + 1, top + 1))
    for m in range(top + 1):
        for n in range(m, top + 1):
            deviations[m, n] = deviations[n, m] = _haar_deviation(choi_block(ensemble, m, n), m, n)
    deviations.setflags(write=False)
    return SecurityReport(
        ensemble_name=ensemble.name or "ensemble",
        max_photons=top,
        tol=tol,
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
    ``pre_channel``, None, ``parity_dephase`` or ``photon_number_dephase``, is
    applied to both plaintexts first; any other value raises TypeError before
    any work. A custom pre-channel ``pre`` composes as 0.5 * trace_norm(
    apply_channel(e, s, pre(rho_a)) - apply_channel(e, s, pre(rho_b))).

    Nothing is lifted. A source's photons share one polarization p, so
    L(U_j) v is the source re-emitted with polarization U_j p; stacking those
    rows of both sources into the (2s, D) matrix W gives
    E(rho_a) - E(rho_b) = W^T diag(q, -q) conj(W). Each dephaser keeps only
    blocks within groups of equal parity or photon number, and E keeps them
    apart, so the trace norm is the sum of |eigenvalues| of one Hermitian
    matrix per group, of rank at most 2s. No D x D matrix is formed: groups of
    at most ``_STACKED_WIDTH`` states share one batched eigensolve, and a group
    much wider than 2s is cut by a QR to a 2s x 2s core with the same nonzero
    eigenvalues (``_signed_group_norm``).
    """
    structure = SectorStructure(max_photons)
    period = _dephasing_period(pre_channel, structure)
    rows = [_encrypted_rows(ensemble, source, structure) for source in (source_a, source_b)]
    signed = np.concatenate([ensemble.weights, -ensemble.weights])
    return 0.5 * _signed_group_norm(np.concatenate(rows), signed, _group_columns(structure.max_photons, period))


def _encrypted_rows(ensemble: WeightedEnsemble, source: SourceSpec, structure: SectorStructure) -> np.ndarray:
    """The (s, D) rows w_j = L(U_j) v, the source re-emitted with polarization U_j p.

    The plaintext v v^dag needs no density check: it and its pinchings are Hermitian and positive, and with c
    and p stored exact to 16u (``SourceSpec``), ||v||^2 = sum_n |c_n|^2 (|alpha|^2 + |beta|^2)^n is 1 within
    about (N + 2) 16u, and each entry is a finite product of c_n, alpha, beta and sqrt(C(n, k)).
    """
    p = np.array([source.polarization.alpha, source.polarization.beta])
    return _source_rows(source, ensemble.unitaries @ p, structure)


# Up to this group width numpy's per-call cost outweighs the eigensolve, so
# such groups are zero-padded into one stack and solved in one call. Wider
# padding costs more than the calls it saves once W has 48 rows: with one BLAS
# thread, the N = 30 photon-number groups took 1.9 ms stacked up to width 12
# and 2.4 ms up to width 16.
_STACKED_WIDTH = 12


@functools.cache
def _group_columns(top: int, period: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Basis-state indices of each group of ``channels._group_labels(top, period)``.

    The groups of at most ``_STACKED_WIDTH`` states are the rows of one
    (G, w) table, padded with the index D = dim K(top), which
    ``_signed_group_norm`` reads as zeros; each wider group is an index array
    of its own. Read-only, since the cache shares them.
    """
    labels = _group_labels(top, period)
    groups = [np.flatnonzero(labels == g) for g in range(min(period, top + 1))]
    narrow = [g for g in groups if g.size <= _STACKED_WIDTH]
    table = np.full((len(narrow), max((g.size for g in narrow), default=0)), labels.size)
    for row, g in zip(table, narrow):
        row[: g.size] = g
    wide = tuple(g for g in groups if g.size > _STACKED_WIDTH)
    for array in (table, *wide):
        array.setflags(write=False)
    return table, wide


def _signed_group_norm(w: np.ndarray, signed: np.ndarray, columns) -> float:
    """Sum over groups g of sum |lambda(W_g^T diag(signed) conj(W_g))|, W_g the columns of group g of W.

    ``columns`` is a ``_group_columns`` table. The narrow groups go through one
    batched ``eigvalsh``: their zero padding adds only zero eigenvalues. Each
    wide group is solved alone, and one wider than its r rows plus 16 is first
    cut to its r x r core: with W_g^T = Q R, R diag(signed) R^dag has the same
    nonzero eigenvalues. One QR call and an r x r eigensolve overtake a w x w
    eigensolve at w between r + 8 and r + 16 for r from 2 to 48 (one BLAS thread).
    """
    table, wide = columns
    total = 0.0
    if table.size:
        x = np.concatenate([w.T, np.zeros((1, len(w)))])[table]  # row D is the padding
        total += np.abs(np.linalg.eigvalsh((x * signed) @ x.conj().swapaxes(1, 2))).sum()
    for cols in wide:
        x = w[:, cols].T  # Fortran order, as the QR takes it
        if len(cols) > len(w) + 16:
            x = np.linalg.qr(x, mode="r")
        total += np.abs(np.linalg.eigvalsh((x * signed) @ x.conj().T)).sum()
    return float(total)


# The twelve-rotation ensemble's (2,1) Choi block in the descending-k product
# basis (first tensor factor major) is fully determined by three constants
# a, b, c in a sparse sign pattern; 16 entries are nonzero (2 of modulus |a|,
# 10 of |b|, 4 of c) and the basis-independent checksum is
# ||C||_F^2 = 2|a|^2 + 10|b|^2 + 4c^2 = 1/2. A nonzero cross-sector block
# certifies that the ensemble is not private for plaintexts mixing one- and
# two-photon components. Read-only, since every result shares it.
_a, _b, _c = (3 + 1j) / 12, (1 + 1j) / 12, 1.0 / (3.0 * math.sqrt(2.0))
_bc = _b.conjugate()
_APPENDIX_A = np.array([
    [_a, 0, 0, -_b], [0, _c, 0, 0], [0, _b, -_bc, 0], [0, 0, _c, 0], [_bc, -_bc, _b, _b],
    [0, _c, 0, 0], [0, _b, -_bc, 0], [0, 0, _c, 0], [-_bc, 0, 0, _a.conjugate()],
])
_APPENDIX_A.setflags(write=False)
_APPENDIX_A_CHECKSUM = 2 * abs(_a) ** 2 + 10 * abs(_b) ** 2 + 4 * _c**2


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
    tol = _tolerance(tol)
    computed = choi_block(clifford12_ensemble(), 2, 1)
    checksum = float(np.sum(np.abs(computed) ** 2))
    return AppendixAResult(
        computed=computed,
        reference=_APPENDIX_A,
        max_deviation=float(np.abs(computed - _APPENDIX_A).max()),
        checksum=checksum,
        checksum_deviation=abs(checksum - _APPENDIX_A_CHECKSUM),
        tol=tol,
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
    c, tol = _array(c, (), "c", NormalizationError).item(), _tolerance(tol)
    if c.real * c.real + c.imag * c.imag - 1.0 > NORM_TOL:  # SourceSpec's sum, so its check cannot fail below
        raise NormalizationError(f"|c| = {math.hypot(c.real, c.imag)!r} exceeds 1")  # abs(c) may overflow
    polarization = PolarizationSpec(alpha, beta)
    weight = min(abs(c) ** 2, 1.0)
    source = SourceSpec(polarization, (c, 0.0, math.sqrt(1.0 - weight)))
    structure = SectorStructure(2)
    ensemble = clifford12_ensemble()
    rows = _encrypted_rows(ensemble, source, structure)
    output = (ensemble.weights[:, None] * rows).T @ rows.conj()  # sum_j q_j w_j w_j^dag
    reference = np.zeros_like(output)
    reference[0, 0] = weight
    reference += (1.0 - weight) * structure.projector(2) / 3.0
    return AppendixBResult(
        output=output,
        reference=reference,
        deviation=frobenius(output - reference),
        tol=tol,
    )

