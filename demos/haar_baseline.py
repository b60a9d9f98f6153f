"""The Haar average is the gold standard every key ensemble is judged against.

Continuously randomizing the polarization rotation maps any input to a
sector-wise maximally mixed state: all polarization information is erased,
but the photon-number weights |c_n|^2 pass straight through. Two roads
lead to the same channel here - the closed-form Choi operator, a sum of
sector projectors, applied to the state, and numerical integration over
the rotation group with an exact quadrature - and they agree to machine
precision.
"""

import numpy as np

from photonpad import (
    HaarQuadrature,
    PolarizationSpec,
    SectorStructure,
    SourceSpec,
    as_choi_operator,
    block_lift,
    build_source_state,
    haar_choi,
)


def main():
    np.set_printoptions(precision=4, suppress=True, linewidth=120)
    s = SectorStructure(2)

    pol = PolarizationSpec(0.8, 0.6j)
    src = SourceSpec(pol, (0.0, 0.6, 0.8))
    psi = build_source_state(src, s)
    rho = np.outer(psi, psi.conj())

    j = haar_choi(s)
    d = s.total_dim
    # J = sum_ij E(|i><j|) (x) |i><j|, so E(rho) sums rho_ij E(|i><j|)
    out = np.einsum("aibj,ij->ab", j.reshape(d, d, d, d), rho)
    print("input: elliptical polarization, amplitudes (0, 0.6, 0.8)")
    print("Haar-encrypted output (closed-form Choi operator applied to rho):")
    print(np.real(out))
    print("diagonal = photon-number weights spread evenly inside each sector;")
    print("nothing about (alpha, beta) survives, |c_n|^2 does.")
    print()

    quad = HaarQuadrature(2)
    integrated = sum(w * block_lift(u, s) @ rho @ block_lift(u, s).conj().T
                     for u, w in zip(quad.unitaries, quad.weights))
    print(f"quadrature with {len(quad.weights)} nodes reproduces it to "
          f"{np.abs(integrated - out).max():.3e}")
    print()

    print("Choi operator diagnostics:")
    print(f"  trace = {np.trace(j).real:.6f} (= dim K(2) = {s.total_dim})")
    print(f"  min eigenvalue = {np.linalg.eigvalsh(j).min():.3e} (completely positive)")
    worst = max(
        np.abs(block - (np.eye((n + 1) ** 2) / (n + 1) if m == n else 0)).max()
        for (m, n), block in as_choi_operator(j, s).items()
    )
    print(f"  every sector-pair block equals delta_mn I/(n+1) (max deviation {worst:.3e}):")
    print("  the closed-form target security_report holds each ensemble's blocks against")
    print()

    print("caveat: 'secure' means the polarization is hidden. A source whose")
    print("amplitude profiles differ is distinguishable by photon counting alone,")
    print("with any encryption whatsoever - that information was classical all along.")


if __name__ == "__main__":
    main()
