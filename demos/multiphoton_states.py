"""Tour of the state space: photon-number sectors and polarization sources.

A polarized source with at most N photons lives in a direct sum of sectors
K(N) = K_0 + K_1 + ... + K_N, where sector n holds n photons split between
the two polarization modes and has dimension n + 1. A source is specified
by a polarization qubit (alpha, beta) and a photon-number amplitude profile
(c_0, ..., c_N); within sector n the polarization appears in the n-fold
symmetric product.
"""

import numpy as np

from photonpad import PolarizationSpec, SectorStructure, SourceSpec, build_source_state


def main():
    np.set_printoptions(precision=4, suppress=True, linewidth=120)

    s = SectorStructure(3)
    print("sectors for N = 3")
    print("  photon numbers:", s.photon_numbers.tolist())
    print("  sector slices :", [(sl.start, sl.stop) for sl in map(s.sector_slice, range(4))])
    print("  total         :", s.total_dim, "= (N+1)(N+2)/2")
    print()

    print("basis layout: sector n lists |n,0>, |n-1,1>, ..., |0,n> (H count descending)")
    for n in range(3):
        labels = [f"|{k},{n - k}>" for k in range(n, -1, -1)]
        idx = [s.index(n, k) for k in range(n, -1, -1)]
        print(f"  n={n}: {labels} at indices {idx}")
    print()

    # diagonal polarization, Poisson-like photon profile
    pol = PolarizationSpec(1 / np.sqrt(2), 1 / np.sqrt(2))
    amps = np.array([0.2, 0.5, 0.6, np.sqrt(1 - 0.2**2 - 0.5**2 - 0.6**2)])
    src = SourceSpec(pol, amps)
    psi = build_source_state(src, s)
    print("diagonal polarization with amplitude profile", np.round(amps, 4))
    print("state vector:")
    print(psi)
    print()

    print("sector weights |c_n|^2 (what any phase-covariant average must keep):")
    for n in range(4):
        p = s.projector(n)
        weight = np.real(psi.conj() @ p @ psi)
        print(f"  n={n}: {weight:.4f}  (|c_{n}|^2 = {abs(amps[n]) ** 2:.4f})")
    print()

    print("two photons, same polarization, never anti-bunch:")
    two = build_source_state(SourceSpec(pol, (0.0, 0.0, 1.0)), SectorStructure(2))
    print("  |psi_2> =", np.round(two[3:], 4), "over |2,0>, |1,1>, |0,2>")
    print("  the |1,1> weight", abs(two[4]) ** 2, "is 1/2: both photons share one mode half the time")


if __name__ == "__main__":
    main()
