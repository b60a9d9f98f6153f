"""How far can a finite key take you? Certifying k-design orders.

A weighted ensemble is a unitary k-design when its k-fold twirl matches the
Haar twirl. The moment-operator deviation certifies this directly, and the
frame potential cross-checks it: F_k >= Catalan(k) with equality exactly at
a design. The familiar four-element one-time pad stops at k = 1; the
twelve-rotation ensemble reaches k = 2, and its third moment misses the
Haar value. That gap is not a numerical artifact - it is the mathematical
reason multi-photon encryption with this key set eventually fails.
"""

import numpy as np

from photonpad import (
    clifford12_ensemble,
    haar_frame_potential,
    is_k_design,
    key_length,
    pauli_ensemble,
)


def certify(ensemble, label, orders):
    print(f"{label}: {ensemble.size} elements, key cost {key_length(ensemble):.4f} bits/use")
    for k in orders:
        check = is_k_design(ensemble, k)
        verdict = "design" if check.passed else "NOT a design"
        print(
            f"  k={k}: moment deviation {check.moment_deviation:.3e}, "
            f"F_{k} = {check.frame_potential:.6f} vs Haar {check.haar_frame_potential:.6f} "
            f"(gap {check.frame_gap:+.3e}) -> {verdict}"
        )
    print()


def main():
    certify(pauli_ensemble(), "four-element pad", (1, 2))
    certify(clifford12_ensemble(), "twelve-rotation ensemble", (1, 2, 3, 4))

    print("Haar frame potentials are the Catalan numbers:")
    for k in range(1, 5):
        print(f"  k={k}: {haar_frame_potential(k):.10f}")
    print()

    cl = clifford12_ensemble()
    third = is_k_design(cl, 3)
    print("the third-moment miss, quantified:")
    print(f"  F_3 = {third.frame_potential:.6f} but Haar needs 5; the moment operator")
    print(f"  sits {third.moment_deviation:.6f} away from the Haar projector in Frobenius norm.")
    print(f"  deviation^2 = {third.moment_deviation ** 2:.6f} equals the frame gap "
          f"{third.frame_gap:.6f}: the two")
    print("  certificates are one identity, so a failure this clear is read off the")
    print("  frame gap, with no lift to the spin blocks.")
    print()
    print("consequence: twirling up to two photons is exactly Haar; a third photon")
    print("sees the difference. More key helps only if it buys a higher design order -")
    print(f"  these 12 rotations cost {np.log2(12):.4f} bits against 2.0 for the pad,")
    print("  and no finite ensemble matches Haar at every order.")


if __name__ == "__main__":
    main()
