#!/usr/bin/env python3
"""The phase-fixed Schmidt decomposition, spinor by spinor.

Any pure two-qubit state splits into one unit spinor per qubit plus the
shared concurrence angle:

    psi = cos(chi/2) s1 x s2 + sin(chi/2) P(s1) x P(s2)

with P the parity map (A, B) -> (B*, -A*).  Unlike the textbook Schmidt
form there is no leftover phase freedom, which is what makes the spinors
usable as dynamical objects.  This script exercises the exact round trip,
including the maximally entangled case, where the Bloch vectors vanish but
the spinor pair keeps working.
"""

import numpy as np

import qubitpair as qp

SQ2 = 1 / np.sqrt(2)


def describe(d):
    print(f"  chi = {d.chi:.12f}")
    print(f"  spinor1 = {np.round(d.spinor1, 9)}   Bloch {np.round(qp.spinor_bloch_vector(d.spinor1), 6)}")
    print(f"  spinor2 = {np.round(d.spinor2, 9)}   Bloch {np.round(qp.spinor_bloch_vector(d.spinor2), 6)}")


def main():
    rng = np.random.default_rng(7)

    print("=" * 72)
    print("1. A generic entangled state round-trips exactly")
    print("=" * 72)
    psi = qp.sample_haar(1, 99)[0]
    d = qp.decompose(psi)
    describe(d)
    err = np.max(np.abs(qp.reconstruct(d) - psi))
    print(f"  |reconstruct(decompose(psi)) - psi| = {err:.3e} (global sign included)")
    err2 = np.max(np.abs(qp.reconstruct(d) - qp.reconstruct_from_products(d)))
    print(f"  tensor path vs componentwise product path: {err2:.3e}")

    print()
    print("=" * 72)
    print("2. The parity map sends each spinor to its Bloch antipode")
    print("=" * 72)
    s = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    s = qp.as_spinor(s / np.linalg.norm(s))
    print(f"  s        = {np.round(s, 6)}   n = {np.round(qp.spinor_bloch_vector(s), 6)}")
    print(f"  P(s)     = {np.round(qp.parity(s), 6)}   n = {np.round(qp.spinor_bloch_vector(qp.parity(s)), 6)}")
    print(f"  <s|P s>  = {abs(np.vdot(s, qp.parity(s))):.2e}   P(P(s)) + s = "
          f"{np.max(np.abs(qp.parity(qp.parity(s)) + s)):.2e}")

    print()
    print("=" * 72)
    print("3. The singlet: spinors survive where Bloch vectors vanish")
    print("=" * 72)
    singlet = np.array([0, SQ2, -SQ2, 0], dtype=complex)
    print(f"  qubit-1 Bloch vector: {np.round(qp.state_bloch_vector(singlet, 1), 15)}")
    d = qp.decompose(singlet)
    describe(d)
    print(f"  spinor2 equals -P(spinor1): "
          f"{np.max(np.abs(d.spinor2 + qp.parity(d.spinor1))):.2e}")

    print()
    print("  Rotating spinor1's phase by alpha1 -> alpha1 + pi multiplies it by i")
    rotated = qp.SpinorDecomposition(d.chi, 1j * d.spinor1, d.spinor2)
    out = qp.reconstruct(rotated)
    print(f"  new state = {np.round(out * np.sqrt(2), 12)}  (i.e. i(|01> + |10>)/sqrt(2))")
    print("  a local phase turned the singlet into a different Bell state, so the")
    print("  spinor phases are physical, not gauge")

    print()
    print("=" * 72)
    print("4. Separable limit: the decomposition is a plain product")
    print("=" * 72)
    plus_zero = np.array([SQ2, 0, SQ2, 0], dtype=complex)
    d = qp.decompose(plus_zero)
    describe(d)
    print(f"  reconstruct error: {np.max(np.abs(qp.reconstruct(d) - plus_zero)):.3e}")


if __name__ == "__main__":
    main()
