#!/usr/bin/env python3
"""Generating pure recurrence rotation with aligned Hamiltonians.

A field aligned with one qubit's own Bloch axis leaves that qubit's partial
trace alone, leaves the other qubit alone entirely, and still changes the
full state: the recurrence angle gamma drifts linearly at rate 2E.  Both
qubits have independent control of the one shared angle; rotations
compound when same-handed and cancel when opposite-handed at equal energy.
"""

import numpy as np

import qubitpair as qp


def main():
    psi = qp.state_from_angles(
        qp.AngleSet(chi=0.8, theta1=1.0, phi1=0.3, theta2=2.1, phi2=-0.7, gamma=0.2))
    energy = 1.0

    print("gamma(t) under a qubit-1 aligned field, E = 1")
    print("-" * 56)
    n1 = qp.state_bloch_vector(psi, 1)
    h1 = qp.aligned_hamiltonian(n1 / np.linalg.norm(n1), energy)
    print(f"{'t':>6} {'gamma':>12} {'theta1':>12} {'phi2':>12}")
    for t in np.linspace(0, 1.0, 11):
        out = qp.evolve_full_schedule(psi, [(h1, t)], [(qp.ZERO_HAMILTONIAN, t)])
        ang = qp.angles_from_state(out)
        print(f"{t:6.2f} {ang.gamma:12.6f} {ang.theta1:12.9f} {ang.phi2:12.9f}")
    print("(gamma moves, the other five angles sit still)")
    print()

    slope, residual = qp.recurrence_drift(psi, 1, energy, np.linspace(0, 1, 50))
    print(f"fitted slope: {slope:+.9f}  (|slope| = 2E = {2 * energy}),"
          f" max fit residual {residual:.2e}")
    slope2, _ = qp.recurrence_drift(psi, 2, energy, np.linspace(0, 1, 50))
    print(f"same game on qubit 2: slope {slope2:+.9f}")
    print()

    print("compound vs cancel")
    print("-" * 56)
    for e1, e2, handed in [(1.0, 1.0, True), (0.7, 0.4, True), (1.0, 1.0, False),
                           (0.9, 0.3, False)]:
        delta = qp.compound_rotation_check(psi, e1, e2, 0.25, same_handed=handed)
        label = "same-handed" if handed else "opposite"
        print(f"  E1={e1:.1f} E2={e2:.1f} {label:>11}: delta gamma = {delta:+.9f}"
              f"   (2(E1+E2)t = {2 * (e1 + e2) * 0.25:.3f})")
    print("  equal-energy opposite rotations hold gamma exactly constant")
    print()

    print("the aligned field's degenerate eigenmodes")
    print("-" * 56)
    coeffs, _ = qp.aligned_mode_coefficients(psi)
    print("  |<mode_k|psi>|: ", np.round(np.abs(coeffs), 9))
    half = qp.concurrence_angle(psi) / 2
    print(f"  first two modes (eigenvalue +E) carry cos(chi/2) = {np.cos(half):.9f}:"
          f" {np.sqrt(abs(coeffs[0]) ** 2 + abs(coeffs[1]) ** 2):.9f}")
    print(f"  last two modes (eigenvalue -E) carry sin(chi/2) = {np.sin(half):.9f}:"
          f" {np.sqrt(abs(coeffs[2]) ** 2 + abs(coeffs[3]) ** 2):.9f}")
    print("  evolution only counter-rotates the two halves, hence the linear gamma")


if __name__ == "__main__":
    main()
