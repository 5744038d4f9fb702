#!/usr/bin/env python3
"""Tour of the six-angle form of a pure two-qubit state.

Walks one state from amplitudes to angles and back, shows where each angle
lives (concurrence in both partial traces, Bloch directions per qubit, the
recurrence in neither), and cross-checks the recurrence against the
independent sine-quotient formula.
"""

import numpy as np

import qubitpair as qp


def show_state(label, psi):
    parts = "  ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in psi)
    print(f"  {label}: {parts}")


def main():
    print("=" * 72)
    print("1. A state built from chosen angles")
    print("=" * 72)
    angles = qp.AngleSet(chi=0.9, theta1=1.2, phi1=0.4, theta2=2.0, phi2=-1.1, gamma=0.7)
    psi = qp.state_from_angles(angles)
    show_state("amplitudes (a, b, c, d)", psi)
    det = psi[0] * psi[3] - psi[1] * psi[2]
    print(f"  ad - bc = {det:+.6f}  (real and >= 0 by construction; equals sin(chi)/2)")
    print(f"  norm^2  = {np.vdot(psi, psi).real:.15f}")

    print()
    print("=" * 72)
    print("2. Five of the six angles live in the two partial traces")
    print("=" * 72)
    chi = qp.concurrence_angle(psi)
    print(f"  concurrence C = {qp.concurrence(psi):.12f}, chi = {chi:.12f}")
    for qubit in (1, 2):
        n = qp.state_bloch_vector(psi, qubit)
        theta, phi = qp.spherical_angles(n)
        print(f"  qubit {qubit}: Bloch vector {np.round(n, 9)}  |n| = {np.linalg.norm(n):.12f}"
              f"  (= cos chi)  theta = {theta:.9f}, phi = {phi:.9f}")

    print()
    print("=" * 72)
    print("3. The recurrence is recovered by projection, then cross-checked")
    print("=" * 72)
    recovered = qp.angles_from_state(psi)
    print(f"  gamma in  = {angles.gamma:.12f}")
    print(f"  gamma out = {recovered.gamma:.12f}")
    print(f"  sine-quotient formula: sin(gamma) = {qp.recurrence_sine(psi):+.12f}"
          f"  vs sin(gamma out) = {np.sin(recovered.gamma):+.12f}")

    print()
    print("=" * 72)
    print("4. gamma cancels out of everything locally measurable")
    print("=" * 72)
    for g in (-2.0, 0.7, 3.0):
        variant = qp.state_from_angles(
            qp.AngleSet(angles.chi, angles.theta1, angles.phi1,
                        angles.theta2, angles.phi2, qp.wrap_angle(g)))
        n1 = qp.state_bloch_vector(variant, 1)
        print(f"  gamma = {qp.wrap_angle(g):+.3f}: C = {qp.concurrence(variant):.12f},"
              f" qubit-1 Bloch = {np.round(n1, 12)}")
    print("  (identical partial traces; only the full state differs)")

    print()
    print("=" * 72)
    print("5. Where the angle chart fails, and how")
    print("=" * 72)
    try:
        qp.angles_from_state([1, 0, 0, 0])
    except qp.SeparableGamma as exc:
        print(f"  separable |00>: {exc}")
        print(f"    still reported: chi = {exc.angles.chi}, theta1 = {exc.angles.theta1},"
              f" gamma = {exc.angles.gamma}")
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    try:
        qp.angles_from_state(singlet)
    except qp.MaximalEntanglement as exc:
        print(f"  maximally entangled singlet: {exc}")


if __name__ == "__main__":
    main()
