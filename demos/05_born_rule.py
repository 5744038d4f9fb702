#!/usr/bin/env python3
"""Measurement probabilities from purely local data.

One qubit's spinor is not a standalone quantum state, so the ordinary Born
rule does not apply to it directly; the working rule mixes the spinor and
its parity image with weights set by the concurrence angle:

    P = cos^2(chi/2) |<dir|s>|^2 + sin^2(chi/2) |<dir|P s>|^2
      = cos(chi) |<dir|s>|^2 + sin^2(chi/2)

At chi = 0 this is the ordinary rule; at chi = pi/2 every direction gives
exactly 1/2.  The script checks the rule against full-state projections.
"""

import numpy as np

import qubitpair as qp


def random_direction(rng):
    z = rng.standard_normal(4)
    s = z[0::2] + 1j * z[1::2]
    return qp.as_spinor(s / np.linalg.norm(s))


def main():
    rng = np.random.default_rng(21)

    print("local rule vs full-state projector, 2000 random trials")
    worst = 0.0
    for psi in qp.sample_haar(2000, 22):
        qubit = int(rng.integers(1, 3))
        direction = random_direction(rng)
        d = qp.decompose(psi)
        spinor = d.spinor1 if qubit == 1 else d.spinor2
        worst = max(worst, abs(qp.born_full(psi, qubit, direction)
                               - qp.born_local(d.chi, spinor, direction)))
    print(f"  worst |P_full - P_local| = {worst:.3e}")
    print()

    print("the entanglement floor: probabilities compress toward 1/2 as chi grows")
    direction = qp.spinor_from_angles(0.0)  # measure along +z
    spinor = qp.spinor_from_angles(0.0)     # qubit aligned with +z
    print(f"  {'chi':>8} {'P(+z)':>12} {'P(-z)':>12}")
    for chi in (0.0, 0.3, 0.6, 0.9, 1.2, np.pi / 2):
        p = qp.born_local(chi, spinor, direction)
        q = qp.born_local(chi, spinor, qp.parity(direction))
        print(f"  {chi:8.4f} {p:12.9f} {q:12.9f}")
    print("  (a perfectly aligned measurement still fails with probability")
    print("   sin^2(chi/2) once the pair is entangled)")
    print()

    print("antipodal outcomes always exhaust the probability")
    psi = qp.sample_haar(1, 23)[0]
    direction = random_direction(rng)
    p = qp.born_full(psi, 1, direction)
    q = qp.born_full(psi, 1, qp.parity(direction))
    print(f"  P(dir) = {p:.12f}, P(antipode) = {q:.12f}, sum = {p + q:.12f}")
    print()

    print("the singlet answers 1/2 to every question")
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    probs = [qp.born_full(singlet, int(rng.integers(1, 3)), random_direction(rng))
             for _ in range(6)]
    print("  " + "  ".join(f"{p:.12f}" for p in probs))


if __name__ == "__main__":
    main()
