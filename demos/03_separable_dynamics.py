#!/usr/bin/env python3
"""Exactly separable dynamics for an entangled pair.

Local unitary evolution of a two-qubit state never needs the 4-dim space:
decompose once, evolve each 2-dim spinor under its own Hamiltonian's
traceless part, book the scalar parts h_i*t as phases in a ledger, and
reconstruct whenever the full state is wanted.  This script runs a long
piecewise-constant schedule on both backends and compares amplitudes
exactly (no phase alignment, the ledger already carries it), then runs an
input off the canonical phase through evolve_separable_state.
"""

import numpy as np

import qubitpair as qp


def random_hamiltonian(rng):
    return qp.LocalHamiltonian(float(rng.normal()), rng.normal(size=3))


def main():
    rng = np.random.default_rng(11)
    psi0 = qp.sample_haar(1, 5)[0]
    print(f"initial concurrence: {qp.concurrence(psi0):.12f}")
    print(f"initial chi:         {qp.concurrence_angle(psi0):.12f}")
    print()

    steps = 400
    print(f"evolving {steps} piecewise-constant steps, both Hamiltonians fresh each")
    print("step, scalar parts h_i nonzero throughout")
    print()

    d = qp.decompose(psi0)
    ledger = qp.PhaseLedger()
    full = psi0.copy()
    worst = 0.0
    checkpoints = {1, 10, 100, steps}
    for k in range(1, steps + 1):
        h1, h2 = random_hamiltonian(rng), random_hamiltonian(rng)
        dt = float(rng.uniform(0.01, 0.1))
        steps1, steps2 = [(h1, dt)], [(h2, dt)]  # one step of each qubit's schedule
        full = qp.evolve_full_schedule(full, steps1, steps2)  # full backend, M <- U1 M U2^T
        d, ledger = qp.evolve_separable_schedule(d, ledger, steps1, steps2)  # two 2x2 backends
        deviation = np.max(np.abs(ledger.phase * qp.reconstruct(d) - full))
        worst = max(worst, deviation)
        if k in checkpoints:
            print(f"  step {k:4d}: deviation {deviation:.3e}   "
                  f"beta1 {ledger.beta1:+9.4f}  beta2 {ledger.beta2:+9.4f}   "
                  f"C = {qp.concurrence(full):.12f}")
    print()
    print(f"worst amplitude deviation over the run: {worst:.3e}")
    print(f"concurrence drift: {abs(qp.concurrence(full) - qp.concurrence(psi0)):.3e}")
    print()

    print("why the ledger matters: scalar energy shows up only as a global phase,")
    print("but dropping it would desynchronize the two backends:")
    naive = qp.reconstruct(d)  # ledger ignored
    print(f"  with ledger:    deviation {np.max(np.abs(ledger.phase * naive - full)):.3e}")
    print(f"  without ledger: deviation {np.max(np.abs(naive - full)):.3e}")
    print()

    print("an input off the canonical phase keeps its global phase: the run turns")
    print("i*psi to ad - bc >= 0, decomposes that, and the ledger starts at the turn:")
    off = 1j * psi0
    schedule1 = [(random_hamiltonian(rng), float(rng.uniform(0.01, 0.1))) for _ in range(steps)]
    schedule2 = [(random_hamiltonian(rng), float(rng.uniform(0.01, 0.1))) for _ in range(steps)]
    final_off = qp.evolve_separable_state(off, schedule1, schedule2)[2]
    full_off = qp.evolve_full_schedule(off, schedule1, schedule2)
    print(f"  evolve_separable_state(1j * psi0): deviation from the full backend "
          f"{np.max(np.abs(final_off - full_off)):.3e}")
    print()

    print("and the canonical phase condition (ad - bc real) is preserved by the")
    print("traceless parts alone:")
    psi = qp.fix_global_phase(psi0)
    traceless = [(qp.LocalHamiltonian(0.0, rng.normal(size=3)), 0.2) for _ in range(20)]
    out = qp.evolve_full_schedule(psi, traceless, [])
    det = out[0] * out[3] - out[1] * out[2]
    print(f"  after 20 traceless steps on qubit 1: Im(ad - bc) = {det.imag:+.3e}")
    out = qp.evolve_full_schedule(psi, [(qp.LocalHamiltonian(0.3, np.zeros(3)), 1.0)],
                                  [(qp.ZERO_HAMILTONIAN, 1.0)])
    det = out[0] * out[3] - out[1] * out[2]
    print(f"  after one h_i = 0.3 step:            Im(ad - bc) = {det.imag:+.3e}"
          "  (hence the ledger)")


if __name__ == "__main__":
    main()
