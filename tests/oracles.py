"""Brute-force reference computations the closed forms in qubitpair are tested against.

Each one takes the slow, obvious route (an explicit 4x4 outer product, a numpy
eigendecomposition), so that a test comparing it with the package checks the
package's arithmetic by an independent path.
"""

import numpy as np

import qubitpair as qp


def oracle_partial_trace(psi, qubit: int) -> np.ndarray:
    """Partial trace the slow way: build the 4x4 projector and sum the
    traced index explicitly.  Through oracle_bloch_vector it validates the
    closed-form state_bloch_vector."""
    psi = qp.as_state(psi)
    rho4 = np.outer(psi, psi.conj())
    rho = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for k in range(2):
            for j in range(2):
                if qubit == 1:
                    rho[i, k] += rho4[2 * i + j, 2 * k + j]
                elif qubit == 2:
                    rho[i, k] += rho4[i + 2 * j, k + 2 * j]
                else:
                    raise ValueError(f"qubit must be 1 or 2, got {qubit!r}")
    return rho


PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))


def oracle_bloch_vector(psi, qubit: int) -> np.ndarray:
    """One qubit's Bloch vector as the Pauli expectations tr(rho sigma_k) of the
    oracle's partial trace rho."""
    rho = oracle_partial_trace(psi, qubit)
    return np.array([np.trace(rho @ sigma).real for sigma in PAULIS])


def hamiltonian_matrix(h: qp.LocalHamiltonian) -> np.ndarray:
    """The 2x2 matrix h_i*I + v.sigma."""
    vx, vy, vz = h.v
    return np.array([[h.h_i + vz, vx - 1j * vy],
                     [vx + 1j * vy, h.h_i - vz]])


def oracle_matrix_exp(h: qp.LocalHamiltonian, t: float, include_scalar: bool = False) -> np.ndarray:
    """exp(-iHt) by eigendecomposition, an independent check on the closed
    form su2_operator.  With include_scalar the e^(-i h_i t) factor is kept."""
    m = hamiltonian_matrix(h)
    if not include_scalar:
        m = m - h.h_i * np.eye(2)
    w, vecs = np.linalg.eigh(m)
    return vecs @ np.diag(np.exp(-1j * w * t)) @ vecs.conj().T
