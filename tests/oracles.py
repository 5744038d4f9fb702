"""Brute-force reference computations the closed forms in qubitpair are tested against.

Each one takes the slow, obvious route (an explicit 4x4 outer product, a numpy
eigendecomposition), so that a test comparing it with the package checks the
package's arithmetic by an independent path.
"""

import dataclasses
import math

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


def unit_spinor(components) -> np.ndarray:
    """A 2-vector scaled to unit norm for a test's input: each component times 1/sqrt of the
    squared norm, summed in component order, and read through as_spinor."""
    v = np.asarray(components, dtype=complex).reshape(2).tolist()
    nsq = 0.0
    for z in v:
        nsq += z.real * z.real + z.imag * z.imag
    scale = 1.0 / math.sqrt(nsq)
    return qp.as_spinor([z * scale for z in v])


def uniform_angle_sets(count: int, seed: int, chi_lo: float = 0.05,
                       chi_hi: float = np.pi / 2 - 0.05, sin_floor: float = 0.05) -> list:
    """Angle sets from six scalar rng.uniform calls each, in the order chi, theta1, phi1,
    theta2, phi2, gamma: verify.band_angle_sets' draws the slow way at its default band, and
    every angle's whole range with chi_lo=0, chi_hi=pi/2 and sin_floor=0."""
    t_lo = float(np.arcsin(sin_floor))
    rng = np.random.default_rng(seed)
    return [qp.AngleSet(chi=float(rng.uniform(chi_lo, chi_hi)),
                        theta1=float(rng.uniform(t_lo, np.pi - t_lo)),
                        phi1=qp.wrap_angle(rng.uniform(-np.pi, np.pi)),
                        theta2=float(rng.uniform(t_lo, np.pi - t_lo)),
                        phi2=qp.wrap_angle(rng.uniform(-np.pi, np.pi)),
                        gamma=qp.wrap_angle(rng.uniform(-np.pi, np.pi)))
            for _ in range(count)]


def numbers(obj):
    """Every number in a result: arrays, tuples, lists and dataclasses of them, walked."""
    if isinstance(obj, np.ndarray):
        yield from obj.ravel().tolist()
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from numbers(item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from numbers(getattr(obj, field.name))
    else:
        yield obj


def steps(schedule: qp.Schedule) -> list:
    """A Schedule's steps as a list of (LocalHamiltonian, dt), each Hamiltonian checked and
    built from the h and v columns, each dt read from the dt column."""
    return [(qp.LocalHamiltonian(h_i, v), dt)
            for h_i, v, dt in zip(schedule.h.tolist(), schedule.v.tolist(), schedule.dt.tolist())]


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
