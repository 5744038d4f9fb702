"""Born-rule probabilities, seeded state samplers, and brute-force oracles.

The two Born computations are deliberately redundant: born_full projects on
the 4-dim state vector, born_local uses only one qubit's (chi, spinor)
data, and the two must agree to machine precision.  The oracles at the
bottom (outer-product partial trace, eigendecomposition matrix
exponential) exist so every closed form elsewhere has an independent
check.

Randomness comes from numpy's default PCG64 bit generator, always through
an explicit seed, so every sample set reproduces bit for bit.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .dynamics import LocalHamiltonian
from .states import (
    HALF_PI,
    AngleSet,
    ConsistencyError,
    _contract,
    _parity,
    _require_qubit,
    _vdot2,
    as_spinor,
    as_state,
    fix_global_phase,
    state_from_angles,
    wrap_angle,
)


@dataclasses.dataclass(frozen=True)
class SampleSpec:
    """What to sample: how many states, from which seed, optionally pinned
    to a fixed concurrence angle."""

    count: int
    seed: int
    fixed_chi: float | None = None

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.fixed_chi is not None and not 0.0 <= self.fixed_chi <= HALF_PI:
            raise ValueError(f"fixed_chi out of [0, pi/2]: {self.fixed_chi!r}")


def born_full(psi, qubit: int, direction) -> float:
    """Probability of projecting the chosen qubit onto ``direction``.

    Computed on the full state: <psi| P x I |psi> (or I x P), with P the
    projector onto the direction spinor.
    """
    a, b, c, d = as_state(psi).tolist()
    direction = as_spinor(direction).tolist()
    _require_qubit(qubit)
    x, y = _contract(direction, (a, b, c, d) if qubit == 1 else (a, c, b, d))
    return abs(x) ** 2 + abs(y) ** 2


def born_local(chi: float, spinor, direction) -> float:
    """The same probability from one qubit's local data alone.

    cos^2(chi/2) |<dir|s>|^2 + sin^2(chi/2) |<dir|P s>|^2, which collapses
    to the ordinary Born rule at chi = 0 and to a flat 1/2 at chi = pi/2.
    The reduced form cos(chi) |<dir|s>|^2 + sin^2(chi/2) is evaluated too
    and the two must agree to 1e-12 (ConsistencyError otherwise).
    """
    spinor = as_spinor(spinor).tolist()
    direction = as_spinor(direction).tolist()
    keep = abs(_vdot2(direction, spinor)) ** 2
    flip = abs(_vdot2(direction, _parity(*spinor))) ** 2
    p = math.cos(chi / 2) ** 2 * keep + math.sin(chi / 2) ** 2 * flip
    reduced = math.cos(chi) * keep + math.sin(chi / 2) ** 2
    if not abs(p - reduced) <= 1e-12:
        raise ConsistencyError(f"two-term and reduced Born forms differ by {abs(p - reduced):.3e}")
    return p


def sample_haar(count: int, seed: int) -> np.ndarray:
    """Haar-random pure states, one per row, canonically phase-fixed.

    Eight standard normals per state become four complex amplitudes
    (re, im interleaved), which are normalized and phase-fixed.  Identical
    seeds give bit-identical output.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, 8))
    states = z[:, 0::2] + 1j * z[:, 1::2]
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    return np.array([fix_global_phase(s) for s in states], dtype=complex).reshape(count, 4)


def sample_fixed_concurrence(count: int, seed: int, chi: float) -> np.ndarray:
    """States of one exact concurrence angle, one per row.

    Draws cos(theta_i) uniform on [-1, 1] and phi_i, gamma uniform on the
    circle, then builds amplitudes from the six angles.  A coverage sampler
    over the fixed-chi manifold, not the Haar distribution conditioned on
    chi.
    """
    # one row of five draws per state, in the order of five rng.uniform calls, each
    # scaled as rng.uniform scales it: cos(theta1), cos(theta2), phi1, phi2, gamma
    low = np.array([-1.0, -1.0, -np.pi, -np.pi, -np.pi])
    high = -low
    draws = low + (high - low) * np.random.default_rng(seed).random((count, 5))
    thetas = np.arccos(draws[:, :2]).tolist()
    out = np.empty((count, 4), dtype=complex)
    for k, ((theta1, theta2), (phi1, phi2, gamma)) in enumerate(zip(thetas, draws[:, 2:].tolist())):
        out[k] = state_from_angles(AngleSet(chi, theta1, wrap_angle(phi1), theta2,
                                            wrap_angle(phi2), wrap_angle(gamma)))
    return out


def sample_states(spec: SampleSpec) -> np.ndarray:
    """Dispatch on the spec: Haar unless fixed_chi is set."""
    if spec.fixed_chi is None:
        return sample_haar(spec.count, spec.seed)
    return sample_fixed_concurrence(spec.count, spec.seed, spec.fixed_chi)


def oracle_partial_trace(psi, qubit: int) -> np.ndarray:
    """Partial trace the slow way: build the 4x4 projector and sum the
    traced index explicitly.  Validates the closed-form reduced_density."""
    psi = as_state(psi)
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


def oracle_matrix_exp(h: LocalHamiltonian, t: float, include_scalar: bool = False) -> np.ndarray:
    """exp(-iHt) by eigendecomposition, an independent check on the closed
    form su2_operator.  With include_scalar the e^(-i h_i t) factor is kept."""
    m = h.matrix()
    if not include_scalar:
        m = m - h.h_i * np.eye(2)
    w, vecs = np.linalg.eigh(m)
    return vecs @ np.diag(np.exp(-1j * w * t)) @ vecs.conj().T
