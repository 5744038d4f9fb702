"""Born-rule probabilities and seeded state samplers.

The two Born computations are deliberately redundant: born_full projects on
the 4-dim state vector, born_local uses only one qubit's (chi, spinor)
data, and the two must agree to machine precision.

Randomness comes from numpy's default PCG64 bit generator, always through
an explicit seed, so every sample set reproduces bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .states import (
    ConsistencyError,
    _check_chi,
    _contract,
    _det_fixed,
    _half_angle,
    _parity,
    _require_qubit,
    _schmidt_sum,
    _unit,
    _vdot2,
    wrap_angle,
)


def born_full(psi, qubit: int, direction) -> float:
    """Probability of projecting the chosen qubit onto ``direction``.

    Computed on the full state: <psi| P x I |psi> (or I x P), with P the
    projector onto the direction spinor.
    """
    a, b, c, d = _unit(psi, 4)
    direction = _unit(direction, 2)
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
    _check_chi(chi)
    spinor, direction = _unit(spinor, 2), _unit(direction, 2)
    keep = abs(_vdot2(direction, spinor)) ** 2
    flip = abs(_vdot2(direction, _parity(*spinor))) ** 2
    p = math.cos(chi / 2) ** 2 * keep + math.sin(chi / 2) ** 2 * flip
    reduced = math.cos(chi) * keep + math.sin(chi / 2) ** 2
    if not abs(p - reduced) <= 1e-12:
        raise ConsistencyError(f"two-term and reduced Born forms differ by {abs(p - reduced):.3e}")
    return p


def sample_haar(count: int, seed: int) -> np.ndarray:
    """Haar-random pure states, one per row, phase-fixed as fix_global_phase fixes them.

    Eight standard normals per state become four complex amplitudes
    (re, im interleaved), which are normalized and turned to (ad - bc)
    real and non-negative.  Identical seeds give bit-identical output.
    """
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, 8))
    states = z[:, 0::2] + 1j * z[:, 1::2]
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    # one flat list of Python complexes, read four at a time: a list per row would put
    # 2 * count short-lived containers in front of the garbage collector
    flat = states.ravel().tolist()
    fixed = []
    for amps in zip(*[iter(flat)] * 4):
        fixed += _det_fixed(amps)[0]
    return np.array(fixed, dtype=complex).reshape(count, 4)


def sample_fixed_concurrence(count: int, seed: int, chi: float) -> np.ndarray:
    """States of one exact concurrence angle, one per row.

    Draws cos(theta_i) uniform on [-1, 1] and phi_i, gamma uniform on the circle, then builds
    amplitudes from the six angles, in range by construction, as state_from_angles does.  A
    coverage sampler over the fixed-chi manifold, not the Haar distribution conditioned on chi.
    A chi outside [0, pi/2], NaN included, is refused before any draw (ValueError).
    """
    _check_chi(chi)
    # one row of five draws per state, in the order of five rng.uniform calls, each
    # scaled as rng.uniform scales it: cos(theta1), cos(theta2), phi1, phi2, gamma
    low = np.array([-1.0, -1.0, -np.pi, -np.pi, -np.pi])
    high = -low
    draws = low + (high - low) * np.random.default_rng(seed).random((count, 5))
    thetas = np.arccos(draws[:, :2]).tolist()
    return np.array([_schmidt_sum(chi, _half_angle(t1, wrap_angle(p1), wrap_angle(g)),
                                  _half_angle(t2, wrap_angle(p2)))
                     for (t1, t2), (p1, p2, g) in zip(thetas, draws[:, 2:].tolist())],
                    dtype=complex).reshape(count, 4)
