"""Pure two-qubit states and their natural angle and spinor representations.

Amplitudes are ordered (a, b, c, d) against the product basis |00>, |01>,
|10>, |11>, with qubit 1 the left tensor factor.  Three interchangeable
forms are supported:

* four complex amplitudes (the full state vector),
* six angles (chi, theta1, phi1, theta2, phi2, gamma), where chi is the
  concurrence angle with sin(chi) = 2|ad - bc|, (theta_i, phi_i) orient
  the two one-qubit Bloch vectors, and gamma is the recurrence, the sum
  of the two local spinor phases,
* a phase-fixed Schmidt decomposition (chi, spinor1, spinor2): one unit
  spinor per qubit, combined through the parity map with weights
  cos(chi/2) and sin(chi/2).

The global phase is canonical when (ad - bc) is real and non-negative;
conversions that need a fixed phase enforce exactly that.  Everything here
is a pure function over plain numpy arrays and small frozen dataclasses.
"""

from __future__ import annotations

import dataclasses

import numpy as np

EPS_NORM = 1e-12   # unit-norm slack
EPS_MATCH = 1e-9   # agreement between redundant computations of one quantity
EPS_DEGEN = 1e-9   # distance to the separable / maximally entangled edges
EPS_POLE = 1e-6    # sin(theta) floor for the sine-quotient recurrence formula

HALF_PI = np.pi / 2


class SeparableGamma(ValueError):
    """The recurrence was requested where it degenerates to a global phase.

    For (near-)separable states the five remaining angles are still
    meaningful; they are attached as ``angles`` (with gamma None) when
    available.
    """

    def __init__(self, message: str, angles: "AngleSet | None" = None):
        super().__init__(message)
        self.angles = angles


class MaximalEntanglement(ValueError):
    """Bloch angles were requested for a (near-)maximally entangled state."""


class PoleSingularity(ValueError):
    """A Bloch vector sits too close to the z-axis for the sine-quotient
    recurrence formula, which inherits the coordinate singularity of phi."""


class ConsistencyError(ValueError):
    """An internal cross-check or invariant failed beyond its tolerance."""


def wrap_angle(x: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    return float(np.pi - (np.pi - x) % (2.0 * np.pi))


def _as_unit(values, size: int, what: str, normalize: bool) -> np.ndarray:
    # ``what`` heads the not-normalized message; NaN and inf fail both checks
    v = np.asarray(values, dtype=complex).reshape(size)
    nsq = float(np.real(np.vdot(v, v)))
    if normalize:
        if not 0.0 < nsq < np.inf:
            raise ValueError(f"cannot normalize a vector of squared norm {nsq!r}")
        return v / np.sqrt(nsq)
    if not abs(nsq - 1.0) <= EPS_NORM:
        raise ValueError(f"{what} = {nsq!r}")
    return v


def as_state(amplitudes, normalize: bool = False) -> np.ndarray:
    """Coerce to a complex 4-vector, checking (or restoring) unit norm."""
    return _as_unit(amplitudes, 4, "amplitudes are not normalized: |psi|^2", normalize)


def as_spinor(components, normalize: bool = False) -> np.ndarray:
    """Coerce to a complex 2-vector, checking (or restoring) unit norm."""
    return _as_unit(components, 2, "spinor is not normalized: |s|^2", normalize)


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron for two 2-vectors or two 2x2 matrices, the same products without its overhead."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == 1:
        return (a[:, None] * b).ravel()
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(4, 4)


def _require_qubit(qubit: int) -> None:
    if qubit not in (1, 2):
        raise ValueError(f"qubit must be 1 or 2, got {qubit!r}")


def concurrence(psi) -> float:
    """Entanglement measure 2|ad - bc|: 0 separable, 1 maximally entangled."""
    a, b, c, d = np.asarray(psi, dtype=complex).reshape(4)
    return float(min(2.0 * abs(a * d - b * c), 1.0))


def concurrence_angle(psi) -> float:
    """arcsin of the concurrence, clamped to [0, pi/2]."""
    return float(np.arcsin(concurrence(psi)))


def fix_global_phase(psi) -> np.ndarray:
    """Rotate the global phase so that (ad - bc) is real and non-negative.

    Separable states carry no usable determinant phase, so the dominant
    amplitude is made real and non-negative instead (ties resolved in
    amplitude order).  Canonical input is rotated by at most a rounding-
    scale angle (exactly zero when Im(ad - bc) is exactly zero), so +psi
    and -psi stay distinct; that leftover sign freedom is resolved by
    decompose(), which measures its phase from the actual input.
    """
    psi = np.asarray(psi, dtype=complex).reshape(4)
    det = psi[0] * psi[3] - psi[1] * psi[2]
    if abs(det) >= EPS_DEGEN:
        return np.exp(-0.5j * np.angle(det)) * psi
    k = int(np.argmax(np.abs(psi)))
    return np.exp(-1j * np.angle(psi[k])) * psi


def reduced_density(psi, qubit: int) -> np.ndarray:
    """One qubit's 2x2 density matrix, by partial trace over the other."""
    _require_qubit(qubit)
    a, b, c, d = np.asarray(psi, dtype=complex).reshape(4)
    if qubit == 1:
        return np.array([
            [abs(a) ** 2 + abs(b) ** 2, a * np.conj(c) + b * np.conj(d)],
            [np.conj(a) * c + np.conj(b) * d, abs(c) ** 2 + abs(d) ** 2]])
    return np.array([
        [abs(a) ** 2 + abs(c) ** 2, a * np.conj(b) + c * np.conj(d)],
        [np.conj(a) * b + np.conj(c) * d, abs(b) ** 2 + abs(d) ** 2]])


def bloch_vector(rho) -> np.ndarray:
    """Bloch vector of a 2x2 density matrix, from rho = (I + n.sigma)/2."""
    rho = np.asarray(rho, dtype=complex)
    w = 2.0 * rho[0, 1]  # equals n_x - i n_y
    return np.array([w.real, -w.imag, float(np.real(rho[0, 0] - rho[1, 1]))])


def state_bloch_vector(psi, qubit: int) -> np.ndarray:
    """Bloch vector of one qubit of a two-qubit state; |n| = cos(chi)."""
    return bloch_vector(reduced_density(psi, qubit))


def spinor_bloch_vector(spinor) -> np.ndarray:
    """Unit Bloch vector of a single spinor."""
    u, l = np.asarray(spinor, dtype=complex).reshape(2)
    w = 2.0 * u * np.conj(l)
    return np.array([w.real, -w.imag, abs(u) ** 2 - abs(l) ** 2])


def spherical_angles(n) -> tuple[float, float]:
    """(theta, phi) of a 3-vector; phi defaults to 0 on the z-axis poles."""
    n = np.asarray(n, dtype=float).reshape(3)
    r = float(np.linalg.norm(n))
    if r == 0.0:
        return 0.0, 0.0
    theta = float(np.arccos(np.clip(n[2] / r, -1.0, 1.0)))
    phi = wrap_angle(float(np.arctan2(n[1], n[0])))
    return theta, phi


def bloch_direction_spinor(n) -> np.ndarray:
    """Unit spinor pointing along a Bloch vector.

    Built directly from the cartesian components (two overlapping charts,
    picked by the sign of n_z), so it has no pole singularities.  The
    overall phase is a fixed convention of the chart, not of (theta, phi).
    """
    n = np.asarray(n, dtype=float).reshape(3)
    r = float(np.linalg.norm(n))
    if r == 0.0:
        raise ValueError("the zero vector has no direction")
    x, y, z = n / r
    if z >= 0.0:
        s = np.array([1.0 + z, x + 1j * y], dtype=complex)
    else:
        s = np.array([x - 1j * y, 1.0 - z], dtype=complex)
    return s / np.linalg.norm(s)


def spinor_from_angles(theta: float, phi: float = 0.0, alpha: float = 0.0) -> np.ndarray:
    """Half-angle spinor e^(i alpha/2) (cos(theta/2) e^(-i phi/2), sin(theta/2) e^(+i phi/2)).

    alpha enters as a half angle, so it matters modulo 4*pi: shifting it by
    2*pi flips the spinor's sign, which is physical in the decomposition.
    """
    return np.exp(0.5j * alpha) * np.array([
        np.cos(theta / 2) * np.exp(-0.5j * phi),
        np.sin(theta / 2) * np.exp(+0.5j * phi)])


def parity(spinor) -> np.ndarray:
    """Map a spinor to its Bloch antipode with fixed phase: (A, B) -> (B*, -A*).

    Orthogonal to its input, and parity(parity(s)) = -s.
    """
    s = np.asarray(spinor, dtype=complex).reshape(2)
    return np.array([np.conj(s[1]), -np.conj(s[0])])


@dataclasses.dataclass(frozen=True)
class AngleSet:
    """The six natural angles of a pure two-qubit state.

    gamma is None where the recurrence is undefined (chi at 0 or pi/2).
    """

    chi: float
    theta1: float
    phi1: float
    theta2: float
    phi2: float
    gamma: float | None = None

    def validate(self) -> "AngleSet":
        if not 0.0 <= self.chi <= HALF_PI:
            raise ValueError(f"chi out of [0, pi/2]: {self.chi!r}")
        for name in ("theta1", "theta2"):
            v = getattr(self, name)
            if not 0.0 <= v <= np.pi:
                raise ValueError(f"{name} out of [0, pi]: {v!r}")
        for name in ("phi1", "phi2", "gamma"):
            v = getattr(self, name)
            if v is None:
                continue
            if not -np.pi < v <= np.pi:
                raise ValueError(f"{name} out of (-pi, pi]: {v!r}")
        return self


@dataclasses.dataclass(frozen=True)
class SpinorDecomposition:
    """Phase-fixed Schmidt form: (chi, spinor1, spinor2).

    The state it stands for is
    cos(chi/2) spinor1 x spinor2 + sin(chi/2) P(spinor1) x P(spinor2),
    with no leftover phase ambiguity.
    """

    chi: float
    spinor1: np.ndarray
    spinor2: np.ndarray


def _schmidt_chi(psi: np.ndarray) -> float:
    # Concurrence angle from the singular values of the amplitude matrix:
    # equal to arcsin(2|ad-bc|) but fully accurate at both edges, where the
    # arcsin form loses up to half its digits.
    sv = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
    return float(2.0 * np.arctan2(sv[1], sv[0]))


def angles_from_state(psi, cross_check: bool = False) -> AngleSet:
    """Extract the six natural angles from a normalized state.

    The recurrence gamma is recovered by projecting the phase-fixed state
    onto the product of the two Bloch-direction spinors, which stays well
    conditioned wherever gamma is defined; it is reported in (-pi, pi],
    i.e. modulo 2*pi (a shift by 2*pi only flips the state's sign).

    With cross_check=True the independent sine-quotient formula
    (recurrence_sine) is evaluated as well and must agree to EPS_MATCH;
    that path raises PoleSingularity within EPS_POLE of a Bloch pole.

    Raises SeparableGamma below chi = EPS_DEGEN (the partial angles ride on
    the exception) and MaximalEntanglement above pi/2 - EPS_DEGEN, where
    theta and phi lose meaning; decompose() handles that regime instead.
    """
    psi = fix_global_phase(as_state(psi))
    chi = _schmidt_chi(psi)
    if chi > HALF_PI - EPS_DEGEN:
        raise MaximalEntanglement(
            "theta and phi are undefined at maximal entanglement; use decompose()")
    theta1, phi1 = spherical_angles(state_bloch_vector(psi, 1))
    theta2, phi2 = spherical_angles(state_bloch_vector(psi, 2))
    if chi < EPS_DEGEN:
        raise SeparableGamma(
            "the recurrence of a separable state is indistinguishable from a global phase",
            angles=AngleSet(chi, theta1, phi1, theta2, phi2, None))
    u = _kron2(spinor_from_angles(theta1, phi1), spinor_from_angles(theta2, phi2))
    gamma = wrap_angle(2.0 * float(np.angle(np.vdot(u, psi))))
    if cross_check and not abs(np.sin(gamma) - recurrence_sine(psi)) <= EPS_MATCH:
        raise ConsistencyError("projection and sine-quotient recurrences disagree")
    return AngleSet(chi, theta1, phi1, theta2, phi2, gamma)


def recurrence_sine(psi) -> float:
    """sin(gamma) via the quotient 2 Im(ad + bc) / (cos chi sin theta1 sin theta2).

    A deliberately independent cross-check on the projection method; it
    pins gamma only up to its sine and fails at the Bloch poles, where the
    quotient loses meaning (PoleSingularity below EPS_POLE).
    """
    psi = fix_global_phase(as_state(psi))
    chi = _schmidt_chi(psi)
    if chi < EPS_DEGEN:
        raise SeparableGamma("the recurrence of a separable state is undefined")
    if chi > HALF_PI - EPS_DEGEN:
        raise MaximalEntanglement("the sine quotient is undefined at maximal entanglement")
    theta1, _ = spherical_angles(state_bloch_vector(psi, 1))
    theta2, _ = spherical_angles(state_bloch_vector(psi, 2))
    s1, s2 = float(np.sin(theta1)), float(np.sin(theta2))
    if min(s1, s2) < EPS_POLE:
        raise PoleSingularity("a Bloch vector lies within EPS_POLE of a z-axis pole")
    a, b, c, d = psi
    return float(2.0 * (a * d + b * c).imag / (np.cos(chi) * s1 * s2))


def state_from_angles(angles: AngleSet) -> np.ndarray:
    """Build the amplitudes from the six natural angles.

    The output is normalized with (ad - bc) = sin(chi)/2, real and
    non-negative, by construction.  gamma may be None only for separable
    input (chi below EPS_DEGEN), where it is a global phase and defaults
    to zero.
    """
    angles.validate()
    if angles.gamma is None:
        if angles.chi >= EPS_DEGEN:
            raise SeparableGamma("gamma is required: it is optional only below chi = EPS_DEGEN")
        gamma = 0.0
    else:
        gamma = angles.gamma
    cc, sc = np.cos(angles.chi / 2), np.sin(angles.chi / 2)
    c1, s1 = np.cos(angles.theta1 / 2), np.sin(angles.theta1 / 2)
    c2, s2 = np.cos(angles.theta2 / 2), np.sin(angles.theta2 / 2)
    eg = np.exp(0.5j * gamma)
    egc = np.exp(-0.5j * gamma)
    return np.array([
        (cc * c1 * c2 * eg + sc * s1 * s2 * egc) * np.exp(-0.5j * (angles.phi1 + angles.phi2)),
        (cc * c1 * s2 * eg - sc * s1 * c2 * egc) * np.exp(-0.5j * (angles.phi1 - angles.phi2)),
        (cc * s1 * c2 * eg - sc * c1 * s2 * egc) * np.exp(+0.5j * (angles.phi1 - angles.phi2)),
        (cc * s1 * s2 * eg + sc * c1 * c2 * egc) * np.exp(+0.5j * (angles.phi1 + angles.phi2))])


def decompose(psi) -> SpinorDecomposition:
    """Split a state into (chi, spinor1, spinor2) with no phase ambiguity.

    Entangled input is first rotated to the canonical global phase
    ((ad - bc) real and non-negative, the identity when already canonical);
    separable input keeps its phase, which rides on spinor1.  spinor1 points
    along qubit 1's partial-trace Bloch vector, except at maximal
    entanglement, where every direction works and +z is the convention.
    spinor2 then comes from contracting spinor1's direction with the 2x2
    amplitude matrix, which pins qubit 2's direction *and* the relative
    phase in one well-conditioned step.  The remaining overall phase is
    measured from the input itself, so reconstruct() returns the input
    exactly, global sign included.
    """
    psi = as_state(psi)
    if abs(psi[0] * psi[3] - psi[1] * psi[2]) >= EPS_DEGEN:
        psi = fix_global_phase(psi)
    m = psi.reshape(2, 2)
    chi = _schmidt_chi(psi)
    if chi > HALF_PI - EPS_DEGEN:
        u1 = np.array([1.0, 0.0], dtype=complex)
    else:
        u1 = bloch_direction_spinor(state_bloch_vector(psi, 1))
    u2 = u1.conj() @ m
    u2 = u2 / np.linalg.norm(u2)
    phase = np.exp(1j * np.angle(np.vdot(_kron2(u1, u2), psi)))
    # the parity pair must carry the opposite phase with weight sin(chi/2)
    residual = phase * np.vdot(_kron2(parity(u1), parity(u2)), psi) - np.sin(chi / 2)
    if abs(residual) > EPS_MATCH:
        raise ValueError("decomposition consistency check failed; input is not a unit state")
    return SpinorDecomposition(chi, phase * u1, u2)


def reconstruct(d: SpinorDecomposition) -> np.ndarray:
    """Rebuild the full state: cos(chi/2) s1 x s2 + sin(chi/2) P(s1) x P(s2)."""
    return (np.cos(d.chi / 2) * _kron2(d.spinor1, d.spinor2)
            + np.sin(d.chi / 2) * _kron2(parity(d.spinor1), parity(d.spinor2)))


def reconstruct_from_products(d: SpinorDecomposition) -> np.ndarray:
    """Rebuild the amplitudes componentwise from spinor products.

    Independent arithmetic path used to check reconstruct(): with
    spinor1 = (A, B) and spinor2 = (C, D),
    a = AC cos + B*D* sin, b = AD cos - B*C* sin,
    c = BC cos - A*D* sin, d = BD cos + A*C* sin
    (cos and sin of chi/2 throughout).
    """
    a1, b1 = np.asarray(d.spinor1, dtype=complex)
    c2, d2 = np.asarray(d.spinor2, dtype=complex)
    cc, sc = np.cos(d.chi / 2), np.sin(d.chi / 2)
    return np.array([
        a1 * c2 * cc + np.conj(b1) * np.conj(d2) * sc,
        a1 * d2 * cc - np.conj(b1) * np.conj(c2) * sc,
        b1 * c2 * cc - np.conj(a1) * np.conj(d2) * sc,
        b1 * d2 * cc + np.conj(a1) * np.conj(c2) * sc])
