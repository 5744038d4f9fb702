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
is a pure function over small frozen dataclasses.  Every public call, here
and in dynamics and measurement, reads each state or spinor it takes once,
through one reader (_unit) that returns the components as Python complex
numbers and refuses a non-unit vector, NaN and inf included, with
ValueError; a decomposition is read as its chi, held to [0, pi/2], and its
two spinors.  The arithmetic runs with math and cmath, because numpy's
fixed cost per call on 2- and 4-element arrays is far above it.
Vectors come back as numpy arrays and angles as Python floats.
"""

from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

EPS_NORM = 1e-12   # unit-norm slack
EPS_MATCH = 1e-9   # agreement between redundant computations of one quantity
EPS_DEGEN = 1e-9   # distance to the separable / maximally entangled edges
EPS_POLE = 1e-6    # sin(theta) floor for the sine-quotient recurrence formula
_UNIT_ROUNDOFF = 2.0 ** -53  # u, half the spacing of doubles at 1

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
    return float(math.pi - (math.pi - x) % (2.0 * math.pi))


def _norm_sq(values) -> float:
    nsq = 0.0
    for z in values:
        nsq += z.real * z.real + z.imag * z.imag  # products, not **, which raises on overflow
    return nsq


def _unit(vector, size: int) -> list[complex]:
    # the one reader of a state (size 4) or spinor (size 2): its components as Python complexes,
    # held to the unit-norm rule, which NaN and inf fail
    v = np.asarray(vector, dtype=complex).reshape(size).tolist()
    nsq = _norm_sq(v)
    if not abs(nsq - 1.0) <= EPS_NORM:
        what = ("amplitudes are not normalized: |psi|^2" if size == 4
                else "spinor is not normalized: |s|^2")
        raise ValueError(f"{what} = {nsq!r}")
    return v


def as_state(amplitudes) -> np.ndarray:
    """A complex 4-vector of unit norm (ValueError otherwise, NaN and inf included)."""
    return np.array(_unit(amplitudes, 4))


def as_spinor(components) -> np.ndarray:
    """A complex 2-vector of unit norm (ValueError otherwise, NaN and inf included)."""
    return np.array(_unit(components, 2))


def _check_chi(chi, name: str = "chi", error: type[ValueError] = ValueError):
    # the one range rule for chi, which NaN fails; the loaders name their input and raise theirs
    if not 0.0 <= chi <= HALF_PI:
        raise error(f"{name} out of [0, pi/2]: {chi!r}")
    return chi


def _read_decomposition(d) -> tuple[float, list[complex], list[complex]]:
    # a decomposition's chi by its range rule and its two spinors by the one reader
    return _check_chi(d.chi), _unit(d.spinor1, 2), _unit(d.spinor2, 2)


def _require_qubit(qubit: int) -> None:
    if qubit not in (1, 2):
        raise ValueError(f"qubit must be 1 or 2, got {qubit!r}")


def _bloch_of(p: float, q: float, w: complex) -> tuple[float, float, float]:
    # the Bloch vector of rho = [[p, w], [w*, q]] = (I + n.sigma)/2
    return 2.0 * w.real, -2.0 * w.imag, p - q


def _bloch(amps, qubit: int) -> tuple[float, float, float]:
    # one qubit's Bloch vector, from its reduced density matrix by partial trace
    a, b, c, d = amps
    if qubit == 2:
        b, c = c, b
    return _bloch_of(abs(a) ** 2 + abs(b) ** 2, abs(c) ** 2 + abs(d) ** 2,
                     a * c.conjugate() + b * d.conjugate())


def _chi(amps, n1) -> float:
    # atan2(sin chi, cos chi), both known to an absolute 1e-16 (see concurrence_angle)
    a, b, c, d = amps
    return math.atan2(2.0 * abs(a * d - b * c), math.hypot(*n1))


def _entangled(chi: float) -> bool:
    # the one band test: from here on the determinant's phase fixes the global phase and
    # gamma is defined; chi does not change under a global phase, so it is taken before fixing
    return chi >= EPS_DEGEN


def _det_fixed(amps) -> tuple[list[complex], float]:
    # amps turned to ad - bc real and positive, and the angle; exactly 0.0, unturned, where the
    # turn is rounding: ad - bc so already, or noise, to within 16u(|ad| + |bc|), the most this
    # turn leaves (5.5u measured over 1.2 million turns): sqrt(5)u per complex product (Brent,
    # Percival, Zimmermann 2007) for ad, bc, the turned amps and their ad, bc is 8.9u(|ad| + |bc|)
    # to first order, and the angle (an ulp of pi), the turn and the two subtractions add at
    # most 7u|ad - bc|
    ad, bc = amps[0] * amps[3], amps[1] * amps[2]
    det, slack = ad - bc, 16.0 * _UNIT_ROUNDOFF * (abs(ad) + abs(bc))
    if abs(det) <= slack or (det.real > 0.0 and abs(det.imag) <= slack):
        return list(amps), 0.0
    angle = -0.5 * cmath.phase(det)
    turn = cmath.rect(1.0, angle)
    return [turn * v for v in amps], angle


def _edge(chi: float) -> bool:
    # chi within 16u of EPS_DEGEN, the only place a state and its turned self can read on two
    # sides of the band test: a global turn moves chi by 2.4u at most in 210,000 measured turns
    return abs(chi - EPS_DEGEN) <= 16.0 * _UNIT_ROUNDOFF


def _largest_fixed(amps) -> tuple[list[complex], float]:
    # amps turned to the largest amplitude real and positive (the first of those within 16u of
    # it: a turn moves each by 3.3u at most, so a float tie keeps its pick), and the angle; 0.0,
    # unturned, where it already is to within 4u (its turn left 3.4u at most in 450,000 turns)
    top = max(map(abs, amps))
    m = next(v for v in amps if abs(v) >= (1.0 - 16.0 * _UNIT_ROUNDOFF) * top)
    if m.real > 0.0 and abs(m.imag) <= 4.0 * _UNIT_ROUNDOFF * m.real:
        return list(amps), 0.0
    angle = -cmath.phase(m)
    turn = cmath.rect(1.0, angle)
    return [turn * v for v in amps], angle


def _carries_det_phase(amps, chi: float) -> bool:
    # the one band test for the global phase, decompose's and fix_global_phase's: does ad - bc
    # fix it?  In the edge window only input whose largest amplitude alone is fixed keeps its phase
    if _edge(chi):
        return _det_fixed(amps)[1] == 0.0 or _largest_fixed(amps)[1] != 0.0
    return _entangled(chi)


def _spherical(x: float, y: float, z: float) -> tuple[float, float]:
    rho = math.hypot(x, y)
    if rho == 0.0 and z == 0.0:
        return 0.0, 0.0
    # theta by atan2: acos(z/r) loses half its digits near a pole; phi is 0 on the z-axis and
    # within rounding of it, where x and y are noise of a few ulp of |n| and their signs say
    # nothing: hypot(x, y) <= 4u|z|, the same test as 4u|n| there (|n| rounds to |z|), and
    # one that cannot overflow
    phi = wrap_angle(math.atan2(y, x)) if rho > 4.0 * _UNIT_ROUNDOFF * abs(z) else 0.0
    return math.atan2(rho, z), phi


def _direction(x: float, y: float, z: float) -> tuple[complex, complex]:
    # the spinor along a unit state's qubit-1 Bloch vector; +z where r = |n1| is rounding noise
    # (<= 16u; exact pi/2 states read up to 11u), where every direction works. Above it r + |z|
    # and k neither overflow nor lose bits to subnormals, and an error of u/r costs spinor2 ~u
    r = math.hypot(x, y, z)
    if r <= 16.0 * _UNIT_ROUNDOFF:
        return 1.0 + 0j, 0j
    if z >= 0.0:
        k = math.hypot(r + z, x, y)
        return complex((r + z) / k), complex(x / k, y / k)
    k = math.hypot(x, y, r - z)
    return complex(x / k, -y / k), complex((r - z) / k)


def _half_angle(theta: float, phi: float, alpha: float = 0.0) -> tuple[complex, complex]:
    return (cmath.rect(math.cos(theta / 2), 0.5 * (alpha - phi)),
            cmath.rect(math.sin(theta / 2), 0.5 * (alpha + phi)))


def _parity(u: complex, l: complex) -> tuple[complex, complex]:
    return l.conjugate(), -u.conjugate()


def _vdot2(s, t) -> complex:
    # <s|t> of two spinors
    return s[0].conjugate() * t[0] + s[1].conjugate() * t[1]


def _contract(s, amps) -> tuple[complex, complex]:
    # <s| on qubit 1 of (a, b, c, d), leaving a qubit-2 spinor; (a, c, b, d) contracts qubit 2
    a, b, c, d = amps
    u, l = s[0].conjugate(), s[1].conjugate()
    return u * a + l * c, u * b + l * d


def _schmidt_sum(chi: float, s1, s2) -> np.ndarray:
    # cos(chi/2) s1 x s2 + sin(chi/2) P(s1) x P(s2)
    cc, sc = math.cos(chi / 2), math.sin(chi / 2)
    p1, p2 = _parity(*s1), _parity(*s2)
    return np.array([cc * (x * y) + sc * (u * v) for x, u in zip(s1, p1) for y, v in zip(s2, p2)])


def concurrence(psi) -> float:
    """Entanglement measure 2|ad - bc|: 0 separable, 1 maximally entangled."""
    a, b, c, d = _unit(psi, 4)
    return min(2.0 * abs(a * d - b * c), 1.0)


def concurrence_angle(psi) -> float:
    """chi in [0, pi/2] as atan2(2|ad - bc|, |n1|), with |n1| = cos(chi) the length of
    qubit 1's Bloch vector: accurate to rounding at both edges, where arcsin of the
    concurrence loses up to half its digits."""
    amps = _unit(psi, 4)
    return _chi(amps, _bloch(amps, 1))


def _canonical_phase(amps) -> list[complex]:
    # fix_global_phase on Python complexes: decompose's band test picks the rule
    carries = _carries_det_phase(amps, _chi(amps, _bloch(amps, 1)))
    return (_det_fixed if carries else _largest_fixed)(amps)[0]


def fix_global_phase(psi) -> np.ndarray:
    """Rotate the global phase by decompose()'s rule: (ad - bc) real and non-negative.

    Wherever decompose() keeps the input's phase instead (below the band,
    chi < EPS_DEGEN, where gamma is undefined too), the largest amplitude
    is made real and non-negative; magnitudes within 16u of it (u = 2^-53)
    tie, and the first is taken.  Input already fixed to rounding by its
    rule is never turned, so a second call changes no bit: a largest
    amplitude within 4u of real, or Re(ad - bc) > 0 with |Im(ad - bc)|
    within 16u(|ad| + |bc|), the most a turn leaves.  Near separability
    half the determinant's phase is rounding noise of order ulp/|ad - bc|,
    and a turn by it would move every amplitude that far.  So +psi and -psi
    stay distinct; decompose() resolves that sign from the actual input.
    """
    return np.array(_canonical_phase(_unit(psi, 4)))


def state_bloch_vector(psi, qubit: int) -> np.ndarray:
    """Bloch vector of one qubit of a two-qubit state; |n| = cos(chi)."""
    _require_qubit(qubit)
    return np.array(_bloch(_unit(psi, 4), qubit))


def spinor_bloch_vector(spinor) -> np.ndarray:
    """Unit Bloch vector of a single spinor."""
    u, l = _unit(spinor, 2)  # rho = s s^dagger
    return np.array(_bloch_of(abs(u) ** 2, abs(l) ** 2, u * l.conjugate()))


def spherical_angles(n) -> tuple[float, float]:
    """(theta, phi) of a 3-vector; phi is 0 on the z-axis poles and within rounding of them,
    where hypot(x, y) <= 4u|z| (u = 2^-53), which is 4u|n| there.  n must be finite
    (ValueError otherwise)."""
    values = np.asarray(n, dtype=float).reshape(3).tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError(f"n must be finite, got n = {values!r}")
    return _spherical(*values)


def spinor_from_angles(theta: float, phi: float = 0.0, alpha: float = 0.0) -> np.ndarray:
    """Half-angle spinor e^(i alpha/2) (cos(theta/2) e^(-i phi/2), sin(theta/2) e^(+i phi/2)).

    alpha enters as a half angle, so it matters modulo 4*pi: shifting it by
    2*pi flips the spinor's sign, which is physical in the decomposition.
    The three angles must be finite (ValueError otherwise).
    """
    if not all(map(math.isfinite, (theta, phi, alpha))):
        raise ValueError(f"angles must be finite: theta = {theta!r}, phi = {phi!r}, "
                         f"alpha = {alpha!r}")
    return np.array(_half_angle(theta, phi, alpha))


def parity(spinor) -> np.ndarray:
    """Map a spinor to its Bloch antipode with fixed phase: (A, B) -> (B*, -A*).

    Orthogonal to its input, and parity(parity(s)) = -s.
    """
    return np.array(_parity(*_unit(spinor, 2)))


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
        _check_chi(self.chi)
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


def _bloch_angles(amps) -> tuple[float, float, float, float, float]:
    # chi and both Bloch angle pairs on the Python complexes of a unit state, with the band refusals
    n1 = _bloch(amps, 1)
    chi = _chi(amps, n1)
    if chi > HALF_PI - EPS_DEGEN:
        raise MaximalEntanglement(
            "theta and phi are undefined at maximal entanglement; use decompose()")
    theta1, phi1 = _spherical(*n1)
    theta2, phi2 = _spherical(*_bloch(amps, 2))
    if not _entangled(chi):
        raise SeparableGamma(
            "the recurrence of a separable state is indistinguishable from a global phase",
            angles=AngleSet(chi, theta1, phi1, theta2, phi2, None))
    return chi, theta1, phi1, theta2, phi2


def _angles(amps) -> tuple[float, float, float, float, float, float]:
    # angles_from_state's six angles: the Bloch angles, and gamma by projection
    chi, theta1, phi1, theta2, phi2 = _bloch_angles(amps)
    overlap = _vdot2(_half_angle(theta2, phi2),
                     _contract(_half_angle(theta1, phi1), _det_fixed(amps)[0]))
    return chi, theta1, phi1, theta2, phi2, wrap_angle(2.0 * cmath.phase(overlap))


def angles_from_state(psi) -> AngleSet:
    """Extract the six natural angles from a normalized state.

    The recurrence gamma is recovered by projecting the phase-fixed state
    onto the product of the two Bloch-direction spinors, which stays well
    conditioned wherever gamma is defined; it is reported in (-pi, pi],
    i.e. modulo 2*pi (a shift by 2*pi only flips the state's sign).

    Near maximal entanglement the Bloch vectors shrink to length cos(chi),
    and the direction of a vector that short is known only to about
    1e-16/cos(chi); the round trip through state_from_angles is good to
    that, not to 1e-16.

    recurrence_sine gives sin(gamma) by an independent formula, which fails
    at the Bloch poles where this projection stays total.

    Raises SeparableGamma below chi = EPS_DEGEN (the partial angles ride on
    the exception) and MaximalEntanglement above pi/2 - EPS_DEGEN, where
    theta and phi lose meaning; decompose() handles that regime instead.
    """
    return AngleSet(*_angles(_unit(psi, 4)))


def recurrence_sine(psi) -> float:
    """sin(gamma) via the quotient 2 Im(ad + bc) / (cos chi sin theta1 sin theta2).

    A deliberately independent cross-check on the projection method; it
    pins gamma only up to its sine.  It refuses where angles_from_state does,
    in its words, and at the Bloch poles (PoleSingularity below EPS_POLE).
    """
    amps = _unit(psi, 4)
    chi, theta1, _, theta2, _ = _bloch_angles(amps)
    s1, s2 = math.sin(theta1), math.sin(theta2)
    if min(s1, s2) < EPS_POLE:
        raise PoleSingularity("a Bloch vector lies within EPS_POLE of a z-axis pole")
    a, b, c, d = _det_fixed(amps)[0]
    return 2.0 * (a * d + b * c).imag / (math.cos(chi) * s1 * s2)


def state_from_angles(angles: AngleSet) -> np.ndarray:
    """Build the amplitudes from the six natural angles.

    The state is the Schmidt sum of the two half-angle spinors, with gamma
    as the phase of spinor1 (see spinor_from_angles and reconstruct).  The
    output is normalized with (ad - bc) = sin(chi)/2, real and
    non-negative, by construction.  gamma may be None only for separable
    input (chi below EPS_DEGEN), where it is a global phase and defaults
    to zero.
    """
    angles.validate()
    if angles.gamma is None:
        if _entangled(angles.chi):
            raise SeparableGamma("gamma is required: it is optional only below chi = EPS_DEGEN")
        gamma = 0.0
    else:
        gamma = angles.gamma
    return _schmidt_sum(angles.chi, _half_angle(angles.theta1, angles.phi1, gamma),
                        _half_angle(angles.theta2, angles.phi2))


def _decomposed(amps) -> SpinorDecomposition:
    # decompose on Python complexes
    n1 = _bloch(amps, 1)
    chi = _chi(amps, n1)
    carries = _carries_det_phase(amps, chi)
    amps = _det_fixed(amps)[0] if carries else amps
    u1 = _direction(*n1)
    x, y = _contract(u1, amps)
    r = math.hypot(x.real, x.imag, y.real, y.imag)
    u2 = (x / r, y / r)
    # the parity pair must carry the rest of the state, with weight sin(chi/2); where the
    # input keeps its phase, the pair's phase is free
    rest = _vdot2(_parity(*u2), _contract(_parity(*u1), amps))
    if abs((rest if carries else abs(rest)) - math.sin(chi / 2)) > EPS_MATCH:
        raise ValueError("decomposition consistency check failed; input is not a unit state")
    return SpinorDecomposition(chi, np.array(u1), np.array(u2))


def decompose(psi) -> SpinorDecomposition:
    """Split a state into (chi, spinor1, spinor2) with no phase ambiguity.

    Input is first turned as fix_global_phase turns it, to (ad - bc) real
    and non-negative, with no turn where it already is to rounding, but
    separable input (chi below EPS_DEGEN) keeps its phase.  Within 16u of
    EPS_DEGEN, where a turn can move chi across it, input keeps its phase
    only where its largest amplitude is fixed and its ad - bc is not.
    spinor1 points along qubit 1's partial-trace Bloch vector, except where
    that is rounding noise (|n1| <= 16u, as at chi = pi/2): there every
    direction works and +z is the convention.  spinor2 then comes from
    contracting spinor1's direction with the 2x2 amplitude matrix, which
    pins qubit 2's direction *and* the remaining phase in one
    well-conditioned step: the state's overlap with spinor1 x spinor2 is
    real and positive, so reconstruct() returns fix_global_phase(psi)
    exactly wherever the input is turned.  Below the band the phase of
    ad - bc is gamma, which is not carried: every decomposition rebuilds
    ad - bc >= 0, so reconstruct() can miss input that keeps its phase by
    up to 2 sin(chi/2), the representation's floor.
    """
    return _decomposed(_unit(psi, 4))


def reconstruct(d: SpinorDecomposition) -> np.ndarray:
    """Rebuild the full state: cos(chi/2) s1 x s2 + sin(chi/2) P(s1) x P(s2)."""
    return _schmidt_sum(*_read_decomposition(d))


def reconstruct_from_products(d: SpinorDecomposition) -> np.ndarray:
    """Rebuild the amplitudes componentwise from spinor products.

    Independent arithmetic path used to check reconstruct(): with
    spinor1 = (A, B) and spinor2 = (C, D),
    a = AC cos + B*D* sin, b = AD cos - B*C* sin,
    c = BC cos - A*D* sin, d = BD cos + A*C* sin
    (cos and sin of chi/2 throughout).
    """
    chi, (a1, b1), (c2, d2) = _read_decomposition(d)
    cc, sc = math.cos(chi / 2), math.sin(chi / 2)
    a1c, b1c, c2c, d2c = a1.conjugate(), b1.conjugate(), c2.conjugate(), d2.conjugate()
    return np.array([a1 * c2 * cc + b1c * d2c * sc, a1 * d2 * cc - b1c * c2c * sc,
                     b1 * c2 * cc - a1c * d2c * sc, b1 * d2 * cc + a1c * c2c * sc])
