"""Local Hamiltonians, per-qubit schedules and the two unitary evolution backends.

A local Hamiltonian h_i*I + v.sigma acts on one qubit only.  The full backend is
ground truth: each step takes the amplitude matrix M = [[a, b], [c, d]] to U1 M U2^T
(no 4x4 product).  The separable backend never touches the amplitudes: it
composes each qubit's steps into one SU(2), rotates that spinor of the
phase-fixed Schmidt decomposition once, keeps chi fixed (no local unitary
can change the concurrence), and books the scalar parts as accumulated
phases beta1, beta2 in a ledger.  The exact full state, global phase
included, is e^(-i(beta1+beta2)) * reconstruct(decomposition) at all
times.  Natural units, hbar = 1; time dependence is piecewise constant.
"""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math

import numpy as np

from .states import (
    EPS_DEGEN,
    HALF_PI,
    AngleSet,
    ConsistencyError,
    MaximalEntanglement,
    SeparableGamma,
    SpinorDecomposition,
    _contract,
    _half_angle,
    _parity,
    _require_qubit,
    _spherical,
    _values,
    angles_from_state,
    as_state,
    concurrence_angle,
    decompose,
    reconstruct,
    state_bloch_vector,
    wrap_angle,
)

DEVIATION_BOUND = 1e-9  # largest amplitude difference at which the backends agree


class NonUnitDirection(ValueError):
    """An axis argument was not a unit 3-vector."""


class DegenerateState(ValueError):
    """A recurrence-drift check needs a partially entangled state."""


@dataclasses.dataclass(frozen=True)
class LocalHamiltonian:
    """One qubit's Hamiltonian h_i*I + v.sigma; v may be the zero vector."""

    h_i: float
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h_i", float(self.h_i))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float).reshape(3))
        x, y, z = self.v.tolist()
        if not (math.isfinite(self.h_i) and math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise ValueError(f"Hamiltonian entries must be finite: h_i = {self.h_i!r}, v = {self.v!r}")

    @classmethod
    def _unchecked(cls, h_i: float, v: np.ndarray) -> "LocalHamiltonian":
        self = object.__new__(cls)  # a Schedule's step: its arrays were checked once, read-only
        self.__dict__.update(h_i=h_i, v=v)
        return self

    def matrix(self) -> np.ndarray:
        vx, vy, vz = self.v
        return np.array([[self.h_i + vz, vx - 1j * vy],
                         [vx + 1j * vy, self.h_i - vz]])


ZERO_HAMILTONIAN = LocalHamiltonian(0.0, np.zeros(3))


@dataclasses.dataclass(frozen=True, eq=False)
class Schedule:
    """One qubit's steps as finite float arrays h (S,), v (S, 3) and dt (S,), copied and
    read-only; iterating yields (LocalHamiltonian, dt) per step, the form the full backend runs."""

    h: np.ndarray
    v: np.ndarray
    dt: np.ndarray

    def __post_init__(self):
        h, v, dt = arrays = [np.array(x, dtype=float) for x in (self.h, self.v, self.dt)]
        if not (h.ndim == 1 and v.shape == (len(h), 3) and dt.shape == h.shape):
            raise ValueError(f"a schedule needs h (S,), v (S, 3) and dt (S,), "
                             f"got shapes {h.shape}, {v.shape}, {dt.shape}")
        if not all(np.isfinite(a).all() for a in arrays):
            raise ValueError("schedule entries must be finite")
        for name, a in zip(("h", "v", "dt"), arrays):
            a.flags.writeable = False  # so the checks above hold for the object's whole life
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.dt)

    def __iter__(self):
        for h_i, v, dt in zip(self.h.tolist(), self.v, self.dt.tolist()):
            yield LocalHamiltonian._unchecked(h_i, v), dt


def as_schedule(schedule) -> Schedule:
    """A Schedule as it is; a sequence of (LocalHamiltonian, dt) stacked once into one."""
    if isinstance(schedule, Schedule):
        return schedule
    rows = np.array([(h.h_i, *h.v.tolist(), dt) for h, dt in schedule], dtype=float).reshape(-1, 5)
    return Schedule(rows[:, 0], rows[:, 1:4], rows[:, 4])


@dataclasses.dataclass(frozen=True)
class PhaseLedger:
    """Accumulated spin-independent phases, one per qubit.

    Evolving qubit i under h_i for time t adds h_i*t to beta_i; the factor
    restoring the full global phase is ``phase``.
    """

    beta1: float = 0.0
    beta2: float = 0.0

    def advanced(self, qubit: int, delta: float) -> "PhaseLedger":
        _require_qubit(qubit)
        if qubit == 1:
            return PhaseLedger(self.beta1 + delta, self.beta2)
        return PhaseLedger(self.beta1, self.beta2 + delta)

    @property
    def phase(self) -> complex:
        """e^(-i(beta1+beta2)), as a product: two finite betas can overflow their sum."""
        return cmath.exp(-1j * self.beta1) * cmath.exp(-1j * self.beta2)


@dataclasses.dataclass
class EvolutionReport:
    """Side-by-side result of both backends for one schedule pair.

    max_component_deviation is the plain infinity norm of the amplitude
    difference; no phase alignment is applied, since the ledger already
    restores the exact global phase.
    """

    final_state_full: np.ndarray
    final_state_separable: np.ndarray
    max_component_deviation: float
    angle_traces: list[AngleSet | None] | None = None


def _cayley_klein(x: float, y: float, z: float, t: float) -> tuple[complex, complex]:
    """(a, b) of exp(-i (v.sigma) t) = [[a, b], [-b*, a*]] = cos(|v|t) I - i sin(|v|t) v_hat.sigma,
    on Python floats; math.hypot keeps a finite |v| from overflowing."""
    speed = math.hypot(x, y, z)
    c = math.cos(speed * t)
    s = math.sin(speed * t) / speed if speed else t  # sin(|v|t)/|v| tends to t
    return complex(c, -s * z), complex(-s * y, -s * x)


def su2_operator(h: LocalHamiltonian, t: float) -> np.ndarray:
    """exp(-i (v.sigma) t) as a 2x2 array; the scalar part h_i is excluded."""
    a, b = _cayley_klein(*h.v.tolist(), t)
    return np.array((a, b, -b.conjugate(), a.conjugate())).reshape(2, 2)


def local_unitary(h: LocalHamiltonian, t: float) -> np.ndarray:
    """The complete one-qubit evolution operator, scalar phase included."""
    return cmath.exp(-1j * h.h_i * t) * su2_operator(h, t)


def evolve_spinor(spinor, h: LocalHamiltonian, t: float, ledger: PhaseLedger,
                  qubit: int) -> tuple[np.ndarray, PhaseLedger]:
    """Rotate one local spinor and book its scalar energy into the ledger."""
    s, beta = _rotated(spinor, [(h, t)], 0.0)
    return s, ledger.advanced(qubit, beta)


def _full_steps(psi, schedule1, schedule2):
    """Yield (a, b, c, d) after each paired step, M = [[a, b], [c, d]] going to U1 M U2^T."""
    a, b, c, d = psi
    for step1, step2 in itertools.zip_longest(schedule1, schedule2):
        if step1 is not None:
            (p, q), (r, s) = local_unitary(*step1).tolist()
            a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
        if step2 is not None:
            (p, q), (r, s) = local_unitary(*step2).tolist()
            a, b, c, d = a * p + b * q, a * r + b * s, c * p + d * q, c * r + d * s
        yield a, b, c, d


def evolve_full_schedule(psi, schedule1, schedule2) -> np.ndarray:
    """Run two per-qubit piecewise-constant schedules on the full state.

    Schedules are Schedules or sequences of (LocalHamiltonian, duration).
    Steps are paired, one from each schedule, with no identity padding: once
    the shorter schedule has run out, the longer one's steps act alone.  The
    two qubits' unitaries commute, so the pairing does not depend on timing.
    """
    final = _values(psi, 4)
    for final in _full_steps(final, schedule1, schedule2):
        pass
    return np.array(final)


def _rotated(spinor, schedule, beta: float) -> tuple[np.ndarray, float]:
    # the spinor under the product [[A, B], [-B*, A*]] of the schedule's SU(2)
    # steps, and beta plus the steps' h_i * dt, summed in step order
    if isinstance(schedule, Schedule):
        steps = zip(schedule.h.tolist(), schedule.v.tolist(), schedule.dt.tolist())
    else:
        steps = ((h.h_i, h.v.tolist(), dt) for h, dt in schedule)
    big_a, big_b = 1 + 0j, 0j
    for h_i, (x, y, z), t in steps:
        a, b = _cayley_klein(x, y, z, t)
        big_a, big_b = a * big_a - b * big_b.conjugate(), a * big_b + b * big_a.conjugate()
        beta += h_i * t
    u, l = _values(spinor, 2)
    return np.array([big_a * u + big_b * l, big_a.conjugate() * l - big_b.conjugate() * u]), beta


def evolve_separable_schedule(d: SpinorDecomposition, ledger: PhaseLedger,
                              schedule1, schedule2) -> tuple[SpinorDecomposition, PhaseLedger]:
    """Run the same schedules on the two 2-dim spinors, each composed into one SU(2) first."""
    s1, beta1 = _rotated(d.spinor1, schedule1, ledger.beta1)
    s2, beta2 = _rotated(d.spinor2, schedule2, ledger.beta2)
    return SpinorDecomposition(d.chi, s1, s2), PhaseLedger(beta1, beta2)


def evolve_full(psi, h1: LocalHamiltonian, h2: LocalHamiltonian, t: float) -> np.ndarray:
    """Evolve the full 4-vector under h1 x I + I x h2 for time t.

    Scalar parts included, so this is the ground-truth backend.
    """
    return np.array(next(_full_steps(_values(psi, 4), [(h1, t)], [(h2, t)])))


def evolve_separable(d: SpinorDecomposition, ledger: PhaseLedger,
                     h1: LocalHamiltonian, h2: LocalHamiltonian,
                     t: float) -> tuple[SpinorDecomposition, PhaseLedger]:
    """Evolve both spinors locally for time t; chi never changes."""
    return evolve_separable_schedule(d, ledger, [(h1, t)], [(h2, t)])


def _trace_angles(psi) -> AngleSet | None:
    try:
        return angles_from_state(psi)
    except SeparableGamma as exc:
        return exc.angles
    except MaximalEntanglement:
        return None


def compare_backends(psi, schedule1, schedule2, trace: bool = False) -> EvolutionReport:
    """Evolve on both backends and report the raw deviation.

    The full state steps through the paired schedules (see
    evolve_full_schedule); with trace=True its six angles are recorded
    after every step, entries None where undefined.
    """
    psi = as_state(psi)
    full = psi.tolist()
    traces: list[AngleSet | None] | None = [] if trace else None
    for full in _full_steps(full, schedule1, schedule2):
        if traces is not None:
            traces.append(_trace_angles(full))
    full = np.array(full)
    d, ledger = evolve_separable_schedule(decompose(psi), PhaseLedger(), schedule1, schedule2)
    separable = ledger.phase * reconstruct(d)
    deviation = float(np.max(np.abs(full - separable)))
    return EvolutionReport(full, separable, deviation, traces)


def _eigenspinors(x: float, y: float, z: float) -> tuple[tuple[complex, complex], ...]:
    # the half-angle spinor along (x, y, z) and its parity image, as Python complexes
    plus = _half_angle(*_spherical(x, y, z))
    return plus, _parity(*plus)


def aligned_eigenvectors(direction) -> tuple[np.ndarray, np.ndarray]:
    """Half-angle eigenspinors (psi_plus, psi_minus) of v.sigma along a unit axis."""
    plus, minus = _eigenspinors(*np.asarray(direction, dtype=float).reshape(3).tolist())
    return np.array(plus), np.array(minus)


def aligned_hamiltonian(direction, energy: float) -> LocalHamiltonian:
    """Traceless Hamiltonian of strength ``energy`` along a unit Bloch axis.

    When the axis matches a qubit's own partial-trace direction this is the
    generator of pure recurrence rotation: it leaves both Bloch vectors and
    chi untouched and drifts gamma linearly.
    """
    direction = np.asarray(direction, dtype=float).reshape(3)
    axis = direction.tolist()
    length = math.hypot(*axis)
    if abs(length - 1.0) > 1e-9:
        raise NonUnitDirection(f"|direction| = {length!r}")
    if not energy > 0.0:
        raise ValueError("energy must be positive")
    h = LocalHamiltonian(0.0, energy * direction)
    (m00, m01), (m10, m11) = h.matrix().tolist()
    for (u, l), e in zip(_eigenspinors(*axis), (energy, -energy)):
        r0, r1 = m00 * u + m01 * l - e * u, m10 * u + m11 * l - e * l  # (m - e) s
        if not math.hypot(r0.real, r0.imag, r1.real, r1.imag) < 1e-10:
            raise ConsistencyError("psi_plus, psi_minus are not eigenvectors at +-energy")
    return h


def aligned_mode_coefficients(psi, qubit: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Expand a state over the degenerate eigenpairs of its aligned Hamiltonian.

    Returns (coefficients, basis) where the basis stacks psi_plus x e0,
    psi_plus x e1, psi_minus x e0, psi_minus x e1 built on the chosen
    qubit's partial-trace axis (tensor order swapped for qubit 2).  The
    first two modes share eigenvalue +E, the last two -E, so an aligned
    evolution only counter-rotates the two halves.  Completeness of the
    four coefficients is checked to 1e-12 (ConsistencyError).
    """
    psi = as_state(psi)
    n = state_bloch_vector(psi, qubit)
    r = float(np.linalg.norm(n))
    if r <= EPS_DEGEN:
        raise DegenerateState("the chosen qubit's Bloch vector vanishes")
    plus, minus = _eigenspinors(*(n / r).tolist())
    a, b, c, d = psi.tolist()
    amps = (a, b, c, d) if qubit == 1 else (a, c, b, d)
    coeffs = np.array([*_contract(plus, amps), *_contract(minus, amps)])
    basis = np.array([row for u, l in (plus, minus) for row in ((u, 0, l, 0), (0, u, 0, l))])
    if qubit == 2:
        basis = basis[:, [0, 2, 1, 3]]
    if not np.linalg.norm(coeffs @ basis - psi) < 1e-12:
        raise ConsistencyError("the four aligned modes do not rebuild the state")
    return coeffs, basis


def _unwrap_nearest(gammas: list[float]) -> list[float]:
    out = gammas[:1]
    for g in gammas[1:]:
        out.append(g + 2.0 * math.pi * round((out[-1] - g) / (2.0 * math.pi)))
    return out


def _circular_spread(values) -> float:
    ref = values[0]
    return max(abs(wrap_angle(v - ref)) for v in values)


def recurrence_drift(psi, qubit: int, energy: float, t_grid) -> tuple[float, float]:
    """Rotate one qubit about its own Bloch axis and fit gamma(t) to a line.

    Evolves the full state across t_grid under the aligned Hamiltonian of
    strength ``energy`` on the chosen qubit, extracts gamma at each time
    (projection method, unwrapped by nearest-branch continuation), and
    returns (slope, residual): the fitted d(gamma)/dt and the largest
    absolute deviation from the fit.  Each grid state is one step of the
    full backend's loop (_full_steps) in which only the rotated qubit has a
    step; the other qubit is left alone, not stepped by an identity.  The
    five other angles must stay constant to 1e-8 across the grid
    (ConsistencyError otherwise).  In these conventions the slope comes
    out at -2*energy.
    """
    psi = as_state(psi)
    chi = concurrence_angle(psi)  # edge-stable, so exact singlets cannot slip the gate
    if not EPS_DEGEN < chi < HALF_PI - EPS_DEGEN:
        raise DegenerateState("recurrence drift needs a partially entangled state")
    n = state_bloch_vector(psi, qubit)
    h = aligned_hamiltonian(n / np.linalg.norm(n), energy)
    amps = psi.tolist()
    times = np.asarray(t_grid, dtype=float).tolist()
    # one step of the rotated qubit per time; the other qubit's schedule is empty
    pairs = (([(h, t)], ()) if qubit == 1 else ((), [(h, t)]) for t in times)
    records = [angles_from_state(next(_full_steps(amps, *pair))) for pair in pairs]
    gammas = _unwrap_nearest([r.gamma for r in records])
    slope, intercept = np.polyfit(times, gammas, 1).tolist()
    residual = max(abs(g - (slope * t + intercept)) for t, g in zip(times, gammas))
    for name in ("chi", "theta1", "theta2", "phi1", "phi2"):
        values = [getattr(r, name) for r in records]
        spread = _circular_spread(values) if name.startswith("phi") else max(values) - min(values)
        if not spread < 1e-8:
            raise ConsistencyError(f"{name} moved by {spread:.3e} under an aligned rotation")
    return slope, residual


def compound_rotation_check(psi, energy1: float, energy2: float, t: float,
                            same_handed: bool) -> float:
    """Rotate both qubits about their own axes; return gamma(t) - gamma(0).

    Same-handed rotations compound the drift (|delta| grows as
    2(E1+E2)t); opposite-handed rotations with equal energies cancel it
    exactly.  The difference is returned wrapped to (-pi, pi].
    """
    psi = as_state(psi)
    chi = concurrence_angle(psi)
    if not EPS_DEGEN < chi < HALF_PI - EPS_DEGEN:
        raise DegenerateState("the compound-rotation check needs a partially entangled state")
    n1 = state_bloch_vector(psi, 1)
    n2 = state_bloch_vector(psi, 2)
    h1 = aligned_hamiltonian(n1 / np.linalg.norm(n1), energy1)
    axis2 = n2 / np.linalg.norm(n2)
    h2 = aligned_hamiltonian(axis2 if same_handed else -axis2, energy2)
    start = angles_from_state(psi).gamma
    end = angles_from_state(next(_full_steps(psi.tolist(), [(h1, t)], [(h2, t)]))).gamma
    return wrap_angle(end - start)
