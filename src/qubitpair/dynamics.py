"""Local Hamiltonians, per-qubit schedules and the two unitary evolution backends.

A local Hamiltonian h_i*I + v.sigma acts on one qubit only.  The full backend is
ground truth: it runs each qubit's schedule on its own, step by step, qubit 1's steps
taking the amplitude matrix M = [[a, b], [c, d]] to U1 M and qubit 2's to M U2^T (no 4x4
product).  The separable backend never touches the amplitudes: it
composes each qubit's steps into one SU(2), rotates that spinor of the
phase-fixed Schmidt decomposition once, keeps chi fixed (no local unitary
can change the concurrence), and books the scalar parts as accumulated
phases beta1, beta2 in a ledger, each an exact sum rounded once beside the
remainder those roundings leave, which evolve_separable_state starts at
the turn that brought the input to ad - bc >= 0.  So the exact full state,
global phase included, is e^(-i(beta1+beta2+remainder)) * reconstruct(decomposition)
at all times.  Natural units, hbar = 1; time dependence is piecewise constant.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import operator

import numpy as np

from .states import (
    EPS_DEGEN,
    ConsistencyError,
    MaximalEntanglement,
    SeparableGamma,
    SpinorDecomposition,
    _angles,
    _bloch,
    _contract,
    _decomposed,
    _det_fixed,
    _half_angle,
    _parity,
    _read_decomposition,
    _require_qubit,
    _schmidt_sum,
    _spherical,
    _unit,
    wrap_angle,
)

DEVIATION_BOUND = 1e-9  # the backends agree while the largest amplitude difference stays below this


def backends_agree(deviation: float) -> bool:
    """The one agreement rule for the two backends: deviation strictly below DEVIATION_BOUND."""
    return bool(deviation < DEVIATION_BOUND)


class NonUnitDirection(ValueError):
    """An axis argument was not a unit 3-vector."""


class DegenerateState(ValueError):
    """A recurrence-drift check needs a partially entangled state."""


class StepOverflow(ValueError):
    """A schedule's running span of phases and rotation angles, (|h_i| + |v|) * |dt| summed
    over its steps, overflows (Schedule names the step), a bare one-step operator's |v|*t or
    h_i*t does, or a ledger's start and a schedule's phases overflow their sum."""


@dataclasses.dataclass(frozen=True)
class LocalHamiltonian:
    """One qubit's Hamiltonian h_i*I + v.sigma; v may be the zero vector."""

    h_i: float
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h_i", float(self.h_i))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float).reshape(3))
        if not (math.isfinite(self.h_i) and math.isfinite(math.hypot(*self.v.tolist()))):
            raise ValueError(f"h_i and |v| must be finite: h_i = {self.h_i!r}, v = {self.v!r}")

    @classmethod
    def _unchecked(cls, h_i: float, v: np.ndarray) -> "LocalHamiltonian":
        self = object.__new__(cls)  # a Schedule's step: its arrays were checked once, read-only
        self.__dict__.update(h_i=h_i, v=v)
        return self


ZERO_HAMILTONIAN = LocalHamiltonian(0.0, np.zeros(3))


@dataclasses.dataclass(frozen=True, eq=False)
class Schedule:
    """One qubit's steps as float arrays h (S,), v (S, 3) and dt (S,), copied and read-only;
    both backends read these arrays.  The one magnitude rule: the running span
    sum (|h_i| + |v|) * |dt| stays finite, so every phase h_i*dt, every angle |v|*dt and each
    backend's sum of them does.  The first step past it names the refusal: ValueError where
    its own h_i, |v| or dt is not finite, StepOverflow where the span alone overflows."""

    h: np.ndarray
    v: np.ndarray
    dt: np.ndarray

    def __post_init__(self):
        h, v, dt = arrays = [np.array(x, dtype=float) for x in (self.h, self.v, self.dt)]
        if not (h.ndim == 1 and v.shape == (len(h), 3) and dt.shape == h.shape):
            raise ValueError(f"a schedule needs h (S,), v (S, 3) and dt (S,), "
                             f"got shapes {h.shape}, {v.shape}, {dt.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite span is tested for
            speed = np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
            span = ((np.abs(h) + speed) * np.abs(dt)).cumsum()
        if len(span) and not math.isfinite(span[-1]):
            k = int(np.isfinite(span).argmin())  # a non-finite span stays so: the first step
            values = f"h = {float(h[k])!r}, v = {v[k].tolist()!r}, dt = {float(dt[k])!r}"
            # each value on its own, since a sum of finite values can overflow
            if all(map(math.isfinite, (h[k], speed[k], dt[k]))):
                refusal = StepOverflow(f"the schedule's phases and rotation angles overflow at "
                                       f"step {k}: {values}")
            else:
                refusal = ValueError(f"schedule entries and each |v| must be finite: step {k} "
                                     f"has {values}")
            refusal.step = k  # the step as data too: the schedule loader names its entry by it
            raise refusal
        for name, a in zip(("h", "v", "dt"), arrays):
            a.flags.writeable = False  # so the checks above hold for the object's whole life
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.dt)


def as_schedule(schedule) -> Schedule:
    """A Schedule as it is; a sequence of (LocalHamiltonian, dt) stacked once into one."""
    if isinstance(schedule, Schedule):
        return schedule
    rows = np.array([(h.h_i, *h.v.tolist(), dt) for h, dt in schedule], dtype=float).reshape(-1, 5)
    return Schedule(rows[:, 0], rows[:, 1:4], rows[:, 4])


@dataclasses.dataclass(frozen=True)
class PhaseLedger:
    """Accumulated spin-independent phases, one per qubit.

    Evolving qubit i under h_i for time t adds h_i*t to beta_i: each beta_i is the exact sum
    of its start and its steps' h_i*t, rounded once, and ``remainder`` holds what those
    roundings leave, so ``phase``, the factor restoring the full global phase, comes from
    exact sums at any magnitude.  evolve_separable_state starts beta1 at the turn it gives its
    input before decomposing (0.0 if none).  Each phase must be finite (ValueError otherwise).
    """

    beta1: float = 0.0
    beta2: float = 0.0
    remainder: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.beta1, self.beta2, self.remainder))):
            raise ValueError(f"ledger phases must be finite, got beta1 = {self.beta1!r}, "
                             f"beta2 = {self.beta2!r}, remainder = {self.remainder!r}")

    @property
    def phase(self) -> complex:
        """e^(-i(beta1+beta2+remainder)), as a product: two finite betas can overflow their sum."""
        return (cmath.exp(-1j * self.beta1) * cmath.exp(-1j * self.beta2)
                * cmath.exp(-1j * self.remainder))


@dataclasses.dataclass
class EvolutionReport:
    """Both backends' end states for one state and schedule pair: evolve_full_schedule's and
    evolve_separable_state's amplitudes.  max_component_deviation is the plain infinity
    norm of their difference; no phase alignment is applied, since the ledger already
    restores the exact global phase, decompose's turn included.
    """

    final_state_full: np.ndarray
    final_state_separable: np.ndarray
    max_component_deviation: float


def _cayley_klein(x: float, y: float, z: float, t: float) -> tuple[complex, complex]:
    """(a, b) of exp(-i (v.sigma) t) = [[a, b], [-b*, a*]] = cos(|v|t) I - i sin(|v|t) v_hat.sigma,
    on Python floats; math.hypot keeps a finite |v| from overflowing."""
    speed = math.hypot(x, y, z)
    try:
        c = math.cos(speed * t)
    except ValueError:  # speed * t overflowed: caught, not tested for, so steps cost no more
        raise StepOverflow(f"|v| * t overflows: |v| = {speed!r}, t = {t!r}") from None
    s = math.sin(speed * t) / speed if speed else t  # sin(|v|t)/|v| tends to t
    return complex(c, -s * z), complex(-s * y, -s * x)


def su2_operator(h: LocalHamiltonian, t: float) -> np.ndarray:
    """exp(-i (v.sigma) t) as a 2x2 array; the scalar part h_i is excluded.  t must be
    finite (ValueError otherwise)."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got t = {t!r}")
    a, b = _cayley_klein(*h.v.tolist(), t)
    return np.array((a, b, -b.conjugate(), a.conjugate())).reshape(2, 2)


def local_unitary(h: LocalHamiltonian, t: float) -> np.ndarray:
    """The complete one-qubit evolution operator, scalar phase included."""
    try:
        phase = cmath.exp(-1j * h.h_i * t)
    except ValueError:  # h_i * t overflowed
        raise StepOverflow(f"h_i * t overflows: h_i = {h.h_i!r}, t = {t!r}") from None
    return phase * su2_operator(h, t)


def _left_steps(a, b, c, d, schedule) -> tuple[complex, complex, complex, complex]:
    # M = [[a, b], [c, d]] taken to U M by each step's local_unitary U, in step order
    schedule = as_schedule(schedule)
    for h_i, v, dt in zip(schedule.h.tolist(), schedule.v, schedule.dt.tolist()):
        (p, q), (r, s) = local_unitary(LocalHamiltonian._unchecked(h_i, v), dt).tolist()
        a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
    return a, b, c, d


def evolve_full_schedule(psi, schedule1, schedule2) -> np.ndarray:
    """Run two per-qubit piecewise-constant schedules on the full state.

    psi must be a unit 4-vector, as evolve_separable_state requires (ValueError otherwise,
    NaN and inf included).  Schedules are Schedules or sequences of (LocalHamiltonian,
    duration), each read through as_schedule, so a non-finite duration is refused (ValueError)
    and so is an overflowing span (StepOverflow), on both backends alike.
    The two qubits' unitaries commute, so each schedule runs on its own: qubit 1's steps take
    the amplitude matrix M to U1 M, then qubit 2's take it to M U2^T = (U2 M^T)^T.
    """
    a, b, c, d = _left_steps(*_unit(psi, 4), schedule1)
    a, c, b, d = _left_steps(a, c, b, d, schedule2)
    return np.array((a, b, c, d))


# schedules at least this long are composed as a pairwise tree of numpy rounds, shorter ones
# step by step on Python floats: the tree's fixed cost of about 40 us per qubit outweighs
# its per-step saving below 48-64 steps (measured on a 2-vCPU host, numpy 2.4.6)
COMPOSE_TREE_MIN = 64


def _cayley_klein_columns(v: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_cayley_klein over a Schedule's columns v (S, 3) and t (S,): every step's (a, b) in one
    numpy pass; the Schedule's span rule keeps every |v| * t finite."""
    speed = np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2])
    angle = speed * t
    s = np.divide(np.sin(angle), speed, out=t.copy(), where=speed != 0.0)  # sin(|v|t)/|v| -> t
    return np.cos(angle) - 1j * (s * v[:, 2]), -s * (v[:, 1] + 1j * v[:, 0])


def _composed_tree(schedule: Schedule) -> tuple[complex, complex]:
    # (A, B) of the steps' product, adjacent pairs multiplied, the later step on the left, in
    # ceil(log2 S) rounds
    a, b = _cayley_klein_columns(schedule.v, schedule.dt)
    while len(a) > 1:
        a0, a1, b0, b1 = a[:-1:2], a[1::2], b[:-1:2], b[1::2]
        pair_a, pair_b = a1 * a0 - b1 * b0.conj(), a1 * b0 + b1 * a0.conj()
        if len(a) % 2:  # the last of an odd count waits a round
            pair_a, pair_b = np.append(pair_a, a[-1]), np.append(pair_b, b[-1])
        a, b = pair_a, pair_b
    return complex(a[0]), complex(b[0])


def _rotated(spinor: list[complex], schedule: Schedule) -> np.ndarray:
    # the spinor, two complexes, under the product [[A, B], [-B*, A*]] of the schedule's steps
    if len(schedule) >= COMPOSE_TREE_MIN:
        big_a, big_b = _composed_tree(schedule)
    else:
        v = iter(schedule.v.ravel().tolist())  # one flat list read three at a time, not S lists
        big_a, big_b = 1 + 0j, 0j
        for x, y, z, t in zip(v, v, v, schedule.dt.tolist()):
            a, b = _cayley_klein(x, y, z, t)
            big_a, big_b = a * big_a - b * big_b.conjugate(), a * big_b + b * big_a.conjugate()
    u, l = spinor
    return np.array([big_a * u + big_b * l, big_a.conjugate() * l - big_b.conjugate() * u])


def _summed_phase(schedule: Schedule, qubit: int, *start: float) -> tuple[float, float]:
    # (beta, remainder): the exact sum of start, a ledger's finite phases, and the steps'
    # h_i * dt, as Python floats (a numpy product would warn on overflow), rounded once, and
    # what that rounding leaves
    terms = [*start, *map(operator.mul, schedule.h.tolist(), schedule.dt.tolist())]
    try:
        beta = math.fsum(terms)
        return beta, math.fsum([*terms, -beta])
    except (OverflowError, ValueError):  # a sum past the float range, or inf - inf
        sizes = list(map(abs, terms))
        k = sizes.index(max(sizes)) - len(start)  # the first largest; below 0, a start term
        where = f"step {k}" if k >= 0 else "the ledger's phases"
        raise StepOverflow(f"qubit {qubit}'s summed phase h_i * dt overflows: largest |term| = "
                           f"{max(sizes)!r}, at {where}") from None


def evolve_separable_schedule(d: SpinorDecomposition, ledger: PhaseLedger,
                              schedule1, schedule2) -> tuple[SpinorDecomposition, PhaseLedger]:
    """Run the same schedules on the two 2-dim spinors, each composed into one SU(2) first,
    and book each qubit's phases exactly; qubit 1's sum takes in the ledger's remainder."""
    chi, spinor1, spinor2 = _read_decomposition(d)
    schedule1, schedule2 = as_schedule(schedule1), as_schedule(schedule2)
    beta1, rest1 = _summed_phase(schedule1, 1, ledger.beta1, ledger.remainder)
    beta2, rest2 = _summed_phase(schedule2, 2, ledger.beta2)
    return (SpinorDecomposition(chi, _rotated(spinor1, schedule1), _rotated(spinor2, schedule2)),
            PhaseLedger(beta1, beta2, rest1 + rest2))


def evolve_separable_state(psi, schedule1,
                           schedule2) -> tuple[SpinorDecomposition, PhaseLedger, np.ndarray]:
    """(decomposition, ledger, amplitudes) after evolve_separable_schedule from one start for every
    psi: the turn to ad - bc >= 0 (exactly 0.0 where it already is, to rounding), decompose of the
    turned state, and beta1 at that turn; the amplitudes, ledger.phase * reconstruct(decomposition),
    carry psi's global phase.  Only psi is read as a unit state: the rotated spinors' rounding grows
    with the step count, past the unit-norm rule reconstruct holds its callers to."""
    amps, turn = _det_fixed(_unit(psi, 4))
    d, ledger = evolve_separable_schedule(_decomposed(amps), PhaseLedger(turn),
                                          schedule1, schedule2)
    return d, ledger, ledger.phase * _schmidt_sum(d.chi, d.spinor1.tolist(), d.spinor2.tolist())


def compare_backends(psi, schedule1, schedule2) -> EvolutionReport:
    """Evolve psi on both backends, evolve_full_schedule's run and evolve_separable_state's,
    and report the raw deviation; psi must be a unit 4-vector (ValueError otherwise)."""
    full = evolve_full_schedule(psi, schedule1, schedule2)
    separable = evolve_separable_state(psi, schedule1, schedule2)[2]
    return EvolutionReport(full, separable, float(np.max(np.abs(full - separable))))


def _eigenspinors(x: float, y: float, z: float) -> tuple[tuple[complex, complex], ...]:
    # the half-angle spinor along (x, y, z) and its parity image, as Python complexes
    plus = _half_angle(*_spherical(x, y, z))
    return plus, _parity(*plus)


def _aligned_field(x: float, y: float, z: float, energy: float) -> tuple[float, float, float]:
    # energy * (x, y, z) for a unit axis and a positive finite energy, once the axis's half-angle
    # eigenspinors pass at +-1 on n.sigma, energy times their residual within 1e-10 * max(1, energy)
    length = math.hypot(x, y, z)
    if not abs(length - 1.0) <= 1e-9:
        raise NonUnitDirection(f"|direction| = {length!r}")
    if not 0.0 < energy < math.inf:
        raise ValueError(f"energy must be positive and finite, got {energy!r}")
    for (u, l), e in zip(_eigenspinors(x, y, z), (1.0, -1.0)):
        r0, r1 = (z - e) * u + complex(x, -y) * l, complex(x, y) * u - (z + e) * l
        if not energy * math.hypot(r0.real, r0.imag, r1.real, r1.imag) < 1e-10 * max(1.0, energy):
            raise ConsistencyError("psi_plus, psi_minus are not eigenvectors at +-energy")
    return energy * x, energy * y, energy * z


def aligned_hamiltonian(direction, energy: float) -> LocalHamiltonian:
    """Traceless Hamiltonian of strength ``energy`` along a unit Bloch axis.

    When the axis matches a qubit's own partial-trace direction this is the
    generator of pure recurrence rotation: it leaves both Bloch vectors and
    chi untouched and drifts gamma linearly.  Its v is energy * direction,
    once the two eigenspinors check out at +-energy (ConsistencyError
    otherwise); a non-unit direction raises NonUnitDirection, an energy that
    is not positive and finite ValueError.
    """
    axis = np.asarray(direction, dtype=float).reshape(3).tolist()
    return LocalHamiltonian(0.0, _aligned_field(*axis, energy))


def _own_axis(amps, qubit: int, floor: float) -> tuple[float, float, float]:
    # n/|n| for one qubit's Bloch vector n, with |n| as np.linalg.norm gives it: the axis keeps
    # those bits; DegenerateState where |n| <= floor
    _require_qubit(qubit)
    x, y, z = n = _bloch(amps, qubit)
    r = float(np.linalg.norm(n))
    if not r > floor:
        raise DegenerateState("the chosen qubit's Bloch vector vanishes")
    return x / r, y / r, z / r


def aligned_mode_coefficients(psi) -> tuple[np.ndarray, np.ndarray]:
    """Expand a state over the degenerate eigenpairs of its aligned Hamiltonian.

    Returns (coefficients, basis) where the basis stacks psi_plus x e0,
    psi_plus x e1, psi_minus x e0, psi_minus x e1 built on qubit 1's
    partial-trace axis.  The first two modes share eigenvalue +E, the last
    two -E, so an aligned evolution only counter-rotates the two halves.
    Completeness of the four coefficients is checked to 1e-12
    (ConsistencyError).
    """
    amps = _unit(psi, 4)
    plus, minus = _eigenspinors(*_own_axis(amps, 1, EPS_DEGEN))
    coeffs = np.array([*_contract(plus, amps), *_contract(minus, amps)])
    basis = np.array([row for u, l in (plus, minus) for row in ((u, 0, l, 0), (0, u, 0, l))])
    if not np.linalg.norm(coeffs @ basis - np.array(amps)) < 1e-12:
        raise ConsistencyError("the four aligned modes do not rebuild the state")
    return coeffs, basis


def _unwrap_nearest(gammas: list[float]) -> list[float]:
    out = gammas[:1]
    for g in gammas[1:]:
        out.append(g + 2.0 * math.pi * round((out[-1] - g) / (2.0 * math.pi)))
    return out


def _circular_spread(values) -> float:
    # the largest turn from the first angle to another, each difference reduced exactly
    ref = values[0]
    return max(abs(math.remainder(v - ref, 2.0 * math.pi)) for v in values)


def _line_fit(times: list[float], values: list[float]) -> tuple[float, float]:
    # (slope, largest |value - line|) of the least-squares line, in closed form on Python floats:
    # the times are centred on their midpoint and scaled by the larger half of their span into
    # [-1, 1], so two distinct finite times neither overflow nor divide by zero; only the slope,
    # put back into the grid's units, can overflow, on a span of a few subnormals
    count, lo, hi = len(times), min(times), max(times)
    mid = 0.5 * lo + 0.5 * hi
    half_span = max(hi - mid, mid - lo)
    xs = [(t - mid) / half_span for t in times]
    x_mean, v_mean = sum(xs) / count, sum(values) / count
    dxs, dvs = [x - x_mean for x in xs], [v - v_mean for v in values]
    slope = sum(dx * dv for dx, dv in zip(dxs, dvs)) / sum(dx * dx for dx in dxs)
    return slope / half_span, max(abs(dv - slope * dx) for dx, dv in zip(dxs, dvs))


def _aligned_turns(psi, what: str, turns, times) -> tuple[tuple, list[tuple]]:
    # _angles of psi, and of psi after each time's closed-form turns (qubit, energy, flip) about
    # that qubit's own Bloch axis (against it if flip): exp(-i (v.sigma) t), with no scalar phase,
    # is U = [[p, q], [-q*, p*]], whose rows contract the turned qubit as <(p*, q*)| and <(-q, p)|;
    # where _angles refuses psi or a turned state, the check refuses with DegenerateState
    amps = _unit(psi, 4)
    try:
        start, axes, records = _angles(amps), [], []
        for qubit, energy, flip in turns:
            x, y, z = _own_axis(amps, qubit, 0.0)
            axes.append((qubit, _aligned_field(-x, -y, -z, energy) if flip
                         else _aligned_field(x, y, z, energy)))
        for t in times:
            a, b, c, d = amps
            for qubit, v in axes:
                p, q = _cayley_klein(*v, t)
                m = (a, b, c, d) if qubit == 1 else (a, c, b, d)  # the turned qubit first
                (a, b), (c, d) = _contract((p.conjugate(), q.conjugate()), m), _contract((-q, p), m)
                if qubit == 2:
                    b, c = c, b
            records.append(_angles((a, b, c, d)))
    except (SeparableGamma, MaximalEntanglement) as exc:
        raise DegenerateState(f"{what} needs a partially entangled state") from exc
    return start, records


def recurrence_drift(psi, qubit: int, energy: float, t_grid) -> tuple[float, float]:
    """Rotate one qubit about its own Bloch axis and fit gamma(t) to a line.

    Evolves the full state across t_grid under the aligned Hamiltonian of
    strength ``energy`` on the chosen qubit, extracts gamma at each time
    (projection method, unwrapped by nearest-branch continuation), and
    returns (slope, residual): d(gamma)/dt of the closed-form least-squares
    line, fitted on Python floats with the times centred and scaled by their
    span, and the largest absolute deviation from it.  Each grid state is
    the closed-form turn compound_rotation_check also takes: the aligned
    SU(2), traceless, on the rotated qubit alone, which is one step of
    evolve_full_schedule with the other qubit under ZERO_HAMILTONIAN for the
    same time, bit for bit but for the sign of a zero.
    psi and every grid state must lie where angles_from_state defines gamma
    (DegenerateState otherwise); the five other angles must stay constant to
    1e-8 (ConsistencyError otherwise).  The slope comes out at -2*energy.
    t_grid must hold two distinct finite times at least, spanning enough
    time for a finite slope (ValueError otherwise).
    """
    grid = np.asarray(t_grid, dtype=float)
    times = grid.tolist()
    if not (grid.ndim == 1 and np.isfinite(grid).all() and len(set(times)) >= 2):
        raise ValueError(f"t_grid must hold at least two distinct finite times, got {t_grid!r}")
    _, records = _aligned_turns(psi, "recurrence drift", [(qubit, energy, False)], times)
    slope, residual = _line_fit(times, _unwrap_nearest([r[5] for r in records]))
    if not math.isfinite(slope):
        raise ValueError(f"t_grid spans too short a time for a finite slope, got {t_grid!r}")
    for k, name in ((0, "chi"), (1, "theta1"), (3, "theta2"), (2, "phi1"), (4, "phi2")):
        values = [r[k] for r in records]
        spread = _circular_spread(values) if name.startswith("phi") else max(values) - min(values)
        if not spread < 1e-8:
            raise ConsistencyError(f"{name} moved by {spread:.3e} under an aligned rotation")
    return slope, residual


def compound_rotation_check(psi, energy1: float, energy2: float, t: float,
                            same_handed: bool) -> float:
    """Rotate both qubits about their own axes; return gamma(t) - gamma(0).

    Same-handed rotations compound the drift (|delta| grows as
    2(E1+E2)t); opposite-handed rotations with equal energies cancel it
    exactly.  Each qubit takes recurrence_drift's closed-form turn, qubit 1
    first, under the same gate.  The difference is wrapped to (-pi, pi].
    t must be finite (ValueError otherwise).
    """
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got t = {t!r}")
    start, (end,) = _aligned_turns(psi, "the compound-rotation check",
                                   [(1, energy1, False), (2, energy2, not same_handed)], [t])
    return wrap_angle(end[5] - start[5])
