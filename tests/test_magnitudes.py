"""Finite numbers of every magnitude, from subnormals up to 1e308, into each public entry point
that takes them: each result is finite, or the call refuses with a typed ValueError subclass whose
message names the input.  Never a bare "math domain error", a NaN, a numpy warning, or a
ConsistencyError, which is the package's own cross-check failing on valid input.  Non-unit and
non-finite states, spinors and decompositions, and non-finite scalars, go into every public call
that takes them: each refuses with a ValueError naming the offending value."""

import cmath
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qubitpair as qp
from oracles import numbers

REALS = st.floats(min_value=-1e308, max_value=1e308)  # zero and subnormals included
ENERGIES = st.floats(min_value=5e-324, max_value=1e308)
VECTORS = st.tuples(REALS, REALS, REALS)
HAMILTONIANS = st.builds(qp.LocalHamiltonian, REALS, VECTORS)
STEPS = st.lists(st.tuples(REALS, VECTORS, REALS), min_size=1, max_size=3)  # (h_i, v, dt)
GRIDS = st.lists(REALS, min_size=2, max_size=5, unique=True)
# a unit axis from two angles of any size, to reach the aligned checks past their direction check
AXES = st.builds(lambda theta, phi: (math.sin(theta) * math.cos(phi),
                                     math.sin(theta) * math.sin(phi), math.cos(theta)),
                 REALS, REALS)
STATES = st.sampled_from([
    qp.sample_haar(1, 5)[0],
    qp.state_from_angles(qp.AngleSet(0.0, 0.4, 1.0, 2.0, -0.5)),
    np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0),
])
SWEEP = settings(derandomize=True, max_examples=150, deadline=None)


def assert_finite_or_refused(call, *refusals):
    """call() under warnings-as-errors gives only finite numbers, or raises one of refusals."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except refusals as exc:
            assert " = " in str(exc) or "state" in str(exc), str(exc)
            return
    assert all(cmath.isfinite(x) for x in numbers(result)), result


def schedule(steps):
    """A Schedule of (h_i, v, dt) steps, built where the caller checks its refusal."""
    return qp.Schedule(*zip(*steps))


@SWEEP
@given(REALS, VECTORS, STEPS)
def test_hamiltonians_and_schedules(h_i, v, steps):
    assert_finite_or_refused(lambda: qp.LocalHamiltonian(h_i, v))
    assert_finite_or_refused(lambda: schedule(steps), qp.StepOverflow)


@SWEEP
@given(HAMILTONIANS, REALS)
def test_one_step_operators(h, t):
    for operator in (qp.su2_operator, qp.local_unitary):
        assert_finite_or_refused(lambda: operator(h, t), qp.StepOverflow)


@SWEEP
@given(STATES, HAMILTONIANS, HAMILTONIANS, REALS)
def test_one_step_evolution(psi, h1, h2, t):
    d, ledger = qp.decompose(psi), qp.PhaseLedger()
    assert_finite_or_refused(lambda: qp.evolve_full_schedule(psi, [(h1, t)], [(h2, t)]),
                             qp.StepOverflow)
    assert_finite_or_refused(
        lambda: qp.evolve_separable_schedule(d, ledger, [(h1, t)], [(h2, t)]), qp.StepOverflow)


@SWEEP
@given(st.floats(), st.floats(), st.floats())  # NaN and the infinities included
@example(math.nan, 0.0, 0.0)
@example(0.0, math.inf, 0.0)
@example(0.0, 0.0, -math.inf)
@example(1e308, -1e308, 1e308)
def test_every_constructible_ledger_has_a_finite_phase(beta1, beta2, remainder):
    assert_finite_or_refused(lambda: qp.PhaseLedger(beta1, beta2, remainder).phase, ValueError)


@SWEEP
@given(STATES, STEPS, STEPS)
def test_schedule_evolution(psi, s1, s2):
    # each Schedule is built inside the checked call: its magnitude rule is one of the refusals
    d, ledger = qp.decompose(psi), qp.PhaseLedger()
    assert_finite_or_refused(lambda: qp.evolve_full_schedule(psi, schedule(s1), schedule(s2)),
                             qp.StepOverflow)
    assert_finite_or_refused(
        lambda: qp.evolve_separable_schedule(d, ledger, schedule(s1), schedule(s2)),
        qp.StepOverflow)
    assert_finite_or_refused(lambda: qp.evolve_separable_state(psi, schedule(s1), schedule(s2)),
                             qp.StepOverflow)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(STATES, st.floats(min_value=-1e8, max_value=1e8), st.integers(0, 2000),
       st.integers(0, 2**32 - 1))
def test_large_scalar_energies_keep_the_backends_together(psi, scale, length, seed):
    # scalar energies near scale, 1% apart, on both qubits: the ledger's exact sums keep the
    # separable run within the backends' bound of the full one
    rng = np.random.default_rng(seed)
    schedules = [qp.Schedule(scale * (1.0 + 0.01 * rng.normal(size=length)),
                             rng.normal(size=(length, 3)), rng.uniform(0.01, 0.3, size=length))
                 for _ in range(2)]
    try:
        report = qp.compare_backends(psi, *schedules)
    except qp.StepOverflow:
        return
    assert qp.dynamics.backends_agree(report.max_component_deviation), report


@SWEEP
@given(st.one_of(AXES, VECTORS), ENERGIES)
def test_aligned_hamiltonian(direction, energy):
    assert_finite_or_refused(lambda: qp.aligned_hamiltonian(direction, energy),
                             qp.NonUnitDirection)


@SWEEP
@given(STATES, st.sampled_from([1, 2]), ENERGIES, GRIDS)
def test_recurrence_drift(psi, qubit, energy, grid):
    try:
        assert_finite_or_refused(lambda: qp.recurrence_drift(psi, qubit, energy, grid),
                                 qp.StepOverflow, qp.DegenerateState)
    except ValueError as exc:
        # the one plain refusal, documented: a span too short for a finite slope, over a few
        # subnormals
        assert type(exc) is ValueError and str(exc).startswith("t_grid spans too short"), exc


@SWEEP
@given(STATES, ENERGIES, ENERGIES, REALS, st.booleans())
def test_compound_rotation_check(psi, energy1, energy2, t, same_handed):
    assert_finite_or_refused(
        lambda: qp.compound_rotation_check(psi, energy1, energy2, t, same_handed),
        qp.StepOverflow, qp.DegenerateState)


@SWEEP
@given(VECTORS)
@example((5e-324, 0.0, 0.0))
def test_vector_angles(n):
    assert_finite_or_refused(lambda: qp.spherical_angles(n))


# a unit state and spinor whose squared norms sum exactly, so each doubled reads |v|^2 = 4.0
UNIT_STATE = np.array([0.5, 0.5j, -0.5, 0.5])
UNIT_SPINOR = np.array([0.5 + 0.5j, 0.5 - 0.5j])
BAD_ENTRIES = st.sampled_from([math.nan, math.inf, -math.inf, complex(0.0, math.nan),
                               complex(0.0, -math.inf)])
BAD_SCALARS = st.sampled_from([math.nan, math.inf, -math.inf])
H = qp.LocalHamiltonian(0.5, [0.1, -0.2, 0.3])
STATE_CALLS = [
    qp.as_state, qp.concurrence, qp.concurrence_angle, qp.fix_global_phase,
    lambda psi: qp.state_bloch_vector(psi, 1), qp.angles_from_state, qp.recurrence_sine,
    qp.decompose, lambda psi: qp.born_full(psi, 1, UNIT_SPINOR),
    lambda psi: qp.evolve_full_schedule(psi, [(H, 0.1)], [(H, 0.1)]),
    lambda psi: qp.evolve_full_schedule(psi, [], []),
    lambda psi: qp.evolve_separable_state(psi, [], []),
    lambda psi: qp.compare_backends(psi, [], []), qp.aligned_mode_coefficients,
    lambda psi: qp.recurrence_drift(psi, 1, 1.0, [0.0, 1.0]),
    lambda psi: qp.compound_rotation_check(psi, 1.0, 1.0, 0.1, True),
]
SPINOR_CALLS = [
    qp.as_spinor, qp.spinor_bloch_vector, qp.parity,
    lambda s: qp.born_full(UNIT_STATE, 2, s), lambda s: qp.born_local(0.3, s, UNIT_SPINOR),
    lambda s: qp.born_local(0.3, UNIT_SPINOR, s),
]
DECOMPOSITION_CALLS = [
    qp.reconstruct, qp.reconstruct_from_products,
    lambda d: qp.evolve_separable_schedule(d, qp.PhaseLedger(), [], []),
    lambda d: qp.evolve_separable_schedule(d, qp.PhaseLedger(), [(H, 0.1)], [(H, 0.1)]),
    lambda d: qp.born_local(d.chi, d.spinor1, d.spinor2),
]


def bad_vectors(unit):
    """unit with one entry NaN or infinite, or doubled, beside the value its refusal must name:
    the squared norm, nan, inf or 4.0."""
    def spoiled(index, bad):
        v = np.array(unit, dtype=complex)
        v[index] = bad
        return v, "nan" if cmath.isnan(bad) else "inf"

    return st.one_of(st.builds(spoiled, st.integers(0, len(unit) - 1), BAD_ENTRIES),
                     st.just((2.0 * unit, "4.0")))


BAD_DECOMPOSITIONS = st.one_of(
    bad_vectors(UNIT_SPINOR).map(lambda b: (qp.SpinorDecomposition(0.3, b[0], UNIT_SPINOR), b[1])),
    bad_vectors(UNIT_SPINOR).map(lambda b: (qp.SpinorDecomposition(0.3, UNIT_SPINOR, b[0]), b[1])),
    st.sampled_from([math.nan, math.inf, -0.1, 2.0]).map(
        lambda chi: (qp.SpinorDecomposition(chi, UNIT_SPINOR, UNIT_SPINOR), repr(chi))))


def assert_refused_naming(call, name):
    """call() raises a ValueError, not the package's own ConsistencyError, whose message names
    the offending value; never a result, NaN or not, and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except ValueError as exc:
            assert not isinstance(exc, qp.ConsistencyError), str(exc)
            assert name in str(exc), (name, str(exc))
            return
    raise AssertionError(f"accepted, returned {result!r}")


@SWEEP
@given(bad_vectors(UNIT_STATE))
def test_every_state_reader_refuses_a_bad_state(bad):
    psi, name = bad
    for call in STATE_CALLS:
        assert_refused_naming(lambda: call(psi), name)


@SWEEP
@given(bad_vectors(UNIT_SPINOR))
def test_every_spinor_reader_refuses_a_bad_spinor(bad):
    spinor, name = bad
    for call in SPINOR_CALLS:
        assert_refused_naming(lambda: call(spinor), name)


@SWEEP
@given(BAD_DECOMPOSITIONS)
def test_every_decomposition_reader_refuses_a_bad_decomposition(bad):
    d, name = bad
    for call in DECOMPOSITION_CALLS:
        assert_refused_naming(lambda: call(d), name)


@SWEEP
@given(BAD_SCALARS, st.integers(0, 2))
def test_non_finite_scalars_are_refused(bad, index):
    # a ledger entry, a step's duration, a Bloch vector's entry, a spinor's angle and the
    # compound-rotation time; the ledger is built inside each call, since it refuses a
    # non-finite phase itself
    phases = [bad if k == index else 0.0 for k in range(3)]
    d = qp.SpinorDecomposition(0.3, UNIT_SPINOR, UNIT_SPINOR)
    n = [bad if k == index else 0.0 for k in range(3)]
    angles = [bad if k == index else 0.5 for k in range(3)]
    for call in (lambda: qp.evolve_separable_schedule(d, qp.PhaseLedger(*phases), [], []),
                 lambda: qp.evolve_separable_schedule(d, qp.PhaseLedger(*phases),
                                                      [(H, 0.1)], [(H, 0.1)]),
                 lambda: qp.su2_operator(H, bad), lambda: qp.local_unitary(H, bad),
                 lambda: qp.spherical_angles(n), lambda: qp.spinor_from_angles(*angles),
                 lambda: qp.compound_rotation_check(UNIT_STATE, 1.0, 1.0, bad, True)):
        assert_refused_naming(call, repr(bad))
