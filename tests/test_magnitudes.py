"""Finite numbers of every magnitude, from subnormals up to 1e308, into each public entry point
that takes them: each result is finite, or the call refuses with a typed ValueError subclass whose
message names the input.  Never a bare "math domain error", a NaN, a numpy warning, or a
ConsistencyError, which is the package's own cross-check failing on valid input."""

import cmath
import dataclasses
import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qubitpair as qp

REALS = st.floats(min_value=-1e308, max_value=1e308)  # zero and subnormals included
ENERGIES = st.floats(min_value=5e-324, max_value=1e308)
VECTORS = st.tuples(REALS, REALS, REALS)
HAMILTONIANS = st.builds(qp.LocalHamiltonian, REALS, VECTORS)
STEPS = st.lists(st.tuples(REALS, VECTORS, REALS), min_size=1, max_size=3)  # (h_i, v, dt)
SCHEDULES = STEPS.map(lambda steps: qp.Schedule(*zip(*steps)))
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


def _numbers(obj):
    if isinstance(obj, np.ndarray):
        yield from obj.ravel().tolist()
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _numbers(item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _numbers(getattr(obj, field.name))
    else:
        yield obj


def assert_finite_or_refused(call, *refusals):
    """call() under warnings-as-errors gives only finite numbers, or raises one of refusals."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except refusals as exc:
            assert " = " in str(exc) or "state" in str(exc), str(exc)
            return
    numbers = list(_numbers(result))
    assert all(cmath.isfinite(x) for x in numbers), result


@SWEEP
@given(REALS, VECTORS, STEPS)
def test_hamiltonians_and_schedules(h_i, v, steps):
    assert_finite_or_refused(lambda: qp.LocalHamiltonian(h_i, v))
    assert_finite_or_refused(lambda: qp.Schedule(*zip(*steps)))


@SWEEP
@given(HAMILTONIANS, REALS)
def test_one_step_operators(h, t):
    for operator in (qp.su2_operator, qp.local_unitary):
        assert_finite_or_refused(lambda: operator(h, t), qp.StepOverflow)


@SWEEP
@given(STATES, HAMILTONIANS, HAMILTONIANS, REALS)
def test_one_step_evolution(psi, h1, h2, t):
    d, ledger = qp.decompose(psi), qp.PhaseLedger()
    assert_finite_or_refused(lambda: qp.evolve_full(psi, h1, h2, t), qp.StepOverflow)
    assert_finite_or_refused(lambda: qp.evolve_separable(d, ledger, h1, h2, t), qp.StepOverflow)


@SWEEP
@given(STATES, SCHEDULES, SCHEDULES)
def test_schedule_evolution(psi, s1, s2):
    d, ledger = qp.decompose(psi), qp.PhaseLedger()
    assert_finite_or_refused(lambda: qp.evolve_full_schedule(psi, s1, s2), qp.StepOverflow)
    assert_finite_or_refused(lambda: qp.evolve_separable_schedule(d, ledger, s1, s2),
                             qp.StepOverflow)
    assert_finite_or_refused(lambda: qp.evolve_separable_state(psi, s1, s2), qp.StepOverflow)


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
