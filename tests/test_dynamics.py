import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qubitpair as qp
from qubitpair.verify import band_angle_sets, random_schedule
from oracles import hamiltonian_matrix, numbers, oracle_matrix_exp, steps, unit_spinor

SQ2 = 1.0 / np.sqrt(2.0)
TREE_MIN = qp.dynamics.COMPOSE_TREE_MIN
ULP = np.finfo(float).eps  # the spacing of floats at 1
SINGLET = np.array([0.0, SQ2, -SQ2, 0.0], dtype=complex)


def eigenspinors(direction):
    """dynamics._eigenspinors as arrays: the half-angle spinor along a unit axis and its
    parity image."""
    plus, minus = qp.dynamics._eigenspinors(*np.asarray(direction, dtype=float).tolist())
    return np.array(plus), np.array(minus)


def entangled_state(seed):
    ang = band_angle_sets(1, seed)[0]
    return qp.state_from_angles(ang)


class TestSu2Operator:
    def test_zero_field_is_identity(self):
        assert np.array_equal(qp.su2_operator(qp.ZERO_HAMILTONIAN, 3.7), np.eye(2))

    def test_z_field_quarter_turn(self):
        h = qp.LocalHamiltonian(0.0, [0, 0, 2.0])
        u = qp.su2_operator(h, np.pi / 4)  # E*t = pi/2
        assert np.allclose(u, np.diag([np.exp(-0.5j * np.pi), np.exp(0.5j * np.pi)]), atol=1e-12)

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(500):
            h = qp.LocalHamiltonian(0.0, rng.normal(size=3))
            t = float(rng.uniform(-3, 3))
            worst = max(worst, np.max(np.abs(qp.su2_operator(h, t) - oracle_matrix_exp(h, t))))
        assert worst < 1e-10

    def test_unitary_and_special(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            u = qp.su2_operator(qp.LocalHamiltonian(0.0, rng.normal(size=3)),
                                float(rng.uniform(-2, 2)))
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
            assert abs(np.linalg.det(u) - 1) < 1e-12

    def test_huge_field_tiny_time_stays_unitary(self):
        # |v| * t is 1.41; computing |v| itself must not overflow
        u = qp.su2_operator(qp.LocalHamiltonian(0.0, [1e200, 1e200, 0.0]), 1e-200)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(u) - 1) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_hamiltonian_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            qp.LocalHamiltonian(bad, np.zeros(3))
        for k in range(3):
            v = np.zeros(3)
            v[k] = bad
            with pytest.raises(ValueError, match="finite"):
                qp.LocalHamiltonian(0.0, v)

    def test_hamiltonian_rejects_an_overflowing_field(self):
        # each entry is finite but |v| is not: su2_operator(h, 0.0) came out NaN
        with pytest.raises(ValueError, match="finite"):
            qp.LocalHamiltonian(0.0, [1.7e308, 1.7e308, 0.0])

    def test_overflowing_step_is_a_typed_refusal(self):
        # |v| * t and h_i * t past the float range used to end in a bare "math domain error"
        with pytest.raises(qp.StepOverflow, match=r"\|v\| \* t overflows: \|v\| = 1e\+300, "
                                                  r"t = 10000000000.0"):
            qp.su2_operator(qp.LocalHamiltonian(1e300, [1e300, 0, 0]), 1e10)
        with pytest.raises(qp.StepOverflow, match=r"h_i \* t overflows: h_i = 1e\+300"):
            qp.local_unitary(qp.LocalHamiltonian(1e300, [0, 0, 0]), 1e10)

    def test_scalar_part_is_excluded(self):
        h = qp.LocalHamiltonian(5.0, [0, 0, 1.0])
        hv = qp.LocalHamiltonian(0.0, [0, 0, 1.0])
        assert np.array_equal(qp.su2_operator(h, 0.3), qp.su2_operator(hv, 0.3))

    def test_oracle_values(self):
        h = qp.LocalHamiltonian(0.0, [0, 0, 1.0])
        u = oracle_matrix_exp(h, np.pi / 2)
        assert np.allclose(u, -1j * np.diag([1, -1]), atol=1e-10)  # -i sigma_z
        assert np.allclose(oracle_matrix_exp(h, np.pi), -np.eye(2), atol=1e-10)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_oracle_scalar_factor(self):
        h = qp.LocalHamiltonian(0.7, np.zeros(3))
        assert np.allclose(oracle_matrix_exp(h, 2.0, include_scalar=True),
                           np.exp(-1.4j) * np.eye(2), atol=1e-12)


class TestSpinorEvolution:
    def test_ledger_books_scalar_energy(self):
        h = qp.LocalHamiltonian(1.5, np.zeros(3))
        d, ledger = qp.evolve_separable_schedule(qp.decompose([1, 0, 0, 0]), qp.PhaseLedger(),
                                                 [(h, 2.0)], [])
        assert np.allclose(d.spinor1, [1, 0], atol=1e-12)
        assert ledger.beta1 == pytest.approx(3.0, abs=1e-12)
        assert ledger.beta2 == 0.0

    def test_norm_preserved(self):
        rng = np.random.default_rng(5)
        ledger = qp.PhaseLedger()
        for _ in range(200):
            s = unit_spinor(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            h = qp.LocalHamiltonian(float(rng.normal()), rng.normal(size=3))
            d = qp.SpinorDecomposition(0.0, np.array([1, 0], dtype=complex), s)
            d, ledger = qp.evolve_separable_schedule(d, ledger, [],
                                                     [(h, float(rng.uniform(0, 2)))])
            assert abs(np.vdot(d.spinor2, d.spinor2).real - 1) < 1e-12

    def test_singlet_quarter_turn_matches_full_backend(self):
        # rotate qubit 1 by pi about z: the full backend is the oracle for
        # the resulting global sign
        energy, t = 2.0, np.pi / 4
        h1 = qp.LocalHamiltonian(0.0, [0, 0, energy])
        expected = qp.evolve_full_schedule(SINGLET, [(h1, t)], [(qp.ZERO_HAMILTONIAN, t)])
        d = qp.decompose(SINGLET)
        d, ledger = qp.evolve_separable_schedule(d, qp.PhaseLedger(), [(h1, t)], [])
        got = ledger.phase * qp.reconstruct(d)
        assert np.max(np.abs(got - expected)) < 1e-12
        assert np.max(np.abs(expected - (-1j) * np.array([0, SQ2, SQ2, 0]))) < 1e-12


def kron_steps(psi, schedule1, schedule2):
    """The per-step reference: np.kron of the two local unitaries (the identity for a
    schedule that has run out) applied to the 4-vector; the state after every step."""
    steps1, steps2 = list(schedule1), list(schedule2)
    states = []
    for k in range(max(len(steps1), len(steps2))):
        u1, u2 = (qp.local_unitary(*s[k]) if k < len(s) else np.eye(2) for s in (steps1, steps2))
        psi = np.kron(u1, u2) @ psi
        states.append(psi)
    return states


class TestFullBackend:
    @pytest.mark.parametrize("lengths", [(0, 0), (1, 0), (0, 3), (7, 3), (3, 7)])
    def test_matches_per_step_kron_reference(self, lengths):
        rng = np.random.default_rng(40 + 10 * lengths[0] + lengths[1])
        lists = [steps(random_schedule(rng, n, True)) for n in lengths]
        psi = entangled_state(41)
        expected = kron_steps(psi, *lists)
        final = expected[-1] if expected else psi
        for schedules in (lists, [qp.as_schedule(s) for s in lists]):
            assert np.max(np.abs(qp.evolve_full_schedule(psi, *schedules) - final)) <= 1e-13
            report = qp.compare_backends(psi, *schedules)
            assert np.max(np.abs(report.final_state_full - final)) <= 1e-13
        for k, state in enumerate(expected, 1):
            prefixes = [s[:k] for s in lists]
            assert np.max(np.abs(qp.evolve_full_schedule(psi, *prefixes) - state)) <= 1e-13

    @pytest.mark.parametrize("lengths", [(0, 4), (5, 0), (6, 3), (2, 9)])
    def test_runs_qubit_one_then_qubit_two_bit_for_bit(self, lengths):
        # each schedule runs on its own: qubit 1's local_unitary steps as U M, then qubit 2's
        # as M U^T, on Python complexes
        rng = np.random.default_rng(45 + 10 * lengths[0] + lengths[1])
        schedules = [random_schedule(rng, n, True) for n in lengths]
        psi = entangled_state(46)
        m = psi.reshape(2, 2).tolist()
        for h, dt in steps(schedules[0]):
            u = qp.local_unitary(h, dt).tolist()
            m = [[u[i][0] * m[0][j] + u[i][1] * m[1][j] for j in (0, 1)] for i in (0, 1)]
        for h, dt in steps(schedules[1]):
            u = qp.local_unitary(h, dt).tolist()
            m = [[m[i][0] * u[j][0] + m[i][1] * u[j][1] for j in (0, 1)] for i in (0, 1)]
        assert qp.evolve_full_schedule(psi, *schedules).tolist() == [*m[0], *m[1]]

    def test_one_local_unitary_per_qubit_step(self, monkeypatch):
        calls = []
        unitary = qp.dynamics.local_unitary
        monkeypatch.setattr(qp.dynamics, "local_unitary",
                            lambda h, t: calls.append(t) or unitary(h, t))
        rng = np.random.default_rng(43)
        schedule1, schedule2 = (steps(random_schedule(rng, n, True)) for n in (3, 2))
        psi = entangled_state(44)
        qp.evolve_full_schedule(psi, schedule1, schedule2)
        assert sorted(calls) == sorted(dt for _, dt in schedule1 + schedule2)
        calls.clear()
        qp.evolve_separable_schedule(qp.decompose(psi), qp.PhaseLedger(), schedule1, schedule2)
        assert calls == []

    @pytest.mark.parametrize("psi", [[np.nan, 0, 0, 0], [np.inf, 0, 0, 0], [0, 2, 0, 0]])
    def test_refuses_states_the_separable_side_refuses(self, psi):
        h = qp.LocalHamiltonian(0.4, [0.1, -0.2, 0.3])
        for run in (lambda: qp.evolve_full_schedule(psi, [(h, 0.5)], []),
                    lambda: qp.evolve_full_schedule(psi, [(h, 0.5)], [(h, 0.5)]),
                    lambda: qp.compare_backends(psi, [(h, 0.5)], []),
                    lambda: qp.evolve_separable_state(psi, [(h, 0.5)], [])):
            with pytest.raises(ValueError, match="not normalized"):
                run()

    def test_zero_hamiltonians_do_nothing(self):
        psi = entangled_state(7)
        zero = [(qp.ZERO_HAMILTONIAN, 1.3)]
        assert np.allclose(qp.evolve_full_schedule(psi, zero, zero), psi, atol=1e-15)

    def test_pure_scalar_is_global_phase(self):
        psi = entangled_state(8)
        h1 = qp.LocalHamiltonian(0.8, np.zeros(3))
        out = qp.evolve_full_schedule(psi, [(h1, 2.0)], [(qp.ZERO_HAMILTONIAN, 2.0)])
        assert np.max(np.abs(out - np.exp(-1.6j) * psi)) < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(9)
        for psi in qp.sample_haar(200, 10):
            h1 = qp.LocalHamiltonian(float(rng.normal()), rng.normal(size=3))
            h2 = qp.LocalHamiltonian(float(rng.normal()), rng.normal(size=3))
            t = float(rng.uniform(0, 2))
            out = qp.evolve_full_schedule(psi, [(h1, t)], [(h2, t)])
            assert abs(np.vdot(out, out).real - 1) < 1e-12


class TestSeparableBackend:
    def test_zero_step_changes_nothing(self):
        d = qp.decompose(entangled_state(11))
        ledger = qp.PhaseLedger()
        zero = [(qp.ZERO_HAMILTONIAN, 0.7)]
        d2, ledger2 = qp.evolve_separable_schedule(d, ledger, zero, zero)
        assert np.array_equal(d2.spinor1, d.spinor1)
        assert np.array_equal(d2.spinor2, d.spinor2)
        assert ledger2 == ledger

    def test_matches_full_backend_single_step(self):
        rng = np.random.default_rng(13)
        for psi in qp.sample_haar(300, 14):
            h1 = qp.LocalHamiltonian(float(rng.normal()), rng.normal(size=3))
            h2 = qp.LocalHamiltonian(float(rng.normal()), rng.normal(size=3))
            steps1, steps2 = [(h1, 1.0)], [(h2, 1.0)]
            d, ledger = qp.evolve_separable_schedule(qp.decompose(psi), qp.PhaseLedger(),
                                                     steps1, steps2)
            got = ledger.phase * qp.reconstruct(d)
            expected = qp.evolve_full_schedule(psi, steps1, steps2)
            assert np.max(np.abs(got - expected)) < 1e-9

    def test_thousand_small_steps_stay_tight(self):
        rng = np.random.default_rng(15)
        psi = entangled_state(16)
        d, ledger = qp.decompose(psi), qp.PhaseLedger()
        full = psi
        for _ in range(1000):
            h1 = qp.LocalHamiltonian(float(rng.normal()), rng.normal(size=3))
            h2 = qp.LocalHamiltonian(float(rng.normal()), rng.normal(size=3))
            steps1, steps2 = [(h1, 0.01)], [(h2, 0.01)]
            full = qp.evolve_full_schedule(full, steps1, steps2)
            d, ledger = qp.evolve_separable_schedule(d, ledger, steps1, steps2)
        assert np.max(np.abs(ledger.phase * qp.reconstruct(d) - full)) < 1e-7

    def test_chi_never_changes(self):
        rng = np.random.default_rng(17)
        psi = entangled_state(18)
        c0 = qp.concurrence(psi)
        report = qp.compare_backends(psi, random_schedule(rng, 20, True),
                                     random_schedule(rng, 20, True))
        assert abs(qp.concurrence(report.final_state_full) - c0) < 1e-12
        assert abs(qp.concurrence(report.final_state_separable) - c0) < 1e-12

    def test_compare_backends_agree_on_traceless_schedules(self):
        rng = np.random.default_rng(19)
        report = qp.compare_backends(entangled_state(20), random_schedule(rng, 5, False),
                                     random_schedule(rng, 5, False))
        assert report.max_component_deviation < 1e-9

    def test_mismatched_schedule_lengths(self):
        rng = np.random.default_rng(21)
        psi = entangled_state(22)
        long, short = random_schedule(rng, 7, True), random_schedule(rng, 3, True)
        report = qp.compare_backends(psi, long, short)
        assert report.max_component_deviation < 1e-9
        # the longer schedule runs on alone, and every path agrees on the result
        full = qp.evolve_full_schedule(psi, long, short)
        assert np.max(np.abs(full - report.final_state_full)) < 1e-9
        d, ledger = qp.evolve_separable_schedule(qp.decompose(psi), qp.PhaseLedger(), long, short)
        separable = ledger.phase * qp.reconstruct(d)
        assert np.max(np.abs(separable - report.final_state_full)) < 1e-9
        # compare_backends is the two public runs side by side, bit for bit
        for schedules in ((long, short), (steps(long), steps(short))):
            report = qp.compare_backends(psi, *schedules)
            assert np.array_equal(report.final_state_full, qp.evolve_full_schedule(psi, *schedules))
            assert np.array_equal(report.final_state_separable,
                                  qp.evolve_separable_state(psi, *schedules)[2])


# chi at both exact edges, in the band above EPS_DEGEN where the phase fix turns by a noisy
# angle, just past it, near maximal entanglement, and inside
STATE_CHIS = [0.0, 1.2e-9, 1.5e-9, 1.9e-9, 2e-9, 0.7,
              qp.states.HALF_PI - 2e-9, qp.states.HALF_PI - qp.EPS_DEGEN, qp.states.HALF_PI]
# below EPS_DEGEN a state keeps its phase, and a decomposition has ad - bc >= 0
SEPARABLE_BAND_CHIS = [5e-10, math.nextafter(qp.EPS_DEGEN, 0.0)]


def assert_runs_from_state_to_state(rng, psi):
    report = qp.compare_backends(psi, random_schedule(rng, 10, True),
                                 random_schedule(rng, 10, True))
    assert qp.dynamics.backends_agree(report.max_component_deviation), \
        report.max_component_deviation
    assert np.max(np.abs(qp.evolve_separable_state(psi, [], [])[2] - psi)) < 1e-10


class TestSeparableState:
    """evolve_separable_state keeps the input's global phase: the ledger starts at the turn
    that brings the input to ad - bc >= 0, so the backends agree on every unit state."""

    @pytest.mark.parametrize("chi", STATE_CHIS)
    def test_turned_inputs_keep_their_phase(self, chi):
        rng = np.random.default_rng(31)
        for psi in qp.sample_fixed_concurrence(4, 32, chi):
            for alpha in (0.0, math.pi / 2, math.pi, -2.0):
                assert_runs_from_state_to_state(rng, cmath.exp(1j * alpha) * psi)

    def test_random_states_off_the_canonical_phase(self):
        rng = np.random.default_rng(33)
        z = rng.standard_normal((200, 8))
        states = z[:, 0::2] + 1j * z[:, 1::2]
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        turned = 0
        for psi in states:
            turned += qp.evolve_separable_state(psi, [], [])[1].beta1 != 0.0
            assert_runs_from_state_to_state(rng, psi)
        assert turned == len(states)

    @pytest.mark.parametrize("chi", STATE_CHIS)
    def test_canonical_input_starts_the_ledger_at_zero(self, chi):
        # left unturned, the run is bit for bit the decomposition's own from a zero ledger
        rng = np.random.default_rng(34)
        for psi in [*qp.sample_fixed_concurrence(4, 35, chi), *qp.sample_haar(4, 36)]:
            assert qp.evolve_separable_state(psi, [], [])[1].beta1 == 0.0
            s1, s2 = random_schedule(rng, 10, True), random_schedule(rng, 10, True)
            d, ledger, final = qp.evolve_separable_state(psi, s1, s2)
            d0, ledger0 = qp.evolve_separable_schedule(qp.decompose(psi), qp.PhaseLedger(), s1, s2)
            assert ledger == ledger0
            assert np.array_equal(d.spinor1, d0.spinor1) and np.array_equal(d.spinor2, d0.spinor2)
            assert np.array_equal(final, ledger0.phase * qp.reconstruct(d0))

    @pytest.mark.parametrize("chi", SEPARABLE_BAND_CHIS)
    def test_separable_band_decomposes_off_the_canonical_phase(self, chi):
        # the parity pair's phase is free below the band: the consistency check must not refuse
        # a unit state for it, and both backends still agree
        rng = np.random.default_rng(38)
        for psi in qp.sample_fixed_concurrence(200, 32, chi):
            qp.decompose(1j * psi)
        for psi in qp.sample_fixed_concurrence(4, 39, chi):
            report = qp.compare_backends(1j * psi, random_schedule(rng, 10, True),
                                         random_schedule(rng, 10, True))
            assert qp.dynamics.backends_agree(report.max_component_deviation)

    @pytest.mark.parametrize("chi", SEPARABLE_BAND_CHIS)
    def test_separable_band_round_trip_off_the_canonical_phase(self, chi):
        # below EPS_DEGEN decompose keeps the input's phase, but a decomposition always has
        # ad - bc >= 0: the run turns the input to that phase first and books the turn
        rng = np.random.default_rng(40)
        for psi in qp.sample_fixed_concurrence(4, 41, chi):
            assert_runs_from_state_to_state(rng, 1j * psi)

    @pytest.mark.parametrize("chi", [math.nextafter(qp.EPS_DEGEN, 0.0), qp.EPS_DEGEN,
                                     math.nextafter(qp.EPS_DEGEN, 1.0)])
    def test_band_edge_window_runs_from_state_to_state(self, chi):
        # within 16u of EPS_DEGEN, where the input's own phase form picks decompose's rule, the
        # run turns every input to ad - bc >= 0 first: turned or phase-fixed, the empty run
        # returns its input to rounding and both backends agree
        rng = np.random.default_rng(75)
        for k, x in enumerate(qp.sample_fixed_concurrence(300, 32, chi)):
            turned = cmath.exp(1j * rng.uniform(-np.pi, np.pi)) * x
            for y in (turned, qp.fix_global_phase(turned)):
                assert np.max(np.abs(qp.evolve_separable_state(y, [], [])[2] - y)) < 1e-15
                if k < 30:
                    report = qp.compare_backends(y, random_schedule(rng, 10, True),
                                                 random_schedule(rng, 10, True))
                    assert qp.dynamics.backends_agree(report.max_component_deviation)

    @pytest.mark.parametrize("chi", [2e-9, 0.3, math.pi / 4, qp.states.HALF_PI - 5e-10])
    def test_run_starts_from_the_phase_fixed_input(self, chi):
        # every input takes one start: the turn to ad - bc >= 0, then decompose of the turned
        # state; so the empty run is decompose(fix_global_phase(x)) bit for bit, and beta1 is
        # the angle that turns x into fix_global_phase(x)
        rng = np.random.default_rng(76)
        for x in qp.sample_fixed_concurrence(300, 32, chi):
            x = cmath.exp(1j * rng.uniform(-np.pi, np.pi)) * x
            fixed = qp.fix_global_phase(x)
            d, ledger, _ = qp.evolve_separable_state(x, [], [])
            d0 = qp.decompose(fixed)
            assert d.chi == d0.chi
            assert np.array_equal(d.spinor1, d0.spinor1) and np.array_equal(d.spinor2, d0.spinor2)
            assert np.array_equal([cmath.rect(1.0, ledger.beta1) * v for v in x.tolist()], fixed)

    def test_overflowing_schedule_is_a_typed_refusal(self):
        # an angle |v| * dt and a summed phase past the float range are refused where the
        # Schedule is built, naming the step, and a list step meets that refusal in either run;
        # a ledger that starts near the float limit is refused by the separable run's sum
        psi = entangled_state(42)
        with pytest.raises(qp.StepOverflow, match=r"at step 0: h = 0\.0, v = \[1e\+200, 0\.0, "
                                                   r"0\.0\], dt = 1e\+200"):
            qp.Schedule([0.0], [[1e200, 0.0, 0.0]], [1e200])
        with pytest.raises(qp.StepOverflow, match=r"at step 1: h = 1e\+308"):  # each phase finite
            qp.Schedule([1e308, 1e308], [[0.0, 0.0, 0.0]] * 2, [1.0, 1.0])
        angle = [(qp.LocalHamiltonian(0.0, [1e200, 0.0, 0.0]), 1e200)]
        for run in (qp.evolve_separable_state, qp.evolve_full_schedule):
            with pytest.raises(qp.StepOverflow, match=r"at step 0: .* dt = 1e\+200"):
                run(psi, angle, [])
        phase = [(qp.LocalHamiltonian(1e308, [0.0, 0.0, 0.0]), 1.0)]
        with pytest.raises(qp.StepOverflow, match="summed phase"):
            qp.evolve_separable_schedule(qp.decompose(psi), qp.PhaseLedger(1e308), phase, [])

    @pytest.mark.parametrize("ledger, schedule1, schedule2, message", [
        (qp.PhaseLedger(1e308), [(qp.LocalHamiltonian(h, [0.0, 0.0, 0.0]), 1.0)
                                 for h in (0.5, 1.7e308)], [],
         "qubit 1's summed phase h_i * dt overflows: largest |term| = 1.7e+308, at step 1"),
        (qp.PhaseLedger(0.0, 1.5e308), [], [(qp.LocalHamiltonian(1e308, [0.0, 0.0, 0.0]), 1.0)],
         "qubit 2's summed phase h_i * dt overflows: largest |term| = 1.5e+308, "
         "at the ledger's phases"),
    ], ids=["step", "ledger"])
    def test_summed_phase_refusal_names_its_largest_term(self, ledger, schedule1, schedule2,
                                                         message):
        # the refusal names the qubit whose sum overflows and where its largest term sits
        d = qp.decompose(entangled_state(42))
        with pytest.raises(qp.StepOverflow) as caught:
            qp.evolve_separable_schedule(d, ledger, schedule1, schedule2)
        assert str(caught.value) == message

    def test_long_run_of_one_hamiltonian_returns(self):
        # 20,000 equal steps: the composed SU(2)'s rounding grows with the step count and takes
        # a rotated spinor past the 1e-12 unit-norm rule, so the run must not read its own
        # spinors back through a public reader to build its amplitudes
        rng = np.random.default_rng(0)
        v, dt, steps = rng.normal(size=3), float(rng.uniform(0.01, 0.1)), 20_000
        schedule = qp.Schedule(np.zeros(steps), np.tile(v, (steps, 1)), np.full(steps, dt))
        psi = qp.sample_haar(1, 0)[0]
        d, _, final = qp.evolve_separable_state(psi, schedule, schedule)
        assert max(abs(np.vdot(s, s).real - 1.0) for s in (d.spinor1, d.spinor2)) > qp.EPS_NORM
        report = qp.compare_backends(psi, schedule, schedule)
        assert np.array_equal(report.final_state_separable, final)
        assert qp.dynamics.backends_agree(report.max_component_deviation)

    def test_ledger_carries_the_turn(self):
        # e^(i alpha) psi with psi canonical and |alpha| < pi/2 is turned back by -alpha
        psi = qp.sample_haar(1, 37)[0]
        for alpha in (0.7, -1.2, 1.5):
            turned = cmath.exp(1j * alpha) * psi
            d, ledger, final = qp.evolve_separable_state(turned, [], [])
            assert abs(ledger.beta1 + alpha) < 1e-12 and ledger.beta2 == 0.0
            assert np.max(np.abs(qp.reconstruct(d) - psi)) < 1e-12
            assert np.max(np.abs(final - turned)) < 1e-12


def stepwise(spinor, schedule):
    """The per-step reference: one su2_operator product per step, applied in order."""
    for h, dt in schedule:
        spinor = qp.su2_operator(h, dt) @ spinor
    return spinor


class TestComposedSchedules:
    @pytest.mark.parametrize("length", [0, 1, 10, 2000])
    def test_composition_matches_per_step_product(self, length):
        rng = np.random.default_rng(100 + length)
        schedules = [steps(random_schedule(rng, length, True)) for _ in range(2)]
        if length:
            schedules[0][length // 2] = (qp.ZERO_HAMILTONIAN, 0.4)
            schedules[1][-1] = (qp.LocalHamiltonian(0.0, [1e200, 1e200, 0.0]), 1e-200)
        d = qp.decompose(entangled_state(length))
        got, ledger = qp.evolve_separable_schedule(d, qp.PhaseLedger(), *schedules)
        assert got.chi == d.chi
        assert np.max(np.abs(got.spinor1 - stepwise(d.spinor1, schedules[0]))) < 1e-13
        assert np.max(np.abs(got.spinor2 - stepwise(d.spinor2, schedules[1]))) < 1e-13
        # each beta is the exact sum of the steps' h_i * dt, rounded once; the remainder is
        # what the two roundings leave
        terms = [[h.h_i * dt for h, dt in schedule] for schedule in schedules]
        betas = tuple(map(math.fsum, terms))
        assert (ledger.beta1, ledger.beta2) == betas
        assert ledger.remainder == sum(math.fsum([*t, -beta]) for t, beta in zip(terms, betas))

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e8])
    def test_large_scalar_energies_keep_the_backends_together(self, scale):
        # the ledger sums each qubit's h_i * dt exactly; summed step by step, these 2 x 2,000
        # steps drifted 2.4e-11, 3.6e-7 and 1.5e-5 from the full backend
        rng = np.random.default_rng(33)
        schedules = [random_schedule(rng, 2000, True) for _ in range(2)]
        schedules = [qp.Schedule(scale * (1.0 + 0.01 * rng.normal(size=2000)), s.v, s.dt)
                     for s in schedules]
        report = qp.compare_backends(entangled_state(34), *schedules)
        assert report.max_component_deviation <= 1e-12

    def test_list_and_schedule_inputs_agree_bit_for_bit(self):
        rng = np.random.default_rng(23)
        lists = [steps(random_schedule(rng, 50, True)), steps(random_schedule(rng, 7, True))]
        stacked = [qp.as_schedule(s) for s in lists]
        assert [len(s) for s in stacked] == [50, 7]
        assert qp.as_schedule(stacked[0]) is stacked[0]
        d = qp.decompose(entangled_state(24))
        start = qp.PhaseLedger(0.25, -1.5)
        d_list, ledger_list = qp.evolve_separable_schedule(d, start, *lists)
        d_arr, ledger_arr = qp.evolve_separable_schedule(d, start, *stacked)
        assert np.array_equal(d_list.spinor1, d_arr.spinor1)
        assert np.array_equal(d_list.spinor2, d_arr.spinor2)
        assert ledger_list == ledger_arr
        # the full backend runs a Schedule step by step, as it runs the list
        psi = entangled_state(25)
        assert np.array_equal(qp.evolve_full_schedule(psi, *lists),
                              qp.evolve_full_schedule(psi, *stacked))

    def test_long_schedule_composes_without_a_collection(self, collections_during):
        # one v list per step kept 2,000 containers alive at once and set off gen-0
        # collections; the step loop's flat read must leave its arithmetic unchanged, bit for
        # bit, and the tree, which multiplies in another order, stays within 1e-13 of it
        rng = np.random.default_rng(27)
        schedules = [qp.as_schedule(random_schedule(rng, 2000, True)) for _ in range(2)]
        d = qp.decompose(entangled_state(28))
        start = qp.PhaseLedger(0.25, -1.5)
        out = []
        assert collections_during(
            lambda: out.extend(qp.evolve_separable_schedule(d, start, *schedules))) == []

        def per_row(spinor, schedule):  # the composition as one list per step reads it
            big_a, big_b = 1 + 0j, 0j
            for (x, y, z), t in zip(schedule.v.tolist(), schedule.dt.tolist()):
                a, b = qp.dynamics._cayley_klein(x, y, z, t)
                big_a, big_b = a * big_a - b * big_b.conjugate(), a * big_b + b * big_a.conjugate()
            u, l = spinor.tolist()
            return [big_a * u + big_b * l, big_a.conjugate() * l - big_b.conjugate() * u]

        def beta(schedule, start):  # the exact sum, rounded once
            return math.fsum([start, *(h * t for h, t in zip(schedule.h.tolist(),
                                                             schedule.dt.tolist()))])

        got, ledger = out
        assert np.max(np.abs(got.spinor1 - per_row(d.spinor1, schedules[0]))) < 1e-13
        assert np.max(np.abs(got.spinor2 - per_row(d.spinor2, schedules[1]))) < 1e-13
        assert (ledger.beta1, ledger.beta2) == (beta(schedules[0], start.beta1),
                                                beta(schedules[1], start.beta2))
        short = [qp.Schedule(s.h[:TREE_MIN - 1], s.v[:TREE_MIN - 1], s.dt[:TREE_MIN - 1])
                 for s in schedules]
        looped, _ = qp.evolve_separable_schedule(d, start, *short)
        assert looped.spinor1.tolist() == per_row(d.spinor1, short[0])
        assert looped.spinor2.tolist() == per_row(d.spinor2, short[1])

    @pytest.mark.parametrize("length", [TREE_MIN - 1, TREE_MIN, TREE_MIN + 1, 2000, 100_000])
    def test_tree_and_loop_agree(self, monkeypatch, length):
        # the pairwise tree against the step loop on the same schedule, each path forced; a
        # zero field, a huge field for a tiny time and a subnormal field ride along; the
        # distances were 7.3e-16, 5.7e-16, 4.7e-16, 3.4e-15 and 2.8e-14
        rng = np.random.default_rng(300 + length)
        v = rng.normal(size=(length, 3))
        v[[length // 3, length // 2, -1]] = [0.0, 0.0, 0.0], [1e200, 1e200, 0.0], [5e-324] * 3
        dt = rng.uniform(0.01, 0.3, length)
        dt[length // 2] = 1e-200
        schedule = qp.Schedule(rng.normal(size=length), v, dt)
        spinor = unit_spinor(rng.normal(size=2) + 1j * rng.normal(size=2)).tolist()
        rotated = {}
        for path, threshold in (("tree", 1), ("loop", length + 1), ("default", TREE_MIN)):
            monkeypatch.setattr(qp.dynamics, "COMPOSE_TREE_MIN", threshold)
            rotated[path] = qp.dynamics._rotated(spinor, schedule)
        assert np.max(np.abs(rotated["tree"] - rotated["loop"])) < 1e-13
        taken = "tree" if length >= TREE_MIN else "loop"
        assert np.array_equal(rotated["default"], rotated[taken])

    @pytest.mark.parametrize("length", [10, TREE_MIN + 10])
    def test_overflow_is_refused_alike_on_both_paths(self, monkeypatch, length):
        # a list schedule whose |v| * t overflows at step 7 first, at step 9 again: as_schedule
        # refuses it before either path runs, naming step 7's values, and numpy warns of nothing
        h = qp.LocalHamiltonian(0.3, [0.1, -0.2, 0.5])
        steps_ = [(h, 0.1)] * length
        steps_[7] = (qp.LocalHamiltonian(0.0, [1e200, 0.0, 0.0]), 1e200)
        steps_[9] = (qp.LocalHamiltonian(0.0, [0.0, 3e300, 0.0]), 1e100)
        psi = entangled_state(46)
        messages = set()
        for threshold in (1, length + 1):
            monkeypatch.setattr(qp.dynamics, "COMPOSE_TREE_MIN", threshold)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(qp.StepOverflow) as refusal:
                    qp.evolve_separable_state(psi, steps_, [])
            messages.add(str(refusal.value))
        assert messages == {"the schedule's phases and rotation angles overflow at step 7: "
                            "h = 0.0, v = [1e+200, 0.0, 0.0], dt = 1e+200"}

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 5000), st.integers(0, 5000), st.integers(0, 2 ** 32 - 1))
    @example(TREE_MIN - 1, TREE_MIN, 0)
    @example(TREE_MIN, 5000, 1)
    @example(0, TREE_MIN + 1, 2)
    def test_backends_agree_across_the_tree_threshold(self, length1, length2, seed):
        rng = np.random.default_rng(seed)
        schedules = [qp.Schedule(rng.normal(size=n), rng.normal(size=(n, 3)),
                                 rng.uniform(0.01, 0.3, n)) for n in (length1, length2)]
        report = qp.compare_backends(qp.sample_haar(1, seed)[0], *schedules)
        assert qp.dynamics.backends_agree(report.max_component_deviation)

    def test_column_form_is_the_closed_form(self):
        # the tree's steps against _cayley_klein: the column |v| is two nested np.hypot calls
        # where math.hypot takes three arguments, an ulp apart at most, which moves |v|t by an
        # ulp of |v||t|; each real part is within 4 ulps of max(1, |v||t|), 1.6 here at worst
        rng = np.random.default_rng(31)
        v = np.concatenate([rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-3, 3, (20000, 1)),
                            np.zeros((100, 3)),
                            rng.integers(-50, 50, (100, 3)) * 5e-324,
                            rng.normal(size=(100, 3)) * 1e-310])
        t = rng.uniform(-5, 5, len(v))
        a, b = qp.dynamics._cayley_klein_columns(v, t)
        expected = np.array([qp.dynamics._cayley_klein(*row, dt)
                             for row, dt in zip(v.tolist(), t.tolist())])
        got = np.stack([a, b], axis=1)
        scale = np.maximum(1.0, np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2]) * np.abs(t))
        for part in (np.real, np.imag):
            assert np.all(np.abs(part(got) - part(expected)) <= 4 * ULP * scale[:, None])
        assert np.array_equal(got[20000:20100], expected[20000:20100])  # zero field: exact

    def test_schedule_arrays_are_read_only_copies(self):
        h = np.array([0.5, -0.2])
        v = np.array([[0.0, 0.3, 1.0], [0.1, 0.0, -0.4]])
        dt = np.array([0.25, 0.5])
        s = qp.Schedule(h, v, dt)
        for column in (s.h, s.v, s.dt):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        # the caller's own arrays stay writable, and the schedule keeps its checked copy
        h[0] = math.nan
        assert s.h[0] == 0.5

    def test_schedule_checks_its_arrays(self):
        s = qp.Schedule([0.5], [[0.0, 0.0, 1.0]], [0.25])
        assert len(s) == 1 and s.v.shape == (1, 3) and s.dt.dtype == float
        for h, v, dt in (([0.5, 0.1], [[0.0, 0.0, 1.0]], [0.25, 0.25]),
                         ([0.5], [0.0, 0.0, 1.0], [0.25]),
                         ([0.5], [[0.0, 0.0, 1.0]], [0.25, 0.25]),
                         ([[0.5]], [[0.0, 0.0, 1.0]], [[0.25]])):
            with pytest.raises(ValueError, match="a schedule needs"):
                qp.Schedule(h, v, dt)

    @pytest.mark.parametrize("h, v, dt", [([math.nan], [[0.0, 0.0, 1.0]], [1.0]),
                                          ([0.5], [[0.0, math.inf, 1.0]], [1.0]),
                                          ([0.5], [[0.0, 0.0, 1.0]], [-math.inf]),
                                          # finite entries, |v| not: a dt of 0 evolved to NaN
                                          ([0.5], [[1.7e308, 1.7e308, 0.0]], [0.0])])
    def test_schedule_refuses_non_finite_entries(self, h, v, dt):
        # a LocalHamiltonian refuses these too, so no backend ever sees them
        with pytest.raises(ValueError, match="must be finite"):
            qp.Schedule(h, v, dt)

    @pytest.mark.parametrize("h, v, dt, named", [
        ([0.5, 0.5, 0.5], [[0.0, 0.0, 1.0]] * 3, [0.25, math.nan, math.inf],
         "step 1 has h = 0.5, v = [0.0, 0.0, 1.0], dt = nan"),
        ([0.5, -math.inf, math.nan], [[0.0, 0.0, 1.0]] * 3, [0.25] * 3,
         "step 1 has h = -inf, v = [0.0, 0.0, 1.0], dt = 0.25"),
        ([0.5, 0.5], [[0.0, 0.0, 1.0], [1.7e308, 1.7e308, 0.0]], [0.25, 0.0],
         "step 1 has h = 0.5, v = [1.7e+308, 1.7e+308, 0.0], dt = 0.0"),
        ([0.5], [[0.0, 0.0, 1.0]], [-math.inf],
         "step 0 has h = 0.5, v = [0.0, 0.0, 1.0], dt = -inf")])
    def test_schedule_refusal_names_the_first_bad_step(self, h, v, dt, named):
        with pytest.raises(ValueError, match="must be finite") as refusal:
            qp.Schedule(h, v, dt)
        assert named in str(refusal.value)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_list_step_with_non_finite_dt_is_refused(self, dt):
        # each backend reads a list through as_schedule, so Schedule's finiteness rule refuses
        # the step, where a NaN dt would run through the full backend into NaN amplitudes
        psi = entangled_state(45)
        h = qp.LocalHamiltonian(0.3, [0.1, -0.2, 0.5])
        good, bad = [(h, 0.1)] * 3, [(h, 0.1), (h, 0.2), (h, dt)]
        for schedules in ((bad, good), (good, bad)):
            for run in (qp.evolve_full_schedule, qp.evolve_separable_state, qp.compare_backends):
                with pytest.raises(ValueError, match=f"step 2 has .* dt = {dt!r}"):
                    run(psi, *schedules)
        with pytest.raises(ValueError, match=f"step 0 has .* dt = {dt!r}"):
            qp.evolve_full_schedule(psi, [(h, dt)], [(h, dt)])

    def test_su2_operator_is_the_closed_form(self):
        rng = np.random.default_rng(27)
        cases = [(rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3), float(rng.uniform(-5, 5)))
                 for _ in range(2000)]
        for v, t in cases + [(np.zeros(3), 1.3)]:
            x, y, z = v.tolist()
            speed = math.hypot(x, y, z)
            if speed == 0.0:
                expected = np.eye(2)
            else:
                c, s = math.cos(speed * t), math.sin(speed * t) / speed
                expected = np.array([[complex(c, -s * z), complex(-s * y, -s * x)],
                                     [complex(s * y, -s * x), complex(c, s * z)]])
            assert np.array_equal(qp.su2_operator(qp.LocalHamiltonian(0.0, v), t), expected)


MODERATE = qp.LocalHamiltonian(0.3, [0.1, -0.2, 0.5])
HUGE_FOR_TINY = (qp.LocalHamiltonian(1e300, [1e300, 0.0, 0.0]), 1e-300)


def steps_with(length, replaced, dt=0.1):
    """length steps of MODERATE for time dt, with the steps {k: (h, dt_k)} put in."""
    return [replaced.get(k, (MODERATE, dt)) for k in range(length)]


EDGE_SCHEDULES = {  # name: (steps, the step every refusal names, or None where every run returns)
    "summed phase": ([(qp.LocalHamiltonian(1e308, [0.0, 0.0, 0.0]), 1.0)] * 2, 1),
    "phase and angle, one step": ([(qp.LocalHamiltonian(1e308, [1e308, 0.0, 0.0]), 1.0)], 0),
    "angle, one step": ([(qp.LocalHamiltonian(0.0, [1e200, 0.0, 0.0]), 1e200)], 0),
    **{f"angle at 7 and 9, {n} steps": (
        steps_with(n, {7: (qp.LocalHamiltonian(0.0, [1e200, 0.0, 0.0]), 1e200),
                       9: (qp.LocalHamiltonian(0.0, [0.0, 3e300, 0.0]), 1e100)}), 7)
       for n in (10, TREE_MIN + 10)},
    "span of finite steps": (  # each step adds 1e308 to the span, each phase and angle finite
        steps_with(6, {2: (qp.LocalHamiltonian(0.0, [1e300, 0.0, 0.0]), 1e8),
                       4: (qp.LocalHamiltonian(1e300, [0.0, 0.0, 0.0]), 1e8)}), 4),
    "huge field for tiny time, one step": ([HUGE_FOR_TINY], None),
    "huge field for tiny time, 74 steps": (
        steps_with(TREE_MIN + 10, {k: HUGE_FOR_TINY for k in range(0, TREE_MIN + 10, 5)}), None),
    "empty": ([], None),
    "negative duration, one step": ([(MODERATE, -0.25)], None),
    **{f"negative durations, {n} steps": (steps_with(n, {}, -0.1), None)
       for n in (10, TREE_MIN + 10)},
}


def outcome(call):
    """("refused", k) where call() raises StepOverflow naming step k, ("finite", None) where it
    returns only finite numbers; a numpy warning fails the call."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = call()
        except qp.StepOverflow as exc:
            named = re.search(r"at step (\d+): ", str(exc))
            return "refused", named and int(named[1])
    return ("finite" if all(map(cmath.isfinite, numbers(result))) else "not finite"), None


class TestOneMagnitudeRule:
    @pytest.mark.parametrize("name", list(EDGE_SCHEDULES))
    def test_backends_refuse_the_same_schedules(self, name):
        # each schedule, as a list and as a Schedule, on either qubit, through both backends and
        # their comparison; a one-step schedule also through both schedule runs from the
        # decomposition and the full state, the other qubit under ZERO_HAMILTONIAN for the same
        # time: every call refuses naming the same step, or every call returns finite numbers
        steps_, expected = EDGE_SCHEDULES[name]
        psi = entangled_state(47)
        d = qp.decompose(psi)
        outcomes = {}
        for form in ("list", "Schedule"):
            for qubit in (1, 2):
                pair = [steps_, []] if qubit == 1 else [[], steps_]
                for run in (qp.evolve_full_schedule, qp.evolve_separable_state,
                            qp.compare_backends):
                    outcomes[form, qubit, run.__name__] = outcome(lambda: run(
                        psi, *(map(qp.as_schedule, pair) if form == "Schedule" else pair)))
        if len(steps_) == 1:
            (h, t), = steps_
            zero = (qp.ZERO_HAMILTONIAN, t)
            for qubit, pair in ((1, ([(h, t)], [zero])), (2, ([zero], [(h, t)]))):
                outcomes["step", qubit, "evolve_full_schedule"] = outcome(
                    lambda: qp.evolve_full_schedule(psi, *pair))
                outcomes["step", qubit, "evolve_separable_schedule"] = outcome(
                    lambda: qp.evolve_separable_schedule(d, qp.PhaseLedger(), *pair))
        assert set(outcomes.values()) == {("finite", None) if expected is None
                                          else ("refused", expected)}, outcomes


class TestPhaseStructure:
    def test_rotation_commutes_with_parity(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            h = qp.LocalHamiltonian(0.0, rng.normal(size=3))
            u = qp.su2_operator(h, float(rng.uniform(-2, 2)))
            s = unit_spinor(rng.standard_normal(2) + 1j * rng.standard_normal(2))
            assert np.max(np.abs(u @ qp.parity(s) - qp.parity(u @ s))) < 1e-12

    def test_traceless_evolution_keeps_det_real(self):
        rng = np.random.default_rng(25)
        for psi in qp.sample_haar(100, 26):
            out = qp.evolve_full_schedule(psi, random_schedule(rng, 8, False),
                                          random_schedule(rng, 8, False))
            det = out[0] * out[3] - out[1] * out[2]
            assert abs(det.imag) < 1e-12

    def test_scalar_part_rotates_det(self):
        psi = entangled_state(27)
        out = qp.evolve_full_schedule(psi, [(qp.LocalHamiltonian(0.3, np.zeros(3)), 1.0)],
                                      [(qp.ZERO_HAMILTONIAN, 1.0)])
        det = out[0] * out[3] - out[1] * out[2]
        assert abs(det.imag) > 1e-3  # the canonical phase condition breaks


class TestAlignedHamiltonian:
    def test_z_axis(self):
        h = qp.aligned_hamiltonian([0, 0, 1], 1.0)
        assert h.h_i == 0.0
        assert np.allclose(h.v, [0, 0, 1])
        plus, minus = eigenspinors([0, 0, 1])
        assert np.allclose(plus, [1, 0], atol=1e-12)
        assert np.allclose(np.abs(minus), [0, 1], atol=1e-12)

    def test_x_axis_eigenvectors(self):
        h = qp.aligned_hamiltonian([1, 0, 0], 2.0)
        plus, minus = eigenspinors([1, 0, 0])
        m = hamiltonian_matrix(h)
        assert np.linalg.norm(m @ plus - 2.0 * plus) < 1e-10
        assert np.linalg.norm(m @ minus + 2.0 * minus) < 1e-10
        assert np.max(np.abs(np.abs(plus) - SQ2)) < 1e-12

    def test_random_directions_eigencheck(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            e = float(rng.uniform(0.1, 3.0))
            h = qp.aligned_hamiltonian(d, e)
            plus, minus = eigenspinors(d)
            assert np.linalg.norm(hamiltonian_matrix(h) @ plus - e * plus) < 1e-10
            assert np.linalg.norm(hamiltonian_matrix(h) @ minus + e * minus) < 1e-10
            # the minus spinor is the parity image of the plus spinor
            assert np.max(np.abs(minus - qp.parity(plus))) < 1e-12

    def test_v_is_energy_times_direction(self):
        # aligned_hamiltonian is a view of the float core: its v is e * d bit for bit
        rng = np.random.default_rng(31)
        for _ in range(300):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            e = float(rng.uniform(0.1, 3.0))
            h = qp.aligned_hamiltonian(d, e)
            assert h.h_i == 0.0 and np.array_equal(h.v, e * d)

    def test_rejects_non_unit_direction(self):
        with pytest.raises(qp.NonUnitDirection):
            qp.aligned_hamiltonian([0, 0, 2], 1.0)
        with pytest.raises(ValueError):
            qp.aligned_hamiltonian([0, 0, 1], 0.0)

    @pytest.mark.parametrize("energy", [1.0, 1e6, 1e308])
    def test_eigenpair_check_refuses_swapped_eigenspinors(self, monkeypatch, energy):
        real = qp.dynamics._eigenspinors
        monkeypatch.setattr(qp.dynamics, "_eigenspinors", lambda *axis: real(*axis)[::-1])
        with pytest.raises(qp.ConsistencyError, match="not eigenvectors"):
            qp.aligned_hamiltonian([0.36, 0.48, 0.8], energy)

    @pytest.mark.parametrize("energy", [1e6, 1e308])
    def test_eigenpair_check_refuses_a_nearby_spinor(self, monkeypatch, energy):
        # a plus spinor off by 1e-9 leaves a residual of 1e-9 * energy, past 1e-10 * energy
        real = qp.dynamics._eigenspinors

        def nearby(*axis):
            (u, l), minus = real(*axis)
            u += 1e-9j * abs(u)
            norm = math.hypot(abs(u), abs(l))
            return (u / norm, l / norm), minus

        monkeypatch.setattr(qp.dynamics, "_eigenspinors", nearby)
        with pytest.raises(qp.ConsistencyError, match="not eigenvectors"):
            qp.aligned_hamiltonian([0.36, 0.48, 0.8], energy)
        monkeypatch.undo()
        qp.aligned_hamiltonian([0.36, 0.48, 0.8], energy)


def ref_drift_gammas(psi, qubit, energy, t_grid):
    """recurrence_drift's unwrapped gammas in the two-qubit form: one evolve_full_schedule step
    of both qubits, the other one under ZERO_HAMILTONIAN, at numpy-scalar grid times."""
    n = qp.state_bloch_vector(psi, qubit)
    h = qp.aligned_hamiltonian(n / np.linalg.norm(n), energy)
    h1, h2 = (h, qp.ZERO_HAMILTONIAN) if qubit == 1 else (qp.ZERO_HAMILTONIAN, h)
    gammas = np.array([
        qp.angles_from_state(qp.evolve_full_schedule(psi, [(h1, t)], [(h2, t)])).gamma
        for t in np.asarray(t_grid, dtype=float)])
    for k in range(1, len(gammas)):
        gammas[k] += 2.0 * np.pi * round((gammas[k - 1] - gammas[k]) / (2.0 * np.pi))
    return gammas


def ref_recurrence_drift(psi, qubit, energy, t_grid):
    """recurrence_drift's (slope, residual) from ref_drift_gammas, by the package's closed-form
    line fit (test_fit_matches_polyfit checks that fit against np.polyfit)."""
    gammas = ref_drift_gammas(psi, qubit, energy, t_grid)
    return qp.dynamics._line_fit(np.asarray(t_grid, dtype=float).tolist(), gammas.tolist())


def ref_compound_rotation(psi, energy1, energy2, t, same_handed):
    """compound_rotation_check through one step of the public evolve_full_schedule."""
    n1, n2 = (qp.state_bloch_vector(psi, q) for q in (1, 2))
    h1 = qp.aligned_hamiltonian(n1 / np.linalg.norm(n1), energy1)
    axis2 = n2 / np.linalg.norm(n2)
    h2 = qp.aligned_hamiltonian(axis2 if same_handed else -axis2, energy2)
    end = qp.angles_from_state(qp.evolve_full_schedule(psi, [(h1, t)], [(h2, t)])).gamma
    return qp.wrap_angle(end - qp.angles_from_state(psi).gamma)


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


class TestRecurrenceDrift:
    def test_matches_two_qubit_reference_bit_for_bit(self, monkeypatch):
        cores = count_calls(monkeypatch, qp.dynamics, "_angles")
        closed_forms = count_calls(monkeypatch, qp.dynamics, "_cayley_klein")
        views = count_calls(monkeypatch, qp.states, "angles_from_state")
        unitaries = count_calls(monkeypatch, qp.dynamics, "local_unitary")
        schedules = count_calls(monkeypatch, qp.dynamics, "evolve_full_schedule")
        rng = np.random.default_rng(61)
        grids = [np.linspace(0.0, 1.0, 50), [0.0, 0.05, 0.3, 0.31, 0.9, 1.7, 2.0]]
        for k, ang in enumerate(band_angle_sets(40, 61)):
            psi = qp.state_from_angles(ang)
            energy = float(rng.uniform(0.3, 2.0))
            grid = grids[k % 2]
            for qubit in (1, 2):
                expected = ref_recurrence_drift(psi, qubit, energy, grid)
                # the reference calls evolve_full_schedule
                del cores[:], closed_forms[:], views[:], unitaries[:], schedules[:]
                got = qp.recurrence_drift(psi, qubit, energy, grid)
                assert got == expected and all(type(x) is float for x in got)
                # one closed-form SU(2) per grid point, at most one extra angle core for the
                # gate, and no public wrapper
                assert len(closed_forms) == len(grid) <= len(cores) <= len(grid) + 1
                assert not views and not unitaries and not schedules
            expected = ref_compound_rotation(psi, energy, 0.7, 0.3, k % 3 == 0)
            del cores[:], closed_forms[:], unitaries[:], schedules[:]
            assert qp.compound_rotation_check(psi, energy, 0.7, 0.3, k % 3 == 0) == expected
            # one closed-form SU(2) per qubit, the gate's angle core and the end state's
            assert len(closed_forms) == len(cores) == 2 and not unitaries and not schedules

    def test_fit_matches_polyfit(self):
        # the closed-form line agrees with numpy's least-squares fit on the same gammas
        rng = np.random.default_rng(67)
        grids = [np.linspace(0.0, 1.0, 50), np.array([0.0, 0.05, 0.3, 0.31, 0.9, 1.7, 2.0]),
                 np.linspace(-3.0, 7.0, 11)]
        for k, ang in enumerate(band_angle_sets(30, 67)):
            psi, grid = qp.state_from_angles(ang), grids[k % 3]
            qubit, energy = 1 + k % 2, float(rng.uniform(0.3, 2.0))
            gammas = ref_drift_gammas(psi, qubit, energy, grid)
            slope, intercept = np.polyfit(grid, gammas, 1)
            residual = np.max(np.abs(gammas - (slope * grid + intercept)))
            got_slope, got_residual = qp.recurrence_drift(psi, qubit, energy, grid)
            assert abs(got_slope - slope) <= 1e-12 and abs(got_residual - residual) <= 1e-12
        for _ in range(200):  # lines with noise well off the drift's, on unordered grids
            grid = rng.uniform(-5.0, 5.0, size=int(rng.integers(2, 60)))
            values = rng.normal() * grid + rng.normal() + rng.normal(scale=0.1, size=grid.size)
            slope, intercept = np.polyfit(grid, values, 1)
            residual = np.max(np.abs(values - (slope * grid + intercept)))
            got_slope, got_residual = qp.dynamics._line_fit(grid.tolist(), values.tolist())
            assert abs(got_slope - slope) <= 1e-12 and abs(got_residual - residual) <= 1e-12

    @pytest.mark.parametrize("grid", [[0.0, 5e-324], [-1e300, 1e300]], ids=["subnormal", "huge"])
    def test_extreme_grids_give_a_finite_line(self, grid):
        # the fit centres and scales the times, so neither a subnormal span nor a huge one ends
        # in a warning, ZeroDivisionError, inf or NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = qp.recurrence_drift(entangled_state(200), 1, 1.0, grid)
            except ValueError:
                return
        assert len(got) == 2 and all(math.isfinite(x) for x in got)

    def test_subnormal_span_with_an_overflowing_slope_is_refused(self, monkeypatch):
        # a slope of one ulp of gamma over a 5e-324 span is past the largest double
        monkeypatch.setattr(qp.dynamics, "_unwrap_nearest", lambda gammas: [0.0, 1e-15])
        with pytest.raises(ValueError, match="finite slope"):
            qp.recurrence_drift(entangled_state(200), 1, 1.0, [0.0, 5e-324])

    def test_linear_drift_slope_and_residual(self):
        grid = np.linspace(0.0, 1.0, 50)
        for seed in range(20):
            psi = entangled_state(100 + seed)
            energy = 0.5 + 0.1 * seed
            slope, residual = qp.recurrence_drift(psi, 1 + seed % 2, energy, grid)
            assert residual < 1e-8
            assert abs(abs(slope) - 2 * energy) < 1e-6

    def test_large_energy_drifts_at_minus_two_e(self):
        # the eigenpair check scales with the energy: at 1e6 its rounding used to fail an
        # absolute 1e-10 and raise ConsistencyError
        slope, _ = qp.recurrence_drift(entangled_state(200), 1, 1e6, np.linspace(0, 1e-6, 5))
        assert slope == pytest.approx(-2e6, rel=1e-9)

    def test_drift_sign_convention(self):
        # rotating about the qubit's own axis with positive energy lowers
        # gamma in these conventions
        slope, _ = qp.recurrence_drift(entangled_state(200), 1, 1.0, np.linspace(0, 1, 50))
        assert slope == pytest.approx(-2.0, abs=1e-6)

    def test_degenerate_states_rejected(self):
        with pytest.raises(qp.DegenerateState):
            qp.recurrence_drift([1, 0, 0, 0], 1, 1.0, np.linspace(0, 1, 10))
        with pytest.raises(qp.DegenerateState):
            qp.recurrence_drift(SINGLET, 1, 1.0, np.linspace(0, 1, 10))

    @pytest.mark.parametrize("grid", [[], [0.0], [0.5, 0.5], [0.0, math.inf], [0.0, math.nan]],
                             ids=["empty", "one-time", "one-distinct-time", "infinite", "nan"])
    def test_grid_without_two_distinct_finite_times_rejected(self, grid, capfd):
        # numpy's TypeError, a LAPACK message on stderr, a rank-deficient slope and a math
        # domain error used to come out of these; now one ValueError comes before any fitting
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="two distinct finite times"):
                qp.recurrence_drift(entangled_state(200), 1, 1.0, grid)
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("chi", [
        qp.EPS_DEGEN, math.nextafter(qp.EPS_DEGEN, 0.0),
        qp.states.HALF_PI - qp.EPS_DEGEN, math.nextafter(qp.states.HALF_PI - qp.EPS_DEGEN, math.inf)],
        ids=["separable-edge", "below-separable-edge", "maximal-edge", "above-maximal-edge"])
    def test_gate_is_the_band_of_angles_from_state(self, monkeypatch, chi):
        # with every chi reading exactly at a band edge or one ulp past it, both checks refuse
        # exactly where angles_from_state does
        monkeypatch.setattr(qp.states, "_chi", lambda amps, n1: chi)
        psi = entangled_state(600)
        try:
            qp.angles_from_state(psi)
            refused = False
        except (qp.SeparableGamma, qp.MaximalEntanglement):
            refused = True
        assert refused == (chi in (math.nextafter(qp.EPS_DEGEN, 0.0),
                                   math.nextafter(qp.states.HALF_PI - qp.EPS_DEGEN, math.inf)))
        for check in (lambda: qp.recurrence_drift(psi, 1, 1.0, np.linspace(0.0, 1.0, 10)),
                      lambda: qp.compound_rotation_check(psi, 1.0, 0.7, 0.3, True)):
            if refused:
                with pytest.raises(qp.DegenerateState):
                    check()
            else:
                assert np.isfinite(check()).all()

    @pytest.mark.parametrize("inside, outside", [
        (2 * qp.EPS_DEGEN, math.nextafter(qp.EPS_DEGEN, 0.0)),
        (qp.states.HALF_PI - 2 * qp.EPS_DEGEN, math.nextafter(qp.states.HALF_PI - qp.EPS_DEGEN, math.inf))],
        ids=["separable-edge", "maximal-edge"])
    def test_turned_state_leaving_the_band_is_degenerate(self, monkeypatch, inside, outside):
        # the start state reads inside the band and every later one just outside it, as rounding
        # can make a turned state read: the refusal is DegenerateState, not _angles' own
        for check in (lambda: qp.recurrence_drift(psi, 2, 1.0, np.linspace(0.0, 1.0, 10)),
                      lambda: qp.compound_rotation_check(psi, 1.0, 0.7, 0.3, False)):
            psi = entangled_state(601)
            readings = iter([inside])
            monkeypatch.setattr(qp.states, "_chi", lambda amps, n1: next(readings, outside))
            with pytest.raises(qp.DegenerateState, match="needs a partially entangled state"):
                check()

    def test_opposite_rotations_cancel(self):
        for seed in range(20):
            delta = qp.compound_rotation_check(entangled_state(300 + seed),
                                               1.0, 1.0, 0.3, same_handed=False)
            assert abs(delta) < 1e-8

    def test_same_handed_rotations_compound(self):
        delta = qp.compound_rotation_check(entangled_state(400), 1.0, 1.0, 0.1,
                                           same_handed=True)
        assert abs(abs(delta) - 0.4) < 1e-6

    def test_exact_pole_states_follow_the_closed_form(self):
        # at exact Bloch poles the turned state's x and y are rounding noise; read as phi they
        # would shift gamma and put the result pi off -2(E1 +- E2)t
        e1, e2 = 1.0, 0.7
        for theta1 in (0.0, math.pi):
            for theta2 in (0.0, math.pi):
                for chi in np.linspace(1e-6, math.pi / 2 - 1e-6, 35).tolist():
                    psi = qp.state_from_angles(qp.AngleSet(chi, theta1, 0.0, theta2, 0.0, 0.4))
                    for t in (0.1, 0.3, 0.7, 1.3):
                        for same in (True, False):
                            got = qp.compound_rotation_check(psi, e1, e2, t, same)
                            want = -2.0 * (e1 + e2 if same else e1 - e2) * t
                            assert abs(qp.wrap_angle(got - want)) < 1e-12

    def test_zero_time_is_zero(self):
        assert qp.compound_rotation_check(entangled_state(500), 1.0, 1.0, 0.0,
                                          same_handed=True) == pytest.approx(0.0, abs=1e-12)


class TestAlignedModes:
    def test_expansion_matches_closed_form(self):
        for ang in band_angle_sets(200, 51):
            psi = qp.state_from_angles(ang)
            coeffs, basis = qp.aligned_mode_coefficients(psi)
            assert np.max(np.abs(basis.T @ coeffs - psi)) < 1e-12
            cc, sc = np.cos(ang.chi / 2), np.sin(ang.chi / 2)
            c2, s2 = np.cos(ang.theta2 / 2), np.sin(ang.theta2 / 2)
            em, ep = np.exp(-0.5j * ang.phi2), np.exp(0.5j * ang.phi2)
            eg, egc = np.exp(0.5j * ang.gamma), np.exp(-0.5j * ang.gamma)
            expected = np.array([cc * c2 * em * eg, cc * s2 * ep * eg,
                                 sc * s2 * em * egc, -sc * c2 * ep * egc])
            assert np.max(np.abs(coeffs - expected)) < 1e-12

    def test_modes_are_kron_rows_and_overlaps(self):
        # the docstring's basis, built with np.kron, and each coefficient as <mode|psi>
        e0, e1 = np.eye(2)
        for ang in band_angle_sets(200, 57):
            psi = qp.state_from_angles(ang)
            coeffs, basis = qp.aligned_mode_coefficients(psi)
            n = qp.state_bloch_vector(psi, 1)
            plus, minus = eigenspinors(n / np.linalg.norm(n))
            assert np.array_equal(basis, [np.kron(s, e) for s in (plus, minus) for e in (e0, e1)])
            assert np.max(np.abs(coeffs - basis.conj() @ psi)) < 1e-15

    def test_rejects_maximal_states(self):
        with pytest.raises(qp.DegenerateState):
            qp.aligned_mode_coefficients(SINGLET)
