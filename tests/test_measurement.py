import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitpair as qp
from oracles import (oracle_bloch_vector, oracle_matrix_exp, oracle_partial_trace,
                     unit_spinor)

SQ2 = 1.0 / np.sqrt(2.0)
SINGLET = np.array([0.0, SQ2, -SQ2, 0.0], dtype=complex)


def random_direction(rng):
    z = rng.standard_normal(4)
    return unit_spinor(z[0::2] + 1j * z[1::2])


class TestBornRules:
    def test_zero_state_along_z(self):
        assert qp.born_full([1, 0, 0, 0], 1, [1, 0]) == pytest.approx(1.0, abs=1e-12)
        assert qp.born_full([1, 0, 0, 0], 1, [0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_singlet_is_flat(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            direction = random_direction(rng)
            for qubit in (1, 2):
                assert qp.born_full(SINGLET, qubit, direction) == pytest.approx(0.5, abs=1e-12)

    def test_local_rule_at_zero_chi_is_ordinary(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            s = random_direction(rng)
            direction = random_direction(rng)
            assert qp.born_local(0.0, s, direction) == pytest.approx(
                abs(np.vdot(direction, s)) ** 2, abs=1e-12)

    def test_local_rule_at_maximal_chi_is_half(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = qp.born_local(np.pi / 2, random_direction(rng), random_direction(rng))
            assert p == pytest.approx(0.5, abs=1e-12)

    def test_local_equals_full_over_decomposition(self):
        rng = np.random.default_rng(4)
        for psi in qp.sample_haar(2000, 5):
            qubit = int(rng.integers(1, 3))
            direction = random_direction(rng)
            d = qp.decompose(psi)
            spinor = d.spinor1 if qubit == 1 else d.spinor2
            assert abs(qp.born_full(psi, qubit, direction)
                       - qp.born_local(d.chi, spinor, direction)) < 1e-12

    def test_antipodal_probabilities_sum_to_one(self):
        rng = np.random.default_rng(6)
        for psi in qp.sample_haar(500, 7):
            direction = random_direction(rng)
            qubit = int(rng.integers(1, 3))
            total = (qp.born_full(psi, qubit, direction)
                     + qp.born_full(psi, qubit, qp.parity(direction)))
            assert abs(total - 1.0) < 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.0, np.pi / 2), st.integers(0, 2 ** 31))
    def test_two_forms_agree_everywhere(self, chi, seed):
        rng = np.random.default_rng(seed)
        s = random_direction(rng)
        direction = random_direction(rng)
        keep = abs(np.vdot(direction, s)) ** 2
        flip = abs(np.vdot(direction, qp.parity(s))) ** 2
        two_term = np.cos(chi / 2) ** 2 * keep + np.sin(chi / 2) ** 2 * flip
        reduced = np.cos(chi) * keep + np.sin(chi / 2) ** 2
        assert abs(two_term - reduced) < 1e-12
        assert qp.born_local(chi, s, direction) == pytest.approx(two_term, abs=1e-12)

    def test_rejects_bad_qubit(self):
        with pytest.raises(ValueError):
            qp.born_full(SINGLET, 0, [1, 0])


class TestSamplers:
    def test_haar_states_are_normalized_and_canonical(self):
        for psi in qp.sample_haar(1000, 42):
            det = psi[0] * psi[3] - psi[1] * psi[2]
            assert abs(np.vdot(psi, psi).real - 1) < 1e-12
            assert abs(det.imag) < 1e-12
            assert det.real >= -1e-12

    def test_haar_deterministic_per_seed(self):
        a = qp.sample_haar(100, 9)
        b = qp.sample_haar(100, 9)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, qp.sample_haar(100, 10))

    def test_haar_mean_concurrence_band(self):
        # band frozen from an independent-generator run (stdlib Mersenne
        # Twister gauss variates, n = 2e5, seed 20250810): mean 0.589307,
        # sd 0.229934; five standard errors of a 1e4-sample mean on each side
        mean = np.mean([qp.concurrence(psi) for psi in qp.sample_haar(10_000, 77)])
        assert abs(mean - 0.5893) < 5 * 0.2300 / np.sqrt(10_000) + 0.0016

    @pytest.mark.parametrize("chi,expected", [(0.0, 0.0), (0.7, np.sin(0.7)), (np.pi / 2, 1.0)])
    def test_fixed_concurrence_is_exact(self, chi, expected):
        for psi in qp.sample_fixed_concurrence(300, 11, chi):
            assert abs(qp.concurrence(psi) - expected) < 1e-12

    def test_fixed_concurrence_deterministic(self):
        a = qp.sample_fixed_concurrence(50, 13, 0.4)
        b = qp.sample_fixed_concurrence(50, 13, 0.4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("count", [0, 1, 300])
    @pytest.mark.parametrize("chi", [0.0, 5e-10, 1e-9, 0.3, np.pi / 4, np.pi / 2,
                                     float(np.random.default_rng(23).uniform(0.0, np.pi / 2))])
    def test_fixed_concurrence_matches_five_scalar_draws_per_state(self, chi, count):
        # the sampler builds each row from the cores; the public route, a validated AngleSet
        # through state_from_angles on five scalar draws, gives every row bit for bit
        def scalar_draws(count, seed, chi):
            rng = np.random.default_rng(seed)
            out = np.empty((count, 4), dtype=complex)
            for k in range(count):
                theta1 = float(np.arccos(rng.uniform(-1.0, 1.0)))
                theta2 = float(np.arccos(rng.uniform(-1.0, 1.0)))
                phi1 = qp.wrap_angle(rng.uniform(-np.pi, np.pi))
                phi2 = qp.wrap_angle(rng.uniform(-np.pi, np.pi))
                gamma = qp.wrap_angle(rng.uniform(-np.pi, np.pi))
                out[k] = qp.state_from_angles(qp.AngleSet(chi, theta1, phi1, theta2, phi2, gamma))
            return out

        for seed in (0, 13, 2024):
            got = qp.sample_fixed_concurrence(count, seed, chi)
            assert got.shape == (count, 4) and got.dtype == np.complex128
            assert got.tobytes() == scalar_draws(count, seed, chi).tobytes()

    def test_haar_matches_one_public_phase_fix_per_state(self):
        def per_state(count, seed):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((count, 8))
            states = z[:, 0::2] + 1j * z[:, 1::2]
            states /= np.linalg.norm(states, axis=1, keepdims=True)
            return np.array([qp.fix_global_phase(s) for s in states],
                            dtype=complex).reshape(count, 4)

        for seed in (0, 3, 13, 2024):
            for count in (0, 1, 600):
                got = qp.sample_haar(count, seed)
                assert got.shape == (count, 4)
                assert np.array_equal(got, per_state(count, seed))

    @pytest.mark.parametrize("chi", [np.nan, -0.1, 2.0])
    def test_fixed_concurrence_refuses_a_bad_chi_at_any_count(self, chi):
        # chi's range rule runs once before the draws, so an empty corpus refuses it too
        for count in (0, 1):
            with pytest.raises(ValueError, match=r"chi out of \[0, pi/2\]"):
                qp.sample_fixed_concurrence(count, 1, chi)

    def test_empty_corpora_have_the_corpus_shape(self):
        for corpus in (qp.sample_haar(0, 1), qp.sample_fixed_concurrence(0, 1, 0.3)):
            assert corpus.shape == (0, 4)
            assert corpus.dtype == np.complex128


class TestOracles:
    def test_partial_trace_known_states(self):
        assert np.allclose(oracle_partial_trace([1, 0, 0, 0], 1), [[1, 0], [0, 0]])
        assert np.allclose(oracle_partial_trace(SINGLET, 2), np.eye(2) / 2, atol=1e-12)

    def test_partial_trace_matches_closed_form(self):
        for psi in qp.sample_haar(500, 15):
            for qubit in (1, 2):
                assert np.max(np.abs(oracle_bloch_vector(psi, qubit)
                                     - qp.state_bloch_vector(psi, qubit))) < 1e-12

    def test_matrix_exp_identity_for_zero_field(self):
        h = qp.LocalHamiltonian(0.0, np.zeros(3))
        assert np.allclose(oracle_matrix_exp(h, 1.7), np.eye(2), atol=1e-12)
