import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qubitpair as qp
from oracles import oracle_bloch_vector, uniform_angle_sets, unit_spinor

SQ2 = 1.0 / np.sqrt(2.0)
SINGLET = np.array([0.0, SQ2, -SQ2, 0.0], dtype=complex)
# chi just below, at and just above EPS_DEGEN, the edge of the band where gamma is undefined
BAND_EDGE_CHIS = [math.nextafter(qp.EPS_DEGEN, 0.0), qp.EPS_DEGEN, math.nextafter(qp.EPS_DEGEN, 1.0)]


def circ(a, b):
    return abs(qp.wrap_angle(a - b))


def haar(n, seed):
    return qp.sample_haar(n, seed)


spinor_strategy = st.tuples(
    *(st.floats(-1.0, 1.0) for _ in range(4))
).filter(lambda t: sum(x * x for x in t) > 1e-2).map(
    lambda t: unit_spinor([complex(t[0], t[1]), complex(t[2], t[3])]))


class TestGlobalPhase:
    def test_removes_global_i_from_bell(self):
        fixed = qp.fix_global_phase([1j * SQ2, 0, 0, 1j * SQ2])
        assert np.allclose(fixed, [SQ2, 0, 0, SQ2], atol=1e-12)

    def test_separable_fallback_is_identity_on_canonical(self):
        psi = np.array([1, 0, 0, 0], dtype=complex)
        assert np.array_equal(qp.fix_global_phase(psi), psi)

    def test_postcondition_on_haar_states(self):
        # states come phase-fixed out of the sampler; re-fixing must hold the
        # det real and non-negative and move nothing beyond rounding scale
        for psi in haar(10_000, 3):
            det = psi[0] * psi[3] - psi[1] * psi[2]
            assert abs(det.imag) < 1e-12
            assert det.real >= -1e-12
            # residual rotation angle is Im(det) rounding over |det|
            assert np.max(np.abs(qp.fix_global_phase(psi) - psi)) < 1e-13

    @pytest.mark.parametrize("chi", [0.0, 3e-10, *BAND_EDGE_CHIS, 2e-9, math.pi / 4,
                                     qp.states.HALF_PI, "haar", "tied"])
    def test_fix_global_phase_is_bit_idempotent(self, chi):
        # each rule leaves input already fixed to its own rounding alone, and the band test
        # picks the same rule for a state and its turned self, so a second call changes no
        # bit: on either side of the band edge, above it, on Haar states, and on products
        # whose amplitudes tie in pairs (qubit 1 on the Bloch equator), where rounding can
        # reorder the largest magnitudes
        rng = np.random.default_rng(74)
        if chi == "haar":
            corpus = haar(20_000, 75)
        elif chi == "tied":
            corpus = [np.kron(qp.spinor_from_angles(math.pi / 2, p1),
                              qp.spinor_from_angles(abs(t2), p2))
                      for t2, p1, p2 in rng.uniform(-np.pi, np.pi, (20_000, 3))]
        else:
            corpus = qp.sample_fixed_concurrence(20_000, 32, chi)
        for x in corpus:
            psi = qp.fix_global_phase(np.exp(1j * rng.uniform(-np.pi, np.pi)) * x)
            assert np.array_equal(qp.fix_global_phase(psi), psi)

    def test_separable_fallback_makes_largest_amplitude_real(self):
        psi = np.exp(0.77j) * np.array([SQ2, 0, SQ2, 0], dtype=complex)
        fixed = qp.fix_global_phase(psi)
        assert abs(fixed[0].imag) < 1e-12 and fixed[0].real > 0


class TestConcurrence:
    @pytest.mark.parametrize("psi,expected", [
        ([1, 0, 0, 0], 0.0),
        ([SQ2, 0, 0, SQ2], 1.0),
        (SINGLET, 1.0),
    ])
    def test_known_values(self, psi, expected):
        assert qp.concurrence(psi) == pytest.approx(expected, abs=1e-12)

    def test_angle_is_arcsin(self):
        for psi in haar(100, 11):
            assert qp.concurrence_angle(psi) == pytest.approx(
                np.arcsin(qp.concurrence(psi)), abs=1e-12)


class TestStateBlochVector:
    def test_zero_state(self):
        assert np.allclose(qp.state_bloch_vector([1, 0, 0, 0], 1), [0, 0, 1])

    def test_singlet_is_maximally_mixed(self):
        for qubit in (1, 2):
            assert np.allclose(qp.state_bloch_vector(SINGLET, qubit), 0.0, atol=1e-12)

    def test_matches_outer_product_oracle(self):
        for psi in haar(500, 5):
            for qubit in (1, 2):
                assert np.max(np.abs(qp.state_bloch_vector(psi, qubit)
                                     - oracle_bloch_vector(psi, qubit))) < 1e-12

    def test_rejects_bad_qubit(self):
        with pytest.raises(ValueError):
            qp.state_bloch_vector(SINGLET, 3)


def bloch_of(rho):
    """The Bloch vector of a 2x2 matrix by the package's closed form, states._bloch_of."""
    (p, w), (_, q) = np.asarray(rho, dtype=complex).tolist()
    return np.array(qp.states._bloch_of(p.real, q.real, w))


def spinor_bloch_of(spinor):
    """A spinor's Bloch vector by the core's closed form on rho = s s^dagger, at any norm."""
    u, l = np.asarray(spinor, dtype=complex).tolist()
    return np.array(qp.states._bloch_of(abs(u) ** 2, abs(l) ** 2, u * l.conjugate()))


def numpy_bloch_vector(rho):
    """bloch_of as numpy arithmetic on the matrix entries, the reference form."""
    rho = np.asarray(rho, dtype=complex)
    w = 2.0 * rho[0, 1]
    return np.array([w.real, -w.imag, float(np.real(rho[0, 0] - rho[1, 1]))])


def numpy_spinor_bloch_vector(spinor):
    """spinor_bloch_vector as numpy arithmetic on the components, the reference form."""
    u, l = np.asarray(spinor, dtype=complex).reshape(2)
    w = 2.0 * u * np.conj(l)
    return np.array([w.real, -w.imag, abs(u) ** 2 - abs(l) ** 2])


class TestBlochVector:
    def test_equals_the_numpy_forms(self):
        # unnormalised inputs over many scales, so no unit-norm shortcut can hide: they go
        # through the core, and the public call, which refuses them, takes the spinor scaled
        rng = np.random.default_rng(83)
        for _ in range(5000):
            z = rng.standard_normal(12) * 10.0 ** rng.integers(-100, 100)
            rho = (z[:4] + 1j * z[4:8]).reshape(2, 2)
            spinor = z[8:10] + 1j * z[10:]
            assert np.array_equal(bloch_of(rho), numpy_bloch_vector(rho))
            assert np.array_equal(spinor_bloch_of(spinor), numpy_spinor_bloch_vector(spinor))
            unit = unit_spinor(spinor)
            assert np.array_equal(qp.spinor_bloch_vector(unit), numpy_spinor_bloch_vector(unit))

    @pytest.mark.parametrize("rho,n", [
        ([[1, 0], [0, 0]], (0, 0, 1)),
        ([[0.5, 0.5], [0.5, 0.5]], (1, 0, 0)),
        ([[0.5, 0], [0, 0.5]], (0, 0, 0)),
    ])
    def test_known_matrices(self, rho, n):
        assert np.allclose(bloch_of(rho), n, atol=1e-12)

    def test_length_is_cos_chi(self):
        for psi in haar(2000, 17):
            chi = qp.concurrence_angle(psi)
            for qubit in (1, 2):
                n = qp.state_bloch_vector(psi, qubit)
                assert abs(np.linalg.norm(n) - np.cos(chi)) < 1e-9

    @pytest.mark.parametrize("x", [0.0, -0.0])
    @pytest.mark.parametrize("y", [0.0, -0.0])
    @pytest.mark.parametrize("z, theta", [(1.0, 0.0), (-1.0, np.pi)])
    def test_phi_is_zero_on_the_poles(self, x, y, z, theta):
        # atan2 of signed zeros gives 0 or pi; on the z-axis phi is +0.0 for every sign
        got_theta, phi = qp.spherical_angles([x, y, z])
        assert got_theta == theta
        assert phi == 0.0 and np.copysign(1.0, phi) == 1.0

    @pytest.mark.parametrize("z", [1.0, -1.0])
    def test_phi_is_zero_within_rounding_of_the_poles(self, z):
        # x and y of a few ulp of |n| are rounding noise: phi is 0 while hypot(x, y) <= 4u|n|,
        # u = 2^-53, and atan2(y, x) past that, also where |n| overflows
        u = 2.0 ** -53
        for x, y in [(u, -u), (-u, -u), (-2.0 * u, 0.0), (-2.0 * u, 2.0 * u), (0.0, -4.0 * u)]:
            assert qp.spherical_angles([x, y, z])[1] == 0.0
        for x, y, scale in [(-1e-15, 0.0, 1.0), (1e-15, -1e-15, 1.0), (0.0, 5.0 * u, 1.0),
                            (1e308, -1e308, 1e308)]:
            assert qp.spherical_angles([x, y, scale * z])[1] == qp.wrap_angle(math.atan2(y, x))


class TestSpinors:
    @pytest.mark.parametrize("args,expected", [
        ((0.0, 0.0, 0.0), [1, 0]),
        ((np.pi, 0.0, 0.0), [0, 1]),
        ((0.0, 0.0, np.pi), [1j, 0]),
    ])
    def test_spinor_from_angles(self, args, expected):
        assert np.allclose(qp.spinor_from_angles(*args), expected, atol=1e-12)

    def test_alpha_has_4pi_period(self):
        s0 = qp.spinor_from_angles(1.0, 0.5, 0.0)
        assert np.allclose(qp.spinor_from_angles(1.0, 0.5, 2 * np.pi), -s0, atol=1e-12)
        assert np.allclose(qp.spinor_from_angles(1.0, 0.5, 4 * np.pi), s0, atol=1e-12)

    def test_parity_of_north(self):
        assert np.allclose(qp.parity([1, 0]), [0, -1])

    @settings(max_examples=200, deadline=None)
    @given(spinor_strategy)
    def test_parity_involution_and_orthogonality(self, s):
        assert np.max(np.abs(qp.parity(qp.parity(s)) + s)) < 1e-12
        assert abs(np.vdot(s, qp.parity(s))) < 1e-12
        assert np.allclose(qp.spinor_bloch_vector(qp.parity(s)),
                           -qp.spinor_bloch_vector(s), atol=1e-12)


class TestAngleConversions:
    def test_forward_map_trivial(self):
        ang = qp.AngleSet(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert np.allclose(qp.state_from_angles(ang), [1, 0, 0, 0], atol=1e-12)

    def test_forward_map_singlet_by_hand(self):
        # direct substitution: chi=pi/2, theta1=0, theta2=pi collapses every
        # term except b and c
        ang = qp.AngleSet(np.pi / 2, 0.0, 0.0, np.pi, 0.0, 0.0)
        assert np.allclose(qp.state_from_angles(ang), SINGLET, atol=1e-12)

    def test_forward_map_output_is_canonical(self):
        for ang in uniform_angle_sets(500, 23, chi_lo=0.0, chi_hi=np.pi / 2):
            psi = qp.state_from_angles(ang)
            det = psi[0] * psi[3] - psi[1] * psi[2]
            assert abs(np.vdot(psi, psi).real - 1) < 1e-12
            assert abs(det.imag) < 1e-12 and det.real >= -1e-15

    def test_roundtrip_through_amplitudes(self):
        from qubitpair.verify import band_angle_sets
        for ang in band_angle_sets(2000, 29):
            psi = qp.state_from_angles(ang)
            got = qp.angles_from_state(psi)
            # the independent sine-quotient formula agrees with the projection's gamma
            assert abs(math.sin(got.gamma) - qp.recurrence_sine(psi)) <= qp.EPS_MATCH
            assert abs(got.chi - ang.chi) < 1e-9
            assert abs(got.theta1 - ang.theta1) < 1e-9
            assert abs(got.theta2 - ang.theta2) < 1e-9
            assert circ(got.phi1, ang.phi1) < 1e-9
            assert circ(got.phi2, ang.phi2) < 1e-9
            assert circ(got.gamma, ang.gamma) < 1e-9

    @pytest.mark.parametrize("gap", [1e-6, 1e-8, 2e-9])
    def test_roundtrip_next_to_maximal_is_good_to_1e_16_over_cos_chi(self, gap):
        # a Bloch vector of length cos(chi) gives its direction only to about 1e-16/cos(chi)
        chi = np.pi / 2 - gap
        bound = 1e-15 / np.cos(chi)
        for psi in qp.sample_fixed_concurrence(300, 5, chi):
            back = qp.state_from_angles(qp.angles_from_state(psi))
            assert np.max(np.abs(back - psi)) <= bound

    @pytest.mark.parametrize("chi", [1.5e-9, 2e-9, 1e-8, 1e-6])
    def test_roundtrips_next_to_separable_keep_1e_10(self, chi):
        # canonical input whose determinant phase is rounding noise (about ulp/|det|) must
        # not be turned by it: both round trips stay at 1e-10 just above EPS_DEGEN
        for psi in qp.sample_fixed_concurrence(300, 5, chi):
            assert np.max(np.abs(qp.reconstruct(qp.decompose(psi)) - psi)) <= 1e-10
            back = qp.state_from_angles(qp.angles_from_state(psi))
            assert np.max(np.abs(back - psi)) <= 1e-10

    def test_separable_raises_with_partial_angles(self):
        with pytest.raises(qp.SeparableGamma) as err:
            qp.angles_from_state([1, 0, 0, 0])
        partial = err.value.angles
        assert partial.chi == pytest.approx(0.0, abs=1e-12)
        assert partial.theta1 == pytest.approx(0.0, abs=1e-12)
        assert partial.theta2 == pytest.approx(0.0, abs=1e-12)
        assert partial.gamma is None

    def test_maximal_raises(self):
        with pytest.raises(qp.MaximalEntanglement):
            qp.angles_from_state(SINGLET)

    @pytest.mark.parametrize("psi, error", [
        (qp.sample_fixed_concurrence(1, 0, 0.0)[0], qp.SeparableGamma),
        (SINGLET, qp.MaximalEntanglement)], ids=["separable", "maximal"])
    def test_recurrence_sine_refuses_where_angles_from_state_does(self, psi, error):
        # the same exception in the same words; the separable one carries the same partial angles
        with pytest.raises(error) as projected:
            qp.angles_from_state(psi)
        with pytest.raises(error) as quotient:
            qp.recurrence_sine(psi)
        assert type(quotient.value) is error and str(quotient.value) == str(projected.value)
        if error is qp.SeparableGamma:
            assert quotient.value.angles is not None
            assert quotient.value.angles == projected.value.angles

    def test_pole_raises_only_in_recurrence_sine(self):
        psi = qp.state_from_angles(qp.AngleSet(0.6, 0.0, 0.0, 1.2, 0.3, 0.9))
        got = qp.angles_from_state(psi)  # the projection is total here
        assert got.theta1 == pytest.approx(0.0, abs=1e-12) and math.isfinite(got.gamma)
        with pytest.raises(qp.PoleSingularity):
            qp.recurrence_sine(psi)

    def test_gamma_required_when_entangled(self):
        with pytest.raises(qp.SeparableGamma):
            qp.state_from_angles(qp.AngleSet(0.4, 1.0, 0.0, 1.0, 0.0, None))

    def test_gamma_optional_when_separable(self):
        psi = qp.state_from_angles(qp.AngleSet(0.0, 1.0, 0.5, 2.0, -0.5, None))
        assert abs(np.vdot(psi, psi).real - 1) < 1e-12

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            qp.AngleSet(-0.1, 0, 0, 0, 0, 0).validate()
        with pytest.raises(ValueError):
            qp.AngleSet(0.3, 4.0, 0, 0, 0, 0).validate()
        with pytest.raises(ValueError):
            qp.AngleSet(0.3, 1.0, -np.pi, 0, 0, 0).validate()

    def test_gamma_cancels_in_the_other_five(self):
        rng = np.random.default_rng(31)
        from qubitpair.verify import band_angle_sets
        for ang in band_angle_sets(300, 37):
            derived = []
            for g in rng.uniform(-np.pi, np.pi, 2):
                psi = qp.state_from_angles(dataclasses.replace(ang, gamma=qp.wrap_angle(g)))
                t1, p1 = qp.spherical_angles(qp.state_bloch_vector(psi, 1))
                t2, p2 = qp.spherical_angles(qp.state_bloch_vector(psi, 2))
                derived.append((qp.concurrence_angle(psi), t1, p1, t2, p2))
            assert max(abs(x - y) for x, y in zip(*derived)) < 1e-12

    def test_particle_exchange_keeps_gamma(self):
        from qubitpair.verify import band_angle_sets
        for ang in band_angle_sets(300, 41):
            a, b, c, d = qp.state_from_angles(ang)
            swapped = qp.angles_from_state([a, c, b, d])
            assert circ(swapped.gamma, ang.gamma) < 1e-9
            assert abs(swapped.theta1 - ang.theta2) < 1e-9

    def test_sine_quotient_agreement_in_band(self):
        from qubitpair.verify import band_angle_sets
        for ang in band_angle_sets(1000, 43):
            psi = qp.state_from_angles(ang)
            got = qp.angles_from_state(psi)
            assert abs(np.sin(got.gamma) - qp.recurrence_sine(psi)) < 1e-9

    @pytest.mark.parametrize("theta1", [1e-8, 1e-7, np.pi - 1e-7])
    def test_theta_keeps_its_digits_next_to_a_pole(self, theta1):
        # acos(z/r) misses theta1 = 1e-8 by 1e-8, and 1e-7 or pi - 1e-7 by 1.2e-9
        from qubitpair.verify import band_angle_sets
        for ang in band_angle_sets(300, 47):
            psi = qp.state_from_angles(dataclasses.replace(ang, theta1=theta1))
            assert abs(qp.angles_from_state(psi).theta1 - theta1) < 1e-14

    @pytest.mark.parametrize("chi", [1.2e-9, 1.5e-9, 1.9e-9])
    def test_one_band_for_phase_fix_and_gamma(self, chi):
        # gamma is defined from chi = EPS_DEGEN on; a phase fix gated on |ad - bc| >= EPS_DEGEN
        # (chi >= 2 EPS_DEGEN) left det complex here, and the round trip missed by 1.9e-9
        # modulo the global phase. The global phase itself still drifts by about 1e-16/chi
        # (6e-8 here), which this test leaves out by comparing modulo that phase.
        rng = np.random.default_rng(7)
        for _ in range(300):
            theta1, theta2 = rng.uniform(0.0, np.pi, 2)
            phi1, phi2, gamma = rng.uniform(-np.pi, np.pi, 3)
            psi = qp.state_from_angles(qp.AngleSet(chi, theta1, phi1, theta2, phi2, gamma))
            back = qp.state_from_angles(qp.angles_from_state(psi))
            overlap = np.vdot(back, psi)
            assert np.max(np.abs(psi - back * overlap / abs(overlap))) <= 1e-12


class TestDecomposition:
    def test_singlet_representation(self):
        d = qp.decompose(SINGLET)
        assert d.chi == pytest.approx(np.pi / 2, abs=1e-12)
        assert np.allclose(d.spinor1, [1, 0], atol=1e-12)
        assert np.allclose(d.spinor2, [0, 1], atol=1e-12)
        assert np.allclose(d.spinor2, -qp.parity(d.spinor1), atol=1e-12)

    def test_singlet_alpha_shift_by_pi(self):
        d = qp.decompose(SINGLET)
        rotated = qp.reconstruct(qp.SpinorDecomposition(d.chi, 1j * d.spinor1, d.spinor2))
        assert np.max(np.abs(rotated - 1j * np.array([0, SQ2, SQ2, 0]))) < 1e-12

    def test_product_state(self):
        d = qp.decompose([SQ2, 0, SQ2, 0])
        assert d.chi == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(d.spinor1, [SQ2, SQ2], atol=1e-12)
        assert np.allclose(d.spinor2, [1, 0], atol=1e-12)

    def test_roundtrip_on_haar_states(self):
        for psi in haar(10_000, 101):
            d = qp.decompose(psi)
            assert np.max(np.abs(qp.reconstruct(d) - psi)) < 1e-10

    @pytest.mark.parametrize("chi", [0.0, 0.3, np.pi / 4, np.pi / 2])
    def test_roundtrip_at_fixed_chi(self, chi):
        for psi in qp.sample_fixed_concurrence(250, 7, chi):
            d = qp.decompose(psi)
            assert np.max(np.abs(qp.reconstruct(d) - psi)) < 1e-10

    @pytest.mark.parametrize("gap", [1e-9, 9e-10, 5e-10, 1e-10, 1e-12, 0.0])
    def test_roundtrip_in_the_upper_band(self, gap):
        # between pi/2 - EPS_DEGEN and pi/2 spinor1 follows qubit 1's Bloch vector down to its
        # rounding noise, so the round trip keeps 1e-10 where +z missed by up to 0.8 gap, and at
        # exact pi/2, where the vector is noise, spinor1 stays +z bit for bit; only
        # angles_from_state refuses the band, where theta and phi lose meaning
        for psi in qp.sample_fixed_concurrence(300, 11, np.pi / 2 - gap):
            d = qp.decompose(psi)
            assert np.max(np.abs(qp.reconstruct(d) - psi)) <= 1e-10
            assert gap > 0.0 or d.spinor1.tolist() == [1, 0]
            if gap < qp.EPS_DEGEN:
                with pytest.raises(qp.MaximalEntanglement):
                    qp.angles_from_state(psi)

    def test_roundtrip_keeps_global_sign(self):
        for psi in haar(200, 57):
            d = qp.decompose(-psi)
            assert np.max(np.abs(qp.reconstruct(d) + psi)) < 1e-10

    def test_spinor_directions_match_partial_traces(self):
        for psi in haar(1000, 59):
            d = qp.decompose(psi)
            for qubit, s in ((1, d.spinor1), (2, d.spinor2)):
                n = qp.state_bloch_vector(psi, qubit)
                r = np.linalg.norm(n)
                if r > 1e-9:
                    assert np.max(np.abs(qp.spinor_bloch_vector(s) - n / r)) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-0.999, 1.0), st.floats(-np.pi + 1e-9, np.pi),
           st.floats(-np.pi + 1e-9, np.pi))
    def test_decomposed_spinor1_points_along_qubit1(self, ct, phi, gamma):
        # spinor1 is the direction spinor of n1/|n1|, from two charts picked by the sign of n_z
        psi = qp.state_from_angles(qp.AngleSet(0.6, float(np.arccos(ct)), phi, 1.1, 0.3, gamma))
        n = qp.state_bloch_vector(psi, 1)
        n /= np.linalg.norm(n)
        assert np.max(np.abs(qp.spinor_bloch_vector(qp.decompose(psi).spinor1) - n)) < 1e-12

    def test_decomposed_spinor1_at_the_shortest_bloch_vector(self):
        # at the maximal band edge |n1| is EPS_DEGEN, and rounding puts some chis past the edge;
        # on both sides spinor1 is n1's direction, as everywhere above |n1|'s rounding noise
        chi = qp.states.HALF_PI - qp.EPS_DEGEN * (1 + 1e-7)
        past_the_edge = 0
        for psi in qp.sample_fixed_concurrence(2000, 113, chi):
            d = qp.decompose(psi)
            assert abs(np.linalg.norm(d.spinor1) - 1.0) < 1e-15
            past_the_edge += d.chi > qp.states.HALF_PI - qp.EPS_DEGEN
            n = qp.state_bloch_vector(psi, 1)
            r = np.linalg.norm(n)
            assert r > qp.EPS_DEGEN * (1 - 1e-6)
            assert np.max(np.abs(qp.spinor_bloch_vector(d.spinor1) - n / r)) < 1e-9
        assert past_the_edge > 0

    def test_reconstruction_paths_agree(self):
        for psi in haar(1000, 61):
            d = qp.decompose(psi)
            assert np.max(np.abs(qp.reconstruct(d)
                                 - qp.reconstruct_from_products(d))) < 1e-12

    def test_separable_limit_is_plain_product(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            s1 = unit_spinor(z[:2])
            s2 = unit_spinor(z[2:])
            d = qp.SpinorDecomposition(0.0, s1, s2)
            assert np.max(np.abs(qp.reconstruct(d) - np.kron(s1, s2))) < 1e-12

    def test_rejects_unnormalized_input(self):
        with pytest.raises(ValueError):
            qp.decompose([1, 0, 0, 1])

    @pytest.mark.parametrize("chi", [1e-11, 1e-10, 5e-10, *BAND_EDGE_CHIS])
    def test_round_trip_below_the_band_misses_by_at_most_the_floor(self, chi):
        # below EPS_DEGEN a decomposition does not carry gamma, the determinant's phase: it
        # rebuilds ad - bc >= 0, so a phase-fixed separable state comes back within
        # 2 sin(chi/2) of itself, and that floor is reached; at the band edge fix_global_phase
        # takes decompose's rule, which turns these states to ad - bc >= 0 on either side of
        # the band test, so their round trip is exact
        rng = np.random.default_rng(73)
        floor, worst = 2.0 * math.sin(chi / 2.0), 0.0
        for x in qp.sample_fixed_concurrence(300, 32, chi):
            psi = qp.fix_global_phase(np.exp(1j * rng.uniform(-np.pi, np.pi)) * x)
            worst = max(worst, float(np.max(np.abs(qp.reconstruct(qp.decompose(psi)) - psi))))
        if chi in BAND_EDGE_CHIS:
            assert worst <= 1e-15
        else:
            assert 0.9 * floor < worst <= floor

    def test_band_edge_window_keeps_only_input_canonical_by_one_rule(self):
        # within 16u of EPS_DEGEN decompose keeps input as it is only where its largest
        # amplitude or its ad - bc is already fixed; input canonical by neither rule is turned
        # to ad - bc >= 0 on either side of the edge, as entangled input is, and the round trip
        # returns the turned input, not the input
        rng = np.random.default_rng(77)
        turned_below = 0
        for chi in BAND_EDGE_CHIS:
            floor = 2.0 * math.sin(chi / 2.0)
            for x in qp.sample_fixed_concurrence(300, 32, chi):
                psi = np.exp(1j * rng.uniform(-np.pi, np.pi)) * x
                a, b, c, d = psi
                turned = np.exp(-0.5j * np.angle(a * d - b * c)) * psi
                back = qp.reconstruct(qp.decompose(psi))
                assert np.max(np.abs(back - turned)) < 1e-15
                turned_below += (qp.concurrence_angle(psi) < qp.EPS_DEGEN
                                 and np.max(np.abs(back - psi)) > floor)
                for kept in (qp.fix_global_phase(psi), turned):
                    assert np.max(np.abs(qp.reconstruct(qp.decompose(kept)) - kept)) <= floor
        assert turned_below > 0

    @pytest.mark.parametrize("chi", BAND_EDGE_CHIS)
    def test_band_edge_window_fixes_the_phase_by_decompose_rule(self, chi):
        # fix_global_phase and decompose take one rule in the 16u window below EPS_DEGEN too:
        # the round trip of raw input returns fix_global_phase's output, and the separable run
        # of that output starts from an unturned ledger
        rng = np.random.default_rng(78)
        for x in qp.sample_fixed_concurrence(3000, 32, chi):
            psi = np.exp(1j * rng.uniform(-np.pi, np.pi)) * x
            fixed = qp.fix_global_phase(psi)
            assert np.max(np.abs(qp.reconstruct(qp.decompose(psi)) - fixed)) <= 1e-15
            assert qp.evolve_separable_state(fixed, [], [])[1].beta1 == 0.0


class TestUnitCoercion:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("coerce,size", [(qp.as_state, 4), (qp.as_spinor, 2)])
    def test_rejects_non_finite_components(self, coerce, size, bad):
        values = np.zeros(size, dtype=complex)
        values[0] = bad
        with pytest.raises(ValueError, match="not normalized"):
            coerce(values)

    @pytest.mark.parametrize("coerce,size", [(qp.as_state, 4), (qp.as_spinor, 2)])
    def test_rejects_nan_imaginary_part_and_zero_vector(self, coerce, size):
        values = np.zeros(size, dtype=complex)
        values[-1] = complex(1.0, np.nan)
        with pytest.raises(ValueError):
            coerce(values)
        with pytest.raises(ValueError, match="not normalized"):
            coerce(np.zeros(size))

    @pytest.mark.parametrize("coerce,size", [(qp.as_state, 4), (qp.as_spinor, 2)])
    def test_unit_norm_slack(self, coerce, size):
        for nsq, accepted in ((1 + 5e-13, True), (1 - 5e-13, True),
                              (1 + 2e-12, False), (1 - 2e-12, False)):
            values = np.full(size, np.sqrt(nsq / size) * (1 + 1j) / np.sqrt(2))
            if accepted:
                assert np.array_equal(coerce(values), values)
            else:
                with pytest.raises(ValueError, match="not normalized"):
                    coerce(values)

    def test_messages_name_the_kind_of_vector(self):
        with pytest.raises(ValueError, match=r"amplitudes are not normalized: \|psi\|\^2"):
            qp.as_state([1, 0, 0, 1])
        with pytest.raises(ValueError, match=r"spinor is not normalized: \|s\|\^2"):
            qp.as_spinor([1, 1])
