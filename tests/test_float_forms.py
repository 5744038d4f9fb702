"""The float closed forms of the conversion layer against plain numpy.

Each reference below is the straightforward numpy computation of the same
quantity (SVD for chi, np.kron for tensor products, matrix products for
partial traces and projectors), written here so the package's scalar code
has an independent check.  Inputs are seeded Haar states plus states
pinned at the edges of the concurrence range.
"""

import numpy as np
import pytest

import qubitpair as qp
from qubitpair.states import EPS_DEGEN, HALF_PI
from oracles import uniform_angle_sets, unit_spinor

SQ2 = 1.0 / np.sqrt(2.0)
TOL = 1e-13

# chi where the gates of angles_from_state and decompose switch, and either side of them
EDGE_CHIS = (0.0, 1e-12, EPS_DEGEN - 1e-12, EPS_DEGEN + 1e-12, 0.3, np.pi / 4,
             HALF_PI - EPS_DEGEN - 1e-12, HALF_PI - EPS_DEGEN + 1e-12, HALF_PI)


def ref_chi(psi):
    """Concurrence angle from the singular values of the amplitude matrix (stacks too)."""
    sv = np.linalg.svd(np.asarray(psi).reshape(-1, 2, 2), compute_uv=False)
    chi = 2.0 * np.arctan2(sv[:, 1], sv[:, 0])
    return chi if np.ndim(psi) == 2 else float(chi[0])


def ref_fix_global_phase(psi):
    if ref_chi(psi) >= EPS_DEGEN:
        ad, bc = psi[0] * psi[3], psi[1] * psi[2]
        det = ad - bc
        # a determinant real and positive to within the rounding of a turn (u = 2^-53) is
        # not turned
        if det.real > 0 and abs(det.imag) <= 16 * 2.0 ** -53 * (abs(ad) + abs(bc)):
            return psi
        return np.exp(-0.5j * np.angle(det)) * psi
    # magnitudes within 16u of the largest tie, and the first is taken
    size = np.abs(psi)
    return np.exp(-1j * np.angle(psi[np.argmax(size >= (1 - 16 * 2.0 ** -53) * size.max())])) * psi


def ref_bloch(psi, qubit):
    m = psi.reshape(2, 2)
    rho = m @ m.conj().T if qubit == 1 else m.T @ m.conj()
    return np.array([2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


def ref_spherical(n):
    r = np.linalg.norm(n)
    if r == 0.0:
        return 0.0, 0.0
    return np.arccos(np.clip(n[2] / r, -1.0, 1.0)), np.arctan2(n[1], n[0])


def ref_half_angle(theta, phi, alpha=0.0):
    return np.exp(0.5j * alpha) * np.array([np.cos(theta / 2) * np.exp(-0.5j * phi),
                                            np.sin(theta / 2) * np.exp(0.5j * phi)])


def ref_parity(s):
    return np.array([np.conj(s[1]), -np.conj(s[0])])


def ref_direction(n):
    x, y, z = n / np.linalg.norm(n)
    s = np.array([1 + z, x + 1j * y]) if z >= 0 else np.array([x - 1j * y, 1 - z])
    return s / np.linalg.norm(s)


def ref_schmidt_sum(chi, s1, s2):
    return (np.cos(chi / 2) * np.kron(s1, s2)
            + np.sin(chi / 2) * np.kron(ref_parity(s1), ref_parity(s2)))


def ref_state_from_angles(chi, theta1, phi1, theta2, phi2, gamma):
    # the amplitudes written out term by term
    cc, sc = np.cos(chi / 2), np.sin(chi / 2)
    c1, s1 = np.cos(theta1 / 2), np.sin(theta1 / 2)
    c2, s2 = np.cos(theta2 / 2), np.sin(theta2 / 2)
    eg, egc = np.exp(0.5j * gamma), np.exp(-0.5j * gamma)
    return np.array([
        (cc * c1 * c2 * eg + sc * s1 * s2 * egc) * np.exp(-0.5j * (phi1 + phi2)),
        (cc * c1 * s2 * eg - sc * s1 * c2 * egc) * np.exp(-0.5j * (phi1 - phi2)),
        (cc * s1 * c2 * eg - sc * c1 * s2 * egc) * np.exp(+0.5j * (phi1 - phi2)),
        (cc * s1 * s2 * eg + sc * c1 * c2 * egc) * np.exp(+0.5j * (phi1 + phi2))])


def ref_decompose(psi):
    if ref_chi(psi) >= EPS_DEGEN:
        psi = ref_fix_global_phase(psi)
    chi = ref_chi(psi)
    n1 = ref_bloch(psi, 1)
    if np.linalg.norm(n1) <= 16 * 2.0 ** -53:  # rounding noise, as at chi = pi/2: +z
        u1 = np.array([1.0, 0.0], dtype=complex)
    else:
        u1 = ref_direction(n1)
    u2 = u1.conj() @ psi.reshape(2, 2)
    u2 = u2 / np.linalg.norm(u2)
    phase = np.exp(1j * np.angle(np.vdot(np.kron(u1, u2), psi)))
    return chi, phase * u1, u2


def ref_angles(psi):
    """(chi, theta1, phi1, theta2, phi2, gamma), or the name of the refusal
    with the angles it carries."""
    psi = ref_fix_global_phase(psi)
    chi = ref_chi(psi)
    if chi > HALF_PI - EPS_DEGEN:
        return "MaximalEntanglement", None
    (t1, p1), (t2, p2) = (ref_spherical(ref_bloch(psi, q)) for q in (1, 2))
    if chi < EPS_DEGEN:
        return "SeparableGamma", (chi, t1, p1, t2, p2)
    u = np.kron(ref_half_angle(t1, p1), ref_half_angle(t2, p2))
    return chi, t1, p1, t2, p2, 2.0 * np.angle(np.vdot(u, psi))


def ref_born_full(psi, qubit, direction):
    projector = np.outer(direction, direction.conj())
    op = np.kron(projector, np.eye(2)) if qubit == 1 else np.kron(np.eye(2), projector)
    return np.vdot(psi, op @ psi).real


def ref_born_local(chi, s, direction):
    keep = abs(np.vdot(direction, s)) ** 2
    flip = abs(np.vdot(direction, ref_parity(s))) ** 2
    return np.cos(chi / 2) ** 2 * keep + np.sin(chi / 2) ** 2 * flip


def angle_gap(a, b):
    # componentwise distance of two angle tuples; every angle compared modulo 2*pi
    return max(abs(qp.wrap_angle(x - y)) for x, y in zip(a, b))


@pytest.fixture(scope="module")
def corpus():
    pinned = [qp.sample_fixed_concurrence(100, 90 + i, chi)
              for i, chi in enumerate((0.0, 0.3, np.pi / 4, HALF_PI))]
    # inside the band just above EPS_DEGEN, where the phase fix switches on
    pinned.append(qp.sample_fixed_concurrence(100, 95, 1.5e-9))
    special = np.array([[1, 0, 0, 0], [SQ2, 0, SQ2, 0], [SQ2, 0, 0, SQ2],
                        [0, SQ2, -SQ2, 0], [0, 0, 0, 1j]], dtype=complex)
    states = np.concatenate([qp.sample_haar(1000, 89), special] + pinned)
    # an arbitrary global phase per state, so the phase fix has work to do
    phases = np.exp(1j * np.random.default_rng(97).uniform(-np.pi, np.pi, len(states)))
    return np.concatenate([states, phases[:, None] * states])


@pytest.mark.parametrize("chi", EDGE_CHIS)
def test_chi_matches_svd_at_the_edges(chi):
    states = qp.sample_fixed_concurrence(2000, 101, chi)
    reference = ref_chi(states)
    for psi, ref in zip(states, reference):
        for got in (qp.concurrence_angle(psi), qp.decompose(psi).chi):
            assert abs(got - ref) <= 2e-15
            assert (got < EPS_DEGEN) == (ref < EPS_DEGEN)
            assert (got > HALF_PI - EPS_DEGEN) == (ref > HALF_PI - EPS_DEGEN)


def test_phase_fix_and_bloch_geometry(corpus):
    for psi in corpus:
        assert np.max(np.abs(qp.fix_global_phase(psi) - ref_fix_global_phase(psi))) < TOL
        for qubit in (1, 2):
            n = qp.state_bloch_vector(psi, qubit)
            assert np.max(np.abs(n - ref_bloch(psi, qubit))) < TOL
            assert angle_gap(qp.spherical_angles(n), ref_spherical(n)) < TOL


def test_decompose_and_reconstruct(corpus):
    for psi in corpus:
        d = qp.decompose(psi)
        chi, s1, s2 = ref_decompose(psi)
        assert abs(d.chi - chi) < TOL
        assert np.max(np.abs(d.spinor1 - s1)) < TOL
        assert np.max(np.abs(d.spinor2 - s2)) < TOL
        rebuilt = ref_schmidt_sum(d.chi, d.spinor1, d.spinor2)
        assert np.max(np.abs(qp.reconstruct(d) - rebuilt)) < TOL


def test_angles_from_state_and_back(corpus):
    for psi in corpus:
        expected = ref_angles(psi)
        try:
            got = qp.angles_from_state(psi)
        except (qp.SeparableGamma, qp.MaximalEntanglement) as exc:
            assert type(exc).__name__ == expected[0]
            if expected[1] is not None:
                partial = exc.angles
                assert partial.gamma is None
                assert angle_gap((partial.chi, partial.theta1, partial.phi1, partial.theta2,
                                  partial.phi2), expected[1]) < TOL
            continue
        assert not isinstance(expected[0], str), f"the reference refuses: {expected[0]}"
        values = (got.chi, got.theta1, got.phi1, got.theta2, got.phi2, got.gamma)
        assert angle_gap(values, expected) < TOL
        assert np.max(np.abs(qp.state_from_angles(got) - ref_state_from_angles(*values))) < TOL


def test_state_from_angles_over_the_whole_range():
    for ang in uniform_angle_sets(1000, 103, chi_lo=0.0, chi_hi=HALF_PI, sin_floor=0.0):
        expected = ref_state_from_angles(ang.chi, ang.theta1, ang.phi1, ang.theta2, ang.phi2,
                                         ang.gamma)
        assert np.max(np.abs(qp.state_from_angles(ang) - expected)) < TOL


def test_spinor_maps():
    rng = np.random.default_rng(107)
    for theta, phi, alpha in rng.uniform(-7.0, 7.0, (1000, 3)):
        s = qp.spinor_from_angles(theta, phi, alpha)
        assert np.max(np.abs(s - ref_half_angle(theta, phi, alpha))) < TOL
        assert np.max(np.abs(qp.parity(s) - ref_parity(s))) < TOL


def test_born_rules(corpus):
    rng = np.random.default_rng(109)
    for psi in corpus:
        d = qp.decompose(psi)
        z = rng.standard_normal(4)
        direction = unit_spinor(z[0::2] + 1j * z[1::2])
        for qubit, spinor in ((1, d.spinor1), (2, d.spinor2)):
            assert abs(qp.born_full(psi, qubit, direction)
                       - ref_born_full(psi, qubit, direction)) < TOL
            assert abs(qp.born_local(d.chi, spinor, direction)
                       - ref_born_local(d.chi, spinor, direction)) < TOL
