"""Seeded property suites behind the ``verify`` CLI command.

Each suite draws deterministic samples from its seed, evaluates a batch of
machine-precision properties, and records the worst deviation seen per
property, so a failure points at the broken identity directly.  Trial
counts scale with the ``trials`` argument.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import dynamics, measurement, states


@dataclasses.dataclass
class PropertyResult:
    name: str
    worst: float
    tolerance: float
    passed: bool
    note: str = ""


def _result(name: str, worst: float, tolerance: float, note: str = "") -> PropertyResult:
    return PropertyResult(name, float(worst), tolerance, bool(worst <= tolerance), note)


def band_angle_sets(count: int, seed: int) -> list[states.AngleSet]:
    """Angle sets away from every degeneracy: chi inside [0.05, pi/2 - 0.05]
    and both thetas at least arcsin(0.05) from the poles."""
    # one row of six draws per set, in the order of six rng.uniform calls, each scaled as
    # rng.uniform scales it: chi, theta1, phi1, theta2, phi2, gamma
    t_lo = float(np.arcsin(0.05))
    low = np.array([0.05, t_lo, -np.pi, t_lo, -np.pi, -np.pi])
    high = np.array([states.HALF_PI - 0.05, np.pi - t_lo, np.pi, np.pi - t_lo, np.pi, np.pi])
    draws = low + (high - low) * np.random.default_rng(seed).random((count, 6))
    wrap = states.wrap_angle
    return [states.AngleSet(chi, theta1, wrap(phi1), theta2, wrap(phi2), wrap(gamma))
            for chi, theta1, phi1, theta2, phi2, gamma in draws.tolist()]


def _circ(a: float, b: float) -> float:
    return abs(states.wrap_angle(a - b))


def random_schedule(rng: np.random.Generator, steps: int, scalar: bool) -> dynamics.Schedule:
    """Drawn per step in this order: h_i (if scalar, else 0.0), v and dt."""
    rows = np.array([(rng.normal() if scalar else 0.0, *rng.normal(size=3), rng.uniform(0.01, 0.3))
                     for _ in range(steps)]).reshape(-1, 5)
    return dynamics.Schedule(rows[:, 0], rows[:, 1:4], rows[:, 4])


# ---------------------------------------------------------------- roundtrip

def roundtrip_suite(trials: int, seed: int) -> list[PropertyResult]:
    results = []

    # Haar bulk plus deliberately injected separable and maximal edge states;
    # for the fixed-chi part the nominal angle is known exactly, which keeps
    # the length comparison below conditioned at the edges.
    haar = measurement.sample_haar(trials, seed)
    edge = max(trials // 10, 8)
    corpus = [(psi, states.concurrence_angle(psi)) for psi in haar]
    for i, chi in enumerate((0.0, 0.3, np.pi / 4, states.HALF_PI)):
        for psi in measurement.sample_fixed_concurrence(edge, seed + 1 + i, chi):
            corpus.append((psi, chi))

    worst_rt, worst_paths, worst_len = 0.0, 0.0, 0.0
    for psi, chi in corpus:
        d = states.decompose(psi)
        rebuilt = states.reconstruct(d)
        worst_rt = max(worst_rt, float(np.max(np.abs(rebuilt - psi))))
        worst_paths = max(worst_paths, float(np.max(np.abs(
            rebuilt - states.reconstruct_from_products(d)))))
        for qubit in (1, 2):
            n = states.state_bloch_vector(psi, qubit)
            worst_len = max(worst_len, abs(float(np.linalg.norm(n)) - float(np.cos(chi))))
    results.append(_result("decompose_reconstruct_roundtrip", worst_rt, 1e-10))
    results.append(_result("reconstruction_paths_agree", worst_paths, 1e-12))
    results.append(_result("bloch_length_is_cos_chi", worst_len, 1e-9))

    sets = band_angle_sets(trials, seed + 11)
    worst_ang, worst_sine, worst_swap = 0.0, 0.0, 0.0
    for ang in sets:
        psi = states.state_from_angles(ang)
        got = states.angles_from_state(psi)
        worst_ang = max(worst_ang, abs(got.chi - ang.chi), abs(got.theta1 - ang.theta1),
                        abs(got.theta2 - ang.theta2), _circ(got.phi1, ang.phi1),
                        _circ(got.phi2, ang.phi2), _circ(got.gamma, ang.gamma))
        worst_sine = max(worst_sine, abs(np.sin(got.gamma) - states.recurrence_sine(psi)))
        a, b, c, d = psi
        swapped = states.angles_from_state(np.array([a, c, b, d]))
        worst_swap = max(worst_swap, _circ(swapped.gamma, ang.gamma))
    results.append(_result("angle_roundtrip", worst_ang, 1e-9))
    results.append(_result("recurrence_sine_crosscheck", worst_sine, 1e-9))
    results.append(_result("particle_exchange_keeps_gamma", worst_swap, 1e-9))

    rng = np.random.default_rng(seed + 13)
    worst = 0.0
    for ang in sets[: max(trials // 2, 4)]:
        gammas = [states.wrap_angle(rng.uniform(-np.pi, np.pi)) for _ in range(2)]
        derived = []
        for g in gammas:
            psi = states.state_from_angles(dataclasses.replace(ang, gamma=g))
            got = states.angles_from_state(psi)
            derived.append((got.chi, got.theta1, got.phi1, got.theta2, got.phi2))
        worst = max(worst, *(abs(x - y) for x, y in zip(derived[0], derived[1])))
    results.append(_result("gamma_cancels_in_five_angles", worst, 1e-12))

    worst = 0.0
    for _ in range(trials):
        s = measurement.sample_haar(1, int(rng.integers(2 ** 63)))[0][:2]
        s = s / np.linalg.norm(s)
        worst = max(worst,
                    float(np.max(np.abs(states.parity(states.parity(s)) + s))),
                    abs(np.vdot(s, states.parity(s))))
    results.append(_result("parity_identities", worst, 1e-12))

    return results


# ----------------------------------------------------------------- dynamics

def dynamics_suite(trials: int, seed: int) -> list[PropertyResult]:
    results = []
    rng = np.random.default_rng(seed)
    corpus = measurement.sample_haar(trials, seed)

    worst_dev, worst_dc, worst_norm = 0.0, 0.0, 0.0
    for i, psi in enumerate(corpus):
        scalar = i % 2 == 0
        report = dynamics.compare_backends(
            psi, random_schedule(rng, 10, scalar), random_schedule(rng, 10, scalar))
        worst_dev = max(worst_dev, report.max_component_deviation)
        worst_dc = max(worst_dc, abs(states.concurrence(report.final_state_full)
                                     - states.concurrence(psi)))
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(report.final_state_full)) - 1.0),
                         abs(float(np.linalg.norm(report.final_state_separable)) - 1.0))
    results.append(PropertyResult("backend_equivalence", worst_dev, dynamics.DEVIATION_BOUND,
                                  dynamics.backends_agree(worst_dev)))
    results.append(_result("concurrence_invariance", worst_dc, 1e-12))
    results.append(_result("unitarity", worst_norm, 1e-12))

    worst = 0.0
    for _ in range(trials):
        h = dynamics.LocalHamiltonian(0.0, rng.normal(size=3))
        t = float(rng.uniform(-2, 2))
        s = measurement.sample_haar(1, int(rng.integers(2 ** 63)))[0][:2]
        s /= np.linalg.norm(s)
        u = dynamics.su2_operator(h, t)
        worst = max(worst, float(np.max(np.abs(u @ states.parity(s) - states.parity(u @ s)))))
    results.append(_result("rotation_commutes_with_parity", worst, 1e-12))

    worst = 0.0
    for psi in corpus[: max(trials // 2, 4)]:
        out = dynamics.evolve_full_schedule(
            psi, random_schedule(rng, 5, False), random_schedule(rng, 5, False))
        det = out[0] * out[3] - out[1] * out[2]
        worst = max(worst, abs(det.imag))
    results.append(_result("traceless_flow_keeps_det_real", worst, 1e-12))

    # scalar parts rotate (ad - bc) into the complex plane; expect a signal,
    # not a bound, so "worst" here is the largest imaginary part seen
    psi = measurement.sample_haar(1, seed + 99)[0]
    out = dynamics.evolve_full_schedule(psi, [(dynamics.LocalHamiltonian(0.3, np.zeros(3)), 1.0)],
                                        [(dynamics.ZERO_HAMILTONIAN, 1.0)])
    det = out[0] * out[3] - out[1] * out[2]
    signal = float(abs(det.imag))
    results.append(PropertyResult("scalar_part_moves_det_phase", signal, 1e-6,
                                  signal > 1e-6, "expects a nonzero imaginary part"))

    return results


# --------------------------------------------------------------------- born

def born_suite(trials: int, seed: int) -> list[PropertyResult]:
    results = []
    rng = np.random.default_rng(seed)
    corpus = measurement.sample_haar(trials, seed)

    worst_eq, worst_sum, worst_forms = 0.0, 0.0, 0.0
    for psi in corpus:
        qubit = int(rng.integers(1, 3))
        z = rng.standard_normal(4)
        direction = z[0::2] + 1j * z[1::2]
        direction /= np.linalg.norm(direction)
        d = states.decompose(psi)
        spinor = d.spinor1 if qubit == 1 else d.spinor2
        p_full = measurement.born_full(psi, qubit, direction)
        p_local = measurement.born_local(d.chi, spinor, direction)
        worst_eq = max(worst_eq, abs(p_full - p_local))
        worst_sum = max(worst_sum, abs(
            p_full + measurement.born_full(psi, qubit, states.parity(direction)) - 1.0))
        keep = abs(np.vdot(direction, spinor)) ** 2
        flip = abs(np.vdot(direction, states.parity(spinor))) ** 2
        two_term = np.cos(d.chi / 2) ** 2 * keep + np.sin(d.chi / 2) ** 2 * flip
        reduced = np.cos(d.chi) * keep + np.sin(d.chi / 2) ** 2
        worst_forms = max(worst_forms, abs(two_term - reduced))
    results.append(_result("local_rule_equals_full_rule", worst_eq, 1e-12))
    results.append(_result("antipodal_probabilities_sum_to_one", worst_sum, 1e-12))
    results.append(_result("two_term_and_reduced_forms_agree", worst_forms, 1e-12))

    again = measurement.sample_haar(trials, seed)
    identical = bool(np.array_equal(corpus, again))
    worst_inv = 0.0
    for psi in corpus:
        det = psi[0] * psi[3] - psi[1] * psi[2]
        worst_inv = max(worst_inv, abs(float(np.real(np.vdot(psi, psi))) - 1.0),
                        float(abs(det.imag)), float(max(-det.real, 0.0)))
    results.append(PropertyResult("sampler_deterministic_and_canonical", worst_inv, 1e-12,
                                  bool(identical and worst_inv <= 1e-12),
                                  "same seed must reproduce bit-identical states"))
    return results


# ----------------------------------------------------------------- appendix

def appendix_suite(trials: int, seed: int) -> list[PropertyResult]:
    results = []
    rng = np.random.default_rng(seed)
    sets = band_angle_sets(trials, seed)
    grid = np.linspace(0.0, 1.0, 50)

    worst_resid, worst_slope = 0.0, 0.0
    for i, ang in enumerate(sets):
        psi = states.state_from_angles(ang)
        energy = float(rng.uniform(0.5, 2.0))
        slope, resid = dynamics.recurrence_drift(psi, 1 + i % 2, energy, grid)
        worst_resid = max(worst_resid, resid)
        worst_slope = max(worst_slope, abs(abs(slope) - 2.0 * energy))
    results.append(_result("gamma_drift_is_linear", worst_resid, 1e-8))
    results.append(_result("drift_slope_is_twice_energy", worst_slope, 1e-6))

    worst_cancel, worst_compound = 0.0, 0.0
    for ang in sets:
        psi = states.state_from_angles(ang)
        e1, e2 = (float(rng.uniform(0.3, 1.2)) for _ in range(2))
        worst_cancel = max(worst_cancel, abs(
            dynamics.compound_rotation_check(psi, e1, e1, 0.3, same_handed=False)))
        delta = dynamics.compound_rotation_check(psi, e1, e2, 0.1, same_handed=True)
        worst_compound = max(worst_compound, abs(abs(delta) - 2.0 * (e1 + e2) * 0.1))
    results.append(_result("opposite_rotations_cancel", worst_cancel, 1e-8))
    results.append(_result("same_handed_rotations_compound", worst_compound, 1e-6))

    worst = 0.0
    for ang in sets:
        psi = states.state_from_angles(ang)
        coeffs, basis = dynamics.aligned_mode_coefficients(psi)
        rebuilt = basis.T @ coeffs
        worst = max(worst, float(np.max(np.abs(rebuilt - psi))))
        # closed-form coefficients of the four aligned modes
        cc, sc = np.cos(ang.chi / 2), np.sin(ang.chi / 2)
        c2, s2 = np.cos(ang.theta2 / 2), np.sin(ang.theta2 / 2)
        em, ep = np.exp(-0.5j * ang.phi2), np.exp(0.5j * ang.phi2)
        eg, egc = np.exp(0.5j * ang.gamma), np.exp(-0.5j * ang.gamma)
        expected = np.array([cc * c2 * em * eg, cc * s2 * ep * eg,
                             sc * s2 * em * egc, -sc * c2 * ep * egc])
        worst = max(worst, float(np.max(np.abs(coeffs - expected))))
    results.append(_result("aligned_mode_expansion_complete", worst, 1e-12))

    return results


SUITES = {
    "roundtrip": roundtrip_suite,
    "dynamics": dynamics_suite,
    "born": born_suite,
    "appendix": appendix_suite,
}


def run_suite(name: str, trials: int, seed: int) -> list[PropertyResult]:
    """Run one named suite, or all of them in order."""
    if name == "all":
        out = []
        for i, suite in enumerate(SUITES.values()):
            out.extend(suite(trials, seed + 1000 * i))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; pick from {sorted(SUITES)} or 'all'")
    return SUITES[name](trials, seed)
