"""End-to-end acceptance checks.

One test per criterion, each at its full sample count and tolerance, each
printing a single PASS/FAIL summary line (visible with -rA or -s).  These
are the exit criteria for the package; the faster unit suites exist for
development iteration.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

import qubitpair as qp
from qubitpair.cli import main as cli_main
from qubitpair.verify import band_angle_sets, random_schedule
from oracles import unit_spinor

SQ2 = 1.0 / np.sqrt(2.0)
SINGLET = np.array([0.0, SQ2, -SQ2, 0.0], dtype=complex)


def report(num, name, worst, tol, ok, elapsed=None):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} {name}: worst={worst:.3e} tol={tol:.0e}"
    if elapsed is not None:
        line += f" time={elapsed:.1f}s"
    print(line)
    assert ok, line


def circ(a, b):
    return abs(qp.wrap_angle(a - b))


def test_acceptance_1_decomposition_round_trip():
    t0 = time.perf_counter()
    corpus = [qp.sample_haar(10_000, 2024)]
    for i, chi in enumerate((0.0, 0.3, np.pi / 4, np.pi / 2)):
        corpus.append(qp.sample_fixed_concurrence(250, 3000 + i, chi))
    worst = 0.0
    for psi in np.vstack(corpus):
        worst = max(worst, float(np.max(np.abs(qp.reconstruct(qp.decompose(psi)) - psi))))
    elapsed = time.perf_counter() - t0
    report(1, "decomposition round trip (10^4 Haar + 10^3 fixed-chi)",
           worst, 1e-10, worst < 1e-10 and elapsed < 10.0, elapsed)


def test_acceptance_2_angle_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    worst_sine = 0.0
    for ang in band_angle_sets(10_000, 2025):
        psi = qp.state_from_angles(ang)
        got = qp.angles_from_state(psi)
        worst = max(worst, abs(got.chi - ang.chi), abs(got.theta1 - ang.theta1),
                    abs(got.theta2 - ang.theta2), circ(got.phi1, ang.phi1),
                    circ(got.phi2, ang.phi2), circ(got.gamma, ang.gamma))
        worst_sine = max(worst_sine, abs(np.sin(got.gamma) - qp.recurrence_sine(psi)))
    elapsed = time.perf_counter() - t0
    report(2, "angle round trip + sine-quotient cross-check (10^4 sets)",
           max(worst, worst_sine), 1e-9,
           worst < 1e-9 and worst_sine < 1e-9 and elapsed < 10.0, elapsed)


@pytest.fixture(scope="module")
def dynamics_trials():
    rng = np.random.default_rng(2026)
    worst_dev = 0.0
    worst_dc = 0.0
    t0 = time.perf_counter()
    for i, psi in enumerate(qp.sample_haar(1000, 2027)):
        scalar = i % 2 == 0  # half the trials exercise nonzero h_i
        rep = qp.compare_backends(psi, random_schedule(rng, 10, scalar),
                                  random_schedule(rng, 10, scalar))
        worst_dev = max(worst_dev, rep.max_component_deviation)
        worst_dc = max(worst_dc, abs(qp.concurrence(rep.final_state_full)
                                     - qp.concurrence(psi)),
                       abs(qp.concurrence(rep.final_state_separable)
                           - qp.concurrence(psi)))
    return worst_dev, worst_dc, time.perf_counter() - t0


def test_acceptance_3_separable_dynamics_equivalence(dynamics_trials):
    worst_dev, _, elapsed = dynamics_trials
    report(3, "separable vs full backend (10^3 trials x 10 steps, mixed h_i)",
           worst_dev, 1e-9, worst_dev < 1e-9 and elapsed < 30.0, elapsed)


def test_acceptance_4_concurrence_invariance(dynamics_trials):
    _, worst_dc, _ = dynamics_trials
    report(4, "concurrence invariance across all dynamics trials",
           worst_dc, 1e-12, worst_dc < 1e-12)


def test_acceptance_5_appendix_linear_drift():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2028)
    grid = np.linspace(0.0, 1.0, 50)
    worst_resid = worst_slope = worst_spread = worst_cancel = 0.0
    compound_floor = np.inf
    for i, ang in enumerate(band_angle_sets(100, 2029)):
        psi = qp.state_from_angles(ang)
        energy = float(rng.uniform(0.5, 1.5))
        qubit = 1 + i % 2
        slope, resid = qp.recurrence_drift(psi, qubit, energy, grid)
        worst_resid = max(worst_resid, resid)
        worst_slope = max(worst_slope, abs(abs(slope) - 2 * energy))
        # constancy of the other five angles, measured directly on the grid
        h = qp.aligned_hamiltonian(
            qp.state_bloch_vector(psi, qubit)
            / np.linalg.norm(qp.state_bloch_vector(psi, qubit)), energy)
        h1, h2 = (h, qp.ZERO_HAMILTONIAN) if qubit == 1 else (qp.ZERO_HAMILTONIAN, h)
        records = [qp.angles_from_state(qp.evolve_full_schedule(psi, [(h1, t)], [(h2, t)]))
                   for t in grid[::10]]
        for field in ("chi", "theta1", "theta2"):
            vals = [getattr(r, field) for r in records]
            worst_spread = max(worst_spread, max(vals) - min(vals))
        for field in ("phi1", "phi2"):
            vals = [getattr(r, field) for r in records]
            worst_spread = max(worst_spread, max(circ(v, vals[0]) for v in vals))
        e1, e2 = (float(rng.uniform(0.3, 1.2)) for _ in range(2))
        worst_cancel = max(worst_cancel, abs(
            qp.compound_rotation_check(psi, e1, e1, 0.3, same_handed=False)))
        delta = qp.compound_rotation_check(psi, e1, e2, 0.1, same_handed=True)
        assert abs(abs(delta) - 2 * (e1 + e2) * 0.1) < 1e-6
        compound_floor = min(compound_floor, abs(delta))
    elapsed = time.perf_counter() - t0
    ok = (worst_resid < 1e-8 and worst_slope < 1e-6 and worst_spread < 1e-8
          and worst_cancel < 1e-8 and compound_floor > 0.1 and elapsed < 60.0)
    report(5, "aligned drift linear, |slope|=2E, five angles constant, "
              "opposite cancels, same-handed compounds",
           max(worst_resid, worst_slope, worst_spread, worst_cancel), 1e-6, ok, elapsed)


def test_acceptance_6_born_rule_variant():
    rng = np.random.default_rng(2030)
    worst = 0.0
    for psi in qp.sample_haar(10_000, 2031):
        qubit = int(rng.integers(1, 3))
        z = rng.standard_normal(4)
        direction = unit_spinor(z[0::2] + 1j * z[1::2])
        d = qp.decompose(psi)
        spinor = d.spinor1 if qubit == 1 else d.spinor2
        worst = max(worst, abs(qp.born_full(psi, qubit, direction)
                               - qp.born_local(d.chi, spinor, direction)))
    # chi = 0 reduces to the ordinary rule; chi = pi/2 is exactly 1/2
    for _ in range(200):
        s = unit_spinor(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        direction = unit_spinor(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        worst = max(worst,
                    abs(qp.born_local(0.0, s, direction) - abs(np.vdot(direction, s)) ** 2),
                    abs(qp.born_local(np.pi / 2, s, direction) - 0.5))
    report(6, "local Born variant equals the full rule (10^4 trials + limits)",
           worst, 1e-12, worst < 1e-12)


def test_acceptance_7_singlet_narrative():
    d = qp.decompose(SINGLET)
    worst = float(np.max(np.abs(qp.reconstruct(d) - SINGLET)))
    worst = max(worst, float(np.max(np.abs(d.spinor2 - (-qp.parity(d.spinor1))))))
    rotated = qp.reconstruct(dataclasses.replace(d, spinor1=1j * d.spinor1))
    worst = max(worst, float(np.max(np.abs(rotated - 1j * np.array([0, SQ2, SQ2, 0])))))
    report(7, "singlet: spinor2 = -P(spinor1); alpha1 += pi rotates into i(|01>+|10>)/sqrt(2)",
           worst, 1e-12, worst < 1e-12)


def test_acceptance_8_benchmark_report(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = cli_main(["bench", "--steps", "100000", "--trials", "5", "--seed", "41",
                     "--out", str(out)])
    obj = json.loads(out.read_text())
    ok = (code == 0 and obj["status"] == "VALID" and obj["max_deviation"] < 1e-9
          and obj["ns_per_step_full"] > 0 and obj["ns_per_step_separable"] > 0
          and obj["speedup"] > 0)
    with capsys.disabled():
        print(f"\nACCEPTANCE 8 {'PASS' if ok else 'FAIL'} bench 10^5 steps x 5: "
              f"{obj['ns_per_step_full']:.0f} ns/step full, "
              f"{obj['ns_per_step_separable']:.0f} ns/step separable, "
              f"speedup {obj['speedup']:.2f}x, deviation {obj['max_deviation']:.3e}")
    assert ok
