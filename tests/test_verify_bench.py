import dataclasses
from dataclasses import astuple

import numpy as np
import pytest

import qubitpair as qp
from qubitpair.bench import _make_schedule, run_benchmark
from qubitpair.verify import SUITES, band_angle_sets, random_schedule, run_suite
from oracles import uniform_angle_sets


def assert_same_schedule(got, expected):
    assert type(got) is qp.Schedule
    for name in ("h", "v", "dt"):
        assert np.array_equal(getattr(got, name), getattr(expected, name))


@pytest.mark.parametrize("steps", [0, 1, 10])
@pytest.mark.parametrize("scalar", [True, False])
def test_verify_schedule_keeps_its_draw_order(steps, scalar):
    # per step: h_i (drawn only if scalar), v, then dt, one checked Hamiltonian per step
    rng = np.random.default_rng(61 + steps)
    expected = []
    for _ in range(steps):
        h_i = float(rng.normal()) if scalar else 0.0
        expected.append((qp.LocalHamiltonian(h_i, rng.normal(size=3)),
                         float(rng.uniform(0.01, 0.3))))
    got = random_schedule(np.random.default_rng(61 + steps), steps, scalar)
    assert_same_schedule(got, qp.as_schedule(expected))


@pytest.mark.parametrize("count, seed", [(30, 7), (40, 61), (5000, 1)])
def test_band_angle_sets_keep_six_scalar_draws_per_set(count, seed):
    # per set, six rng.uniform calls: chi, theta1, phi1, theta2, phi2, gamma
    got = band_angle_sets(count, seed)
    assert got == uniform_angle_sets(count, seed)
    assert all(type(x) is float for a in got for x in astuple(a))


@pytest.mark.parametrize("steps", [0, 1, 10])
def test_bench_schedules_keep_their_draw_order(steps):
    # per step: h1, v1, h2, v2, then the dt both qubits share
    rng = np.random.default_rng(71 + steps)
    draws = [(qp.LocalHamiltonian(float(rng.normal()), rng.normal(size=3)),
              qp.LocalHamiltonian(float(rng.normal()), rng.normal(size=3)),
              float(rng.uniform(0.01, 0.1))) for _ in range(steps)]
    got = _make_schedule(np.random.default_rng(71 + steps), steps)
    assert_same_schedule(got[0], qp.as_schedule([(h1, dt) for h1, _, dt in draws]))
    assert_same_schedule(got[1], qp.as_schedule([(h2, dt) for _, h2, dt in draws]))


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes_at_small_scale(name):
    results = run_suite(name, 60, 7)
    assert results
    for r in results:
        assert r.passed, f"{r.name}: worst={r.worst:.3e} tol={r.tolerance:.0e}"


def test_all_runs_every_suite():
    names = {r.name for r in run_suite("all", 20, 3)}
    for suite in SUITES.values():
        for r in suite(20, 3):
            assert r.name in names


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", 10, 1)


def test_benchmark_report_fields():
    report = run_benchmark(steps=400, trials=3, seed=5)
    assert report.status == "VALID"
    assert report.max_deviation < 1e-9
    assert report.ns_per_step_full > 0 and report.ns_per_step_separable > 0
    assert report.speedup == pytest.approx(
        report.ns_per_step_full / report.ns_per_step_separable)
    d = dataclasses.asdict(report)
    assert set(d) == {"steps", "trials", "ns_per_step_full", "ns_per_step_separable",
                      "speedup", "max_deviation", "status", "timing_confidence"}


def test_benchmark_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_benchmark(steps=0, trials=1, seed=1)


def test_benchmark_math_path_deterministic():
    a = run_benchmark(steps=200, trials=2, seed=9)
    b = run_benchmark(steps=200, trials=2, seed=9)
    assert a.max_deviation == b.max_deviation
