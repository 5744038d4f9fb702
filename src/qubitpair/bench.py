"""Head-to-head timing of the full and two-spinor evolution backends.

Times the public evolve_full_schedule and evolve_separable_state calls,
both from the state to the state, on one seeded piecewise-constant
Schedule pair, the input form ``evolve`` reads from its files (monotonic
clock, median across trials).  End states are compared exactly, ledger
phase applied, so the timings describe equivalent computations.  The
speedup is informational: on 2x2 operands, constant per-call overheads
can dominate.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from .dynamics import Schedule, backends_agree, evolve_full_schedule, evolve_separable_state
from .measurement import sample_haar

LOW_CONFIDENCE_STEPS = 1000


@dataclasses.dataclass
class BenchReport:
    steps: int
    trials: int
    ns_per_step_full: float
    ns_per_step_separable: float
    speedup: float
    max_deviation: float
    status: str             # VALID iff backends_agree(max_deviation): below 1e-9
    timing_confidence: str  # LOW_CONFIDENCE below 1000 steps


def _make_schedule(rng: np.random.Generator, steps: int) -> tuple[Schedule, Schedule]:
    """Two Schedules drawn per step as h1, v1, h2, v2 and the one dt step k of both shares."""
    rows = np.array([(rng.normal(), *rng.normal(size=3), rng.normal(), *rng.normal(size=3),
                      rng.uniform(0.01, 0.1)) for _ in range(steps)]).reshape(-1, 9)
    return (Schedule(rows[:, 0], rows[:, 1:4], rows[:, 8]),
            Schedule(rows[:, 4], rows[:, 5:8], rows[:, 8]))


def run_benchmark(steps: int, trials: int, seed: int) -> BenchReport:
    """Time `steps` evolution steps on each backend, `trials` times."""
    if steps < 1 or trials < 1:
        raise ValueError("steps and trials must be at least 1")
    rng = np.random.default_rng(seed)
    schedule1, schedule2 = _make_schedule(rng, steps)
    psi0 = sample_haar(1, seed)[0]

    full_ns, sep_ns, deviations = [], [], []
    for _ in range(trials):
        start = time.perf_counter_ns()
        psi_full = evolve_full_schedule(psi0, schedule1, schedule2)
        mid = time.perf_counter_ns()
        psi_sep = evolve_separable_state(psi0, schedule1, schedule2)[2]
        end = time.perf_counter_ns()
        deviations.append(float(np.max(np.abs(psi_full - psi_sep))))
        full_ns.append((mid - start) / steps)
        sep_ns.append((end - mid) / steps)

    ns_full = float(np.median(full_ns))
    ns_sep = float(np.median(sep_ns))
    max_dev = max(deviations)
    return BenchReport(
        steps=steps,
        trials=trials,
        ns_per_step_full=ns_full,
        ns_per_step_separable=ns_sep,
        speedup=ns_full / ns_sep if ns_sep > 0 else float("inf"),
        max_deviation=max_dev,
        status="VALID" if backends_agree(max_dev) else "INVALID",
        timing_confidence="OK" if steps >= LOW_CONFIDENCE_STEPS else "LOW_CONFIDENCE",
    )
