#!/usr/bin/env python3
"""Timing the full backend against the two-spinor backend.

Both walk the same seeded schedule of piecewise-constant local
Hamiltonians; the full backend applies each step's two 2x2 unitaries to
the amplitude matrix (M <- U1 M U2^T), the separable one composes each
qubit's steps into one SU(2) and rotates each spinor once.  End
states are compared exactly before any number is reported.  The speedup is
whatever it is on this machine; correctness is the asserted part.
"""

import qubitpair as qp


def main():
    for steps in (2_000, 20_000):
        report = qp.run_benchmark(steps=steps, trials=5, seed=17)
        print(f"steps = {report.steps}, trials = {report.trials}"
              f" [{report.timing_confidence}]")
        print(f"  full backend:      {report.ns_per_step_full:10.0f} ns/step")
        print(f"  separable backend: {report.ns_per_step_separable:10.0f} ns/step")
        print(f"  speedup:           {report.speedup:10.2f}x")
        print(f"  max deviation:     {report.max_deviation:10.3e}  -> {report.status}")
        print()
    print("equal math, different arithmetic volume; the deviation line is the")
    print("point, the speedup line is the bonus")


if __name__ == "__main__":
    main()
