"""Command-line front end.

Subcommands: convert, decompose, evolve, verify, bench, sample.  Exit codes
are a stable contract: 0 success, 1 verification failure, 2 input or usage
error.  Machine-readable results go to stdout or --out; diagnostics and
per-property progress go to stderr.  On input errors a machine-readable
object {"error": {"code", "message"}} is emitted with exit code 2, code one
of SEPARABLE_GAMMA, MAX_ENTANGLED, PARSE.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import fileio
from .bench import run_benchmark
from .dynamics import (DEVIATION_BOUND, backends_agree, compare_backends, evolve_full_schedule,
                       evolve_separable_state)
from .measurement import sample_fixed_concurrence, sample_haar
from .states import (
    MaximalEntanglement,
    SeparableGamma,
    _check_chi,
    angles_from_state,
    decompose,
    state_from_angles,
)
from .verify import SUITES, run_suite

FORMATS = ("amplitudes", "angles", "spinors")

_ERROR_CODES = (
    (SeparableGamma, "SEPARABLE_GAMMA"),
    (MaximalEntanglement, "MAX_ENTANGLED"),
    (fileio.ParseError, "PARSE"),
)


def _emit(obj, out_path: str | None) -> None:
    if out_path:
        fileio.write_json(out_path, obj)
    else:
        sys.stdout.write(fileio.dumps(obj) + "\n")


def _fail(code: str, message: str) -> int:
    print(f"error [{code}]: {message}", file=sys.stderr)
    _emit({"error": {"code": code, "message": message}}, None)
    return 2


# the largest --count, --trials and --steps; scaled from smaller runs on a 2-vCPU host, a run
# at it peaks near 0.6 GB (sample: 187 MB at 300,000), 1 GB over ~30 min (verify) or 0.5 GB at
# ~25 s a trial (bench)
COUNT_CEILING = 10**6


def _check_count(option: str, value: int) -> None:
    if not 1 <= value <= COUNT_CEILING:
        raise fileio.ParseError(f"{option} must be in [1, {COUNT_CEILING}], got {value}")


def _check_seed(value: int) -> None:
    # numpy's seeding would refuse it later with a bare ValueError
    if value < 0:
        raise fileio.ParseError(f"--seed must be non-negative, got {value}")


def _load_state_as(path: str, fmt: str) -> np.ndarray:
    if fmt == "amplitudes":
        return fileio.load_state(path)
    if fmt == "angles":
        return state_from_angles(fileio.load_angles(path))
    return fileio.load_spinor_state(path)


def _save_state_as(path: str, fmt: str, psi: np.ndarray) -> None:
    if fmt == "amplitudes":
        fileio.save_state(path, psi)
    elif fmt == "angles":
        try:
            angles = angles_from_state(psi)
        except SeparableGamma as exc:
            # the five defined angles are still worth writing; gamma is null
            angles = exc.angles
        fileio.save_angles(path, angles)
    else:
        fileio.save_decomposition(path, decompose(psi))


def cmd_convert(args) -> int:
    psi = _load_state_as(args.in_path, args.from_fmt)
    _save_state_as(args.out_path, args.to_fmt, psi)
    return 0


def _load_tagged_schedule(path: str, expect_qubit: int):
    qubit, schedule = fileio.load_schedule(path)
    if qubit != expect_qubit:
        raise fileio.ParseError(
            f"{path}: steps are tagged qubit {qubit}, expected qubit {expect_qubit}")
    return schedule


def cmd_evolve(args) -> int:
    psi = fileio.load_state(args.in_path)
    schedule1 = _load_tagged_schedule(args.schedule1, 1)
    schedule2 = _load_tagged_schedule(args.schedule2, 2)

    if args.backend == "full":
        final = evolve_full_schedule(psi, schedule1, schedule2)
        _emit({"backend": "full", "amplitudes": fileio.pairs(final)}, args.out_path)
        return 0
    if args.backend == "separable":
        d, ledger, final = evolve_separable_state(psi, schedule1, schedule2)
        _emit({
            "backend": "separable",
            "chi": d.chi,
            "spinor1": fileio.pairs(d.spinor1),
            "spinor2": fileio.pairs(d.spinor2),
            "beta1": ledger.beta1,
            "beta2": ledger.beta2,
            "amplitudes": fileio.pairs(final),
        }, args.out_path)
        return 0

    report = compare_backends(psi, schedule1, schedule2)
    agree = backends_agree(report.max_component_deviation)
    _emit({
        "backend": "both",
        "final_state_full": fileio.pairs(report.final_state_full),
        "final_state_separable": fileio.pairs(report.final_state_separable),
        "max_component_deviation": report.max_component_deviation,
        "backends_agree": agree,
    }, args.out_path)
    if not agree:
        print(f"backends deviate by {report.max_component_deviation:.3e} "
              f"(bound {DEVIATION_BOUND:.0e})", file=sys.stderr)
        return 1
    return 0


def cmd_verify(args) -> int:
    _check_count("--trials", args.trials)
    _check_seed(args.seed)
    results = run_suite(args.suite, args.trials, args.seed)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{mark} {r.name}: worst={r.worst:.3e} tol={r.tolerance:.0e}"
              + (f"  ({r.note})" if r.note else ""), file=sys.stderr)
    ok = all(r.passed for r in results)
    _emit({
        "suite": args.suite,
        "trials": args.trials,
        "seed": args.seed,
        "passed": ok,
        "properties": [
            {"name": r.name, "worst": r.worst, "tolerance": r.tolerance, "passed": r.passed}
            for r in results
        ],
    }, args.out_path)
    return 0 if ok else 1


def cmd_bench(args) -> int:
    _check_count("--steps", args.steps)
    _check_count("--trials", args.trials)
    _check_seed(args.seed)
    report = run_benchmark(args.steps, args.trials, args.seed)
    _emit(dataclasses.asdict(report), args.out_path)
    print(f"bench: {report.ns_per_step_full:.0f} ns/step full, "
          f"{report.ns_per_step_separable:.0f} ns/step separable, "
          f"speedup {report.speedup:.2f}x, max deviation {report.max_deviation:.3e} "
          f"[{report.status}, timing {report.timing_confidence}]", file=sys.stderr)
    return 0 if report.status == "VALID" else 1


def cmd_sample(args) -> int:
    _check_count("--count", args.count)
    _check_seed(args.seed)
    if args.fixed_chi is not None:
        _check_chi(args.fixed_chi, "--fixed-chi", fileio.ParseError)
    states = (sample_haar(args.count, args.seed) if args.fixed_chi is None
              else sample_fixed_concurrence(args.count, args.seed, args.fixed_chi))
    fileio.save_state_list(args.out_path, states)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qubitpair",
        description="Two-qubit states: angle/spinor conversions, dual-backend "
                    "unitary evolution, property verification, and benchmarks.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("convert", help="convert a state file between representations")
    c.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    c.add_argument("--from", dest="from_fmt", required=True, choices=FORMATS)
    c.add_argument("--to", dest="to_fmt", required=True, choices=FORMATS)
    c.add_argument("--out", dest="out_path", required=True, metavar="PATH")
    c.set_defaults(func=cmd_convert)

    d = sub.add_parser("decompose", help="amplitudes file -> spinor decomposition file")
    d.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    d.add_argument("--out", dest="out_path", required=True, metavar="PATH")
    d.set_defaults(func=cmd_convert, from_fmt="amplitudes", to_fmt="spinors")

    e = sub.add_parser("evolve", help="run per-qubit schedules on one or both backends")
    e.add_argument("--in", dest="in_path", required=True, metavar="PATH")
    e.add_argument("--schedule1", required=True, metavar="PATH")
    e.add_argument("--schedule2", required=True, metavar="PATH")
    e.add_argument("--backend", choices=("full", "separable", "both"), default="both")
    e.add_argument("--out", dest="out_path", metavar="PATH")
    e.set_defaults(func=cmd_evolve)

    v = sub.add_parser("verify", help="run seeded property suites")
    v.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    v.add_argument("--trials", type=int, default=500,
                   help=f"trials per suite, 1 to {COUNT_CEILING} (default %(default)s)")
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--out", dest="out_path", metavar="PATH")
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="time the full vs separable backends")
    b.add_argument("--steps", type=int, default=10000,
                   help=f"steps per backend run, 1 to {COUNT_CEILING} (default %(default)s)")
    b.add_argument("--trials", type=int, default=5,
                   help=f"timed runs per backend, 1 to {COUNT_CEILING} (default %(default)s)")
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--out", dest="out_path", metavar="PATH")
    b.set_defaults(func=cmd_bench)

    s = sub.add_parser("sample", help="write seeded random states")
    s.add_argument("--count", type=int, required=True,
                   help=f"states to write, 1 to {COUNT_CEILING}")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--fixed-chi", dest="fixed_chi", type=float)
    s.add_argument("--out", dest="out_path", metavar="PATH")
    s.set_defaults(func=cmd_sample)

    return p


# built once per process: a dropped argparse parser is ~300 objects of cyclic garbage, which
# would leave every command to the cyclic collector
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except tuple(exc for exc, _ in _ERROR_CODES) as exc:
        return _fail(next(code for cls, code in _ERROR_CODES if isinstance(exc, cls)), str(exc))
    except OSError as exc:
        return _fail("PARSE", str(exc))


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
