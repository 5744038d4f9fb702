"""qubitpair benchmark: seeded workloads, checked outputs, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload evolve_long --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics from a
run that alternates untraced and traced cycles (spans go to
``.perfbench_work/trace/``).  Metric names, units and the reason for each
workload are in BENCHMARK.json and perfbench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; the operations are on 2- and 4-element arrays,
# so extra BLAS threads only add noise.  Applies to this process and its
# children, nothing else.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
_INHERITED_THREADS = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
os.environ.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "evolve_full_steps_per_s": "steps/s",
    "evolve_separable_steps_per_s": "steps/s",
    "evolve_both_steps_per_s": "steps/s",
    "states_per_s": "states/s",
    "verify_s": "s",
}

# A fresh interpreter: import the package and make a first call, a one-step
# evolve on both backends.  This is what every command-line user pays.
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import qubitpair.cli
raise SystemExit(qubitpair.cli.main(sys.argv[2:]))
"""


def machine_info() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError, AttributeError):  # numpy before 1.25 has no dict mode
        pass
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "loadavg_at_start": list(os.getloadavg()),
        "blas_threads": {"pinned_to": int(BLAS_THREADS), "inherited": _INHERITED_THREADS},
    }


def import_package():
    if not (SRC / "qubitpair" / "__init__.py").is_file():
        raise ImportError(f"no package source at {SRC / 'qubitpair'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qubitpair
    import qubitpair.cli
    import qubitpair.fileio
    if Path(qubitpair.__file__).resolve().parent != SRC / "qubitpair":
        raise ImportError(f"qubitpair was imported from {qubitpair.__file__}, not {SRC}")
    return qubitpair


def measure_setup(wl: workloads.Workload, repeats: int) -> None:
    """Time fresh interpreters that import the package and make a first call."""
    paths, reference = wl.write_schedule_inputs(wl.work / "setup", 1, wl.seed)
    out_path = wl.work / "setup" / "out.json"
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), "evolve",
            "--in", str(paths["state"]), "--schedule1", str(paths["schedule1"]),
            "--schedule2", str(paths["schedule2"]), "--backend", "both", "--out", str(out_path)]
    for i in range(repeats + 1):   # the first one warms the bytecode cache, untimed
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                                  cwd=wl.work)
        except subprocess.TimeoutExpired:
            wl.ledger.record("setup", ["fresh interpreter did not finish in 120 s"])
            continue
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            problems = [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        else:
            try:
                out = json.loads(out_path.read_text(encoding="utf-8"))
                problems = checks.check_evolve(out, "both", reference)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc}"]
        if wl.ledger.record("setup", problems) and i:
            wl.ledger.sample("setup", elapsed)


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def spread(values) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": median(values), "samples": values}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": median(values), "q1": q1, "q3": q3,
            "samples": values}


def p90(values) -> float:
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end_metrics(ledger: workloads.Ledger, sizes: workloads.Sizes) -> dict:
    """Command metrics come from the 90th percentile of their times.

    On a host whose cores are shared with other tenants the same command's
    time can swing by up to 2x within seconds (seen on a 2-vCPU cloud VM
    with CPython 3.11 and numpy 2.4).  The median then follows the share of
    the run spent in the fast phases, which differs from run to run.  The
    slow phases show up in nearly every run, and the 90th percentile, which
    tracks them, repeats two to three times better.
    """
    t = ledger.samples
    values = {
        "setup_s": median(t.get("setup", [])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "states_per_s": ratio(sizes.corpus, p90(t.get("state_pipeline", []))),
        "verify_s": p90(t.get("verify", [])),
    }
    for backend in workloads.BACKENDS:
        values[f"evolve_{backend}_steps_per_s"] = ratio(
            sizes.schedule_steps, p90(t.get(f"evolve_{backend}", [])))
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


# (function span, statistic) for the per-function metrics
PER_FUNCTION = [
    ("dynamics.su2_operator", "ns_per_call"),
    ("dynamics.local_unitary", "ns_per_call"),
    ("dynamics.evolve_full_schedule", "ns_per_step"),
    ("dynamics.evolve_separable_schedule", "ns_per_step"),
    ("dynamics.compare_backends", "ns_per_step"),
    ("dynamics.recurrence_drift", "ns_per_call"),
    ("states.decompose", "ns_per_call"),
    ("states.reconstruct", "ns_per_call"),
    ("states.angles_from_state", "ns_per_call"),
    ("states.state_from_angles", "ns_per_call"),
    ("measurement.sample_haar", "ns_per_state"),
    ("measurement.sample_fixed_concurrence", "ns_per_state"),
    ("measurement.born_full", "ns_per_call"),
    ("measurement.born_local", "ns_per_call"),
    ("fileio.load_schedule", "ns_per_entry"),
    ("fileio.save_state_list", "ns_per_state"),
]
VERIFY_SUITES = ("roundtrip", "dynamics", "born", "appendix")
SELF_TIME_LAYERS = ("dynamics", "states", "measurement", "fileio", "verify", "cli")


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for func, stat in PER_FUNCTION:
        units[f"{func}.{stat}"] = "ns"
        units[f"{func}.calls"] = "calls/cycle"
        if func.startswith("fileio."):
            units[f"{func}.bytes"] = "B"
    units["states.angles_from_state.refusal_ratio"] = "ratio"
    for suite in VERIFY_SUITES:
        units[f"verify.{suite}.s"] = "s"
    for layer in SELF_TIME_LAYERS:
        units[f"{layer}.self_s"] = "s/cycle"
    units["cli.calls"] = "calls/cycle"
    units["state_pipeline.latency_us.p50"] = "us"
    units["state_pipeline.latency_us.p99"] = "us"
    units["trace.overhead_pct"] = "%"
    return units


def per_layer_metrics(summary: dict, latency_ns: list[int], untraced: list[float],
                      traced: list[float]) -> dict:
    funcs = summary["functions"]
    cycles = max(summary["traced_cycles"], 1)
    empty = {"calls": 0, "ns": 0, "units": 0, "bytes": 0, "failed": 0}
    values = {}
    for func, stat in PER_FUNCTION:
        f = funcs.get(func, empty)
        per = "calls" if stat == "ns_per_call" else "units"
        values[f"{func}.{stat}"] = ratio(f["ns"], f[per])
        values[f"{func}.calls"] = f["calls"] / cycles
        if func.startswith("fileio."):
            values[f"{func}.bytes"] = ratio(f["bytes"], f["calls"])
    angles = funcs.get("states.angles_from_state", empty)
    values["states.angles_from_state.refusal_ratio"] = ratio(angles["failed"], angles["calls"])
    for suite in VERIFY_SUITES:
        f = funcs.get(f"verify.{suite}", empty)
        values[f"verify.{suite}.s"] = ratio(f["ns"], f["calls"]) / 1e9
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}.self_s"] = summary["layers"].get(layer, {"self_ns": 0})["self_ns"] / cycles / 1e9
    values["cli.calls"] = funcs.get("cli.main", empty)["calls"] / cycles
    if latency_ns:
        p = np.percentile(np.asarray(latency_ns, dtype=float) / 1e3, [50, 99])
        values["state_pipeline.latency_us.p50"] = float(p[0])
        values["state_pipeline.latency_us.p99"] = float(p[1])
    values["trace.overhead_pct"] = (ratio(median(traced), median(untraced)) - 1.0) * 100.0
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in per_layer_units().items()}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None, sizes: workloads.Sizes | None = None) -> int:
    args = parse_args(argv)
    try:
        qp = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    machine = machine_info()
    sizes = sizes or workloads.WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_id = f"{tag}-{os.getpid()}-{time.time_ns()}"
    ledger = workloads.Ledger()
    work = WORK / f"run-{run_id}"
    work.mkdir(parents=True)
    tracer = tracing.Tracer(run_id) if args.trace else None
    untraced, traced, latency = [], [], []
    try:
        wl = workloads.Workload(qp, sizes, args.seed, work, ledger)
        inputs = wl.make_inputs()
        measure_setup(wl, sizes.setup_repeats)
        min_cycles = 2 if tracer else 1
        deadline = time.perf_counter() + args.seconds
        index = 0
        while index < min_cycles or time.perf_counter() < deadline:
            is_traced = tracer is not None and index % 2 == 1
            if is_traced:
                with tracer.installed():
                    traced.append(wl.cycle(index, keep_latency=None))
            else:
                untraced.append(wl.cycle(index, keep_latency=latency))
            index += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    inputs["edge_band_share"] = wl.refusals / max(wl.pipeline_states, 1)

    report = {
        "benchmark": "qubitpair", "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "cycles": index,
        "machine": machine, "inputs": inputs,
        "timings": {name: spread(v) for name, v in ledger.samples.items()},
        "problems": ledger.problems,
    }
    if tracer:
        summary = tracer.summary()
        metrics = per_layer_metrics(summary, latency, untraced, traced)
        trace_dir = WORK / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans_path = trace_dir / f"{tag}.spans.tsv.gz"
        summary_path = trace_dir / f"{tag}.summary.json"
        tracer.write_spans(spans_path)
        summary_path.write_text(json.dumps(summary, indent=1))
        report["trace_summary"] = {"spans": summary["spans"], "layers": summary["layers"],
                                   "files": [str(spans_path), str(summary_path)]}
    else:
        metrics = end_to_end_metrics(ledger, sizes)
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps({**report, "result": result}, indent=1))
    for problem in ledger.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
