"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

qp = run.import_package()

TINY = workloads.Sizes(schedule_steps=20, corpus=40, trials=2, setup_repeats=1)
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def _run(monkeypatch, tmp_path, workload: str, trace: int, seed: int = 3):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01",
                         "--trace", str(trace)], sizes=TINY)
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]), json.loads(lines[-2])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_prints_every_metric_with_its_unit(monkeypatch, tmp_path, workload, trace):
    code, result, report = _run(monkeypatch, tmp_path, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name
    assert report["machine"]["cpu_count"] >= 1
    assert report["inputs"]["steps_per_qubit"] == TINY.schedule_steps
    if trace:
        assert (tmp_path / "work" / "trace").is_dir()
        assert result["metrics"]["dynamics.su2_operator.calls"]["value"] > 0


def test_broken_program_cannot_post_a_number(monkeypatch, tmp_path):
    real = qp.born_local
    monkeypatch.setattr(qp, "born_local", lambda *a: real(*a) + 1e-9)
    code, result, report = _run(monkeypatch, tmp_path, "state_pipeline", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0
    assert any("born" in p for p in report["problems"])


def test_missing_package_exits_nonzero_without_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evolve_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _workload(tmp_path, seed):
    return workloads.Workload(qp, TINY, seed, tmp_path, workloads.Ledger())


def test_same_seed_gives_same_inputs(tmp_path):
    files = {}
    for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
        wl = _workload(tmp_path / tag, seed)
        wl.make_inputs()
        files[tag] = [wl.evolve_paths[k].read_bytes() for k in ("state", "schedule1", "schedule2")]
    assert files["a"] == files["b"]
    assert files["a"] != files["c"]


def test_evolve_check_rejects_one_perturbed_amplitude(tmp_path):
    wl = _workload(tmp_path, 2)
    wl.make_inputs()
    for backend in workloads.BACKENDS:
        out = wl.evolve(backend)
        assert checks.check_evolve(out, backend, wl.evolve_ref) == []
        key = "final_state_separable" if backend == "both" else "amplitudes"
        out[key][2][1] += 1e-8
        assert checks.check_evolve(out, backend, wl.evolve_ref)
    assert wl.ledger.failed == 0


def _pipeline_result(psi, qubit, direction):
    d = qp.decompose(psi)
    try:
        angles = qp.angles_from_state(psi)
    except (qp.SeparableGamma, qp.MaximalEntanglement):
        angles = None
    spinor = d.spinor1 if qubit == 1 else d.spinor2
    return [d, qp.reconstruct(d), angles, qp.born_full(psi, qubit, direction),
            qp.born_local(d.chi, spinor, direction)]


def test_pipeline_check_rejects_corrupted_outputs():
    psi = qp.sample_haar(1, 11)[0]
    edge = qp.sample_fixed_concurrence(1, 12, 0.0)[0]
    direction = np.array([0.6, 0.8j])
    good = _pipeline_result(psi, 2, direction)
    assert checks.check_pipeline_state(psi, False, 2, direction, good) == []
    assert checks.check_pipeline_state(edge, True, 1, direction,
                                       _pipeline_result(edge, 1, direction)) == []

    rebuilt = good[1].copy()
    rebuilt[3] += 1e-9
    bad_angles = dataclasses.replace(good[2], gamma=good[2].gamma + 1e-6)
    for index, value in ((1, rebuilt), (2, bad_angles), (2, None), (3, good[3] + 1e-11),
                         (4, good[4] - 1e-11)):
        bad = list(good)
        bad[index] = value
        assert checks.check_pipeline_state(psi, False, 2, direction, bad), index
    assert checks.check_pipeline_state(psi, True, 2, direction, good)


def test_verify_check_rejects_failures_and_loosened_tolerances(tmp_path):
    out_path = tmp_path / "verify.json"
    with contextlib.redirect_stderr(io.StringIO()):
        assert qp.cli.main(["verify", "--suite", "all", "--trials", "2", "--seed", "4",
                            "--out", str(out_path)]) == 0
    out = json.loads(out_path.read_text())
    assert checks.check_verify(out) == []
    assert checks.check_verify({**out, "passed": False})
    loosened = json.loads(out_path.read_text())
    for p in loosened["properties"]:
        if p["name"] == "backend_equivalence":
            p["tolerance"] = 1e-6
    assert checks.check_verify(loosened)


def test_state_list_check_needs_bit_exact_reload(tmp_path):
    states = qp.sample_haar(3, 1)
    path = tmp_path / "corpus.json"
    qp.fileio.save_state_list(path, states)
    assert checks.check_state_list_file(path, states) == []
    states[1, 2] += 1e-15
    assert checks.check_state_list_file(path, states)


def test_tracer_records_nested_spans_and_restores_originals():
    tracer = tracing.Tracer("test")
    original = qp.dynamics.local_unitary
    psi = qp.sample_haar(1, 3)[0]
    h = qp.LocalHamiltonian(0.2, [0.1, 0.0, 0.5])
    with tracer.installed():
        assert qp.dynamics.local_unitary is not original
        qp.dynamics.evolve_full_schedule(psi, [(h, 0.1)] * 3, [(h, 0.2)] * 2)
        with pytest.raises(qp.SeparableGamma):
            qp.angles_from_state(qp.sample_fixed_concurrence(1, 1, 0.0)[0])
    assert qp.dynamics.local_unitary is original
    assert qp.verify.SUITES["roundtrip"] is qp.verify.roundtrip_suite
    summary = tracer.summary()
    funcs = summary["functions"]
    assert funcs["dynamics.evolve_full_schedule"]["units"] == 3
    assert funcs["dynamics.local_unitary"]["calls"] == 5
    assert funcs["dynamics.su2_operator"]["calls"] == 5
    assert funcs["states.angles_from_state"]["failed"] == 1
    names = [tracer.names[i] for i in tracer.name]
    outer = names.index("dynamics.evolve_full_schedule")
    assert tracer.parent[names.index("dynamics.local_unitary")] == outer
    layer = summary["layers"]["dynamics"]
    assert 0 < layer["self_ns"] <= funcs["dynamics.evolve_full_schedule"]["ns"]
