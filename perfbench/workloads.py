"""Seeded inputs and the timed operations of the three workloads.

Every workload runs the same cycle of user operations, each through the
package's public API or its CLI entry point ``qubitpair.cli.main``:

1. ``evolve`` on the workload's schedule files, once per backend
   (full, separable, both);
2. one ``state_pipeline`` pass: sample a corpus, save it with
   ``fileio.save_state_list``, and take every state through decompose ->
   reconstruct -> angles_from_state -> born_full + born_local;
3. ``verify --suite all``.

The workloads differ in their input sizes, which decide where the time
goes (see README.md in this directory for the reasons).  Inputs come from
the run seed only, so the same seed gives the same inputs.  Each operation
is timed on its own and then checked against ``checks``; a failed
operation is counted, never dropped.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import time
from pathlib import Path

import numpy as np

import checks

EDGE_CHIS = (0.0, 0.3, np.pi / 4, np.pi / 2)
REFUSED_CHIS = (0.0, np.pi / 2)   # angles_from_state must refuse these edge bands
BACKENDS = ("full", "separable", "both")


@dataclasses.dataclass(frozen=True)
class Sizes:
    schedule_steps: int   # entries per qubit schedule file
    corpus: int           # states per pipeline pass, edge states included
    trials: int           # verify --trials
    setup_repeats: int = 7


WORKLOADS = {
    "evolve_long": Sizes(schedule_steps=2000, corpus=200, trials=5),
    "state_pipeline": Sizes(schedule_steps=200, corpus=600, trials=5),
    "verify_all": Sizes(schedule_steps=200, corpus=200, trials=30),
}


class Ledger:
    """Attempted and failed operations, the problems seen, and the seconds
    each passing operation took."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def check(self, what: str, check, *args) -> bool:
        """Record the outcome of ``check(*args)``; a check that raises fails."""
        try:
            problems = check(*args)
        except Exception as exc:  # malformed output from the program under test
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        return self.record(what, problems)

    def sample(self, operation: str, seconds: float) -> None:
        self.samples.setdefault(operation, []).append(seconds)


def _random_schedule(rng: np.random.Generator, steps: int):
    h = rng.normal(size=steps)
    v = rng.normal(size=(steps, 3))
    dt = rng.uniform(0.01, 0.1, size=steps)
    return h, v, dt


def edge_count(sizes: Sizes) -> int:
    return max(sizes.corpus // 40, 1)


class Workload:
    """Inputs of one run and the operations of one cycle."""

    def __init__(self, qp, sizes: Sizes, seed: int, work: Path, ledger: Ledger):
        self.qp = qp
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.ledger = ledger
        self.refusals = 0
        self.pipeline_states = 0
        self.timed_s = 0.0

    # ----------------------------------------------------------- inputs

    def write_schedule_inputs(self, directory: Path, steps: int, seed: int):
        """A Haar state and two schedule files; returns (paths, reference)."""
        qp = self.qp
        directory.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 1])
        psi = qp.sample_haar(1, seed)[0]
        schedules = [_random_schedule(rng, steps) for _ in range(2)]
        paths = {"state": directory / "state.json"}
        qp.fileio.save_state(paths["state"], psi)
        for qubit, (h, v, dt) in enumerate(schedules, start=1):
            paths[f"schedule{qubit}"] = directory / f"schedule{qubit}.json"
            qp.fileio.save_schedule(paths[f"schedule{qubit}"], qubit, [
                (qp.LocalHamiltonian(float(hk), vk), float(dk)) for hk, vk, dk in zip(h, v, dt)])
        return paths, checks.evolve_reference(psi, *schedules)

    def make_inputs(self) -> dict:
        """Write the evolve inputs; return the input properties a claim cites."""
        self.evolve_paths, self.evolve_ref = self.write_schedule_inputs(
            self.work / "evolve", self.sizes.schedule_steps, self.seed)
        edge = edge_count(self.sizes)
        return {
            "steps_per_qubit": self.sizes.schedule_steps,
            "schedule_bytes": sum(self.evolve_paths[k].stat().st_size
                                  for k in ("schedule1", "schedule2")),
            "corpus_states": self.sizes.corpus,
            "corpus_pinned_per_chi": {f"{chi:.6f}": edge for chi in EDGE_CHIS},
            "verify_trials": self.sizes.trials,
        }

    # ------------------------------------------------------- operations

    def _cli(self, argv: list[str]) -> tuple[int, float, str]:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = self.qp.cli.main(argv)
            elapsed = time.perf_counter() - start
        self.timed_s += elapsed
        return rc, elapsed, err.getvalue()

    def evolve(self, backend: str) -> dict | None:
        p = self.evolve_paths
        out_path = self.work / f"evolve-{backend}.json"
        what = f"evolve --backend {backend}"
        try:
            rc, elapsed, err = self._cli([
                "evolve", "--in", str(p["state"]), "--schedule1", str(p["schedule1"]),
                "--schedule2", str(p["schedule2"]), "--backend", backend, "--out", str(out_path)])
            if rc != 0:
                self.ledger.record(what, [f"exit {rc}: {err.strip()[-300:]}"])
                return None
            out = json.loads(out_path.read_text(encoding="utf-8"))
            problems = checks.check_evolve(out, backend, self.evolve_ref)
        except Exception as exc:  # a crash is a failed operation, reported below
            self.ledger.record(what, [f"{type(exc).__name__}: {exc}"])
            return None
        if self.ledger.record(what, problems):
            self.ledger.sample(f"evolve_{backend}", elapsed)
        return out

    def pipeline(self, pass_seed: int, keep_latency: list | None) -> None:
        qp = self.qp
        sizes = self.sizes
        edge = edge_count(sizes)
        n_haar = sizes.corpus - edge * len(EDGE_CHIS)
        must_refuse = np.zeros(sizes.corpus, dtype=bool)
        for i, chi in enumerate(EDGE_CHIS):
            if chi in REFUSED_CHIS:
                must_refuse[n_haar + i * edge: n_haar + (i + 1) * edge] = True
        rng = np.random.default_rng([pass_seed, 2])
        qubits = rng.integers(1, 3, size=sizes.corpus)
        z = rng.standard_normal((sizes.corpus, 4))
        directions = z[:, 0::2] + 1j * z[:, 1::2]
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        corpus_path = self.work / "corpus.json"
        results = [None] * sizes.corpus
        errors = {}
        latency = np.zeros(sizes.corpus, dtype=np.int64)
        clock = time.perf_counter_ns

        start = time.perf_counter()
        try:
            corpus = np.concatenate([qp.sample_haar(n_haar, pass_seed)] + [
                qp.sample_fixed_concurrence(edge, pass_seed + 1 + i, chi)
                for i, chi in enumerate(EDGE_CHIS)])
            qp.fileio.save_state_list(corpus_path, corpus)
        except Exception as exc:  # a crash is a failed operation, reported below
            self.ledger.record("state_pipeline corpus", [f"{type(exc).__name__}: {exc}"])
            return
        for k, psi in enumerate(corpus):
            t0 = clock()
            try:
                d = qp.decompose(psi)
                rebuilt = qp.reconstruct(d)
                try:
                    angles = qp.angles_from_state(psi)
                except (qp.SeparableGamma, qp.MaximalEntanglement):
                    angles = None
                q = int(qubits[k])
                p_full = qp.born_full(psi, q, directions[k])
                p_local = qp.born_local(d.chi, d.spinor1 if q == 1 else d.spinor2, directions[k])
                results[k] = (d, rebuilt, angles, p_full, p_local)
            except Exception as exc:  # a crash is a failed operation, reported below
                errors[k] = f"{type(exc).__name__}: {exc}"
            latency[k] = clock() - t0
        elapsed = time.perf_counter() - start
        self.timed_s += elapsed

        ok = self.ledger.check("state_pipeline corpus", checks.check_state_list_file,
                               corpus_path, corpus)
        for k, psi in enumerate(corpus):
            if k in errors:
                ok &= self.ledger.record(f"state_pipeline state {k}", [errors[k]])
                continue
            ok &= self.ledger.check(f"state_pipeline state {k}", checks.check_pipeline_state,
                                    psi, bool(must_refuse[k]), int(qubits[k]), directions[k],
                                    results[k])
            self.refusals += results[k][2] is None
        self.pipeline_states += sizes.corpus
        if keep_latency is not None:
            keep_latency.extend(latency.tolist())
        if ok:
            self.ledger.sample("state_pipeline", elapsed)

    def verify(self, verify_seed: int) -> None:
        out_path = self.work / "verify.json"
        what = "verify --suite all"
        try:
            rc, elapsed, err = self._cli([
                "verify", "--suite", "all", "--trials", str(self.sizes.trials),
                "--seed", str(verify_seed), "--out", str(out_path)])
            if rc != 0:
                self.ledger.record(what, [f"exit {rc}: {err.strip()[-300:]}"])
                return
            problems = checks.check_verify(json.loads(out_path.read_text(encoding="utf-8")))
        except Exception as exc:  # a crash is a failed operation, reported below
            self.ledger.record(what, [f"{type(exc).__name__}: {exc}"])
            return
        if self.ledger.record(what, problems):
            self.ledger.sample("verify", elapsed)

    def cycle(self, index: int, keep_latency: list | None) -> float:
        """One round of every user operation; returns the seconds timed.

        Seeds derive from the run seed and the cycle index.  Per-state
        latencies go to ``keep_latency`` unless it is None.
        """
        self.timed_s = 0.0
        outs = {backend: self.evolve(backend) for backend in BACKENDS}
        if outs["full"] is not None and outs["separable"] is not None:
            self.ledger.record("evolve full vs separable", checks.check_backends_match(
                outs["full"]["amplitudes"], outs["separable"]["amplitudes"]))
        self.pipeline(self.seed * 1000 + index, keep_latency)
        self.verify(self.seed * 1000 + index)
        return self.timed_s
