"""Spans around the package's public functions, for the traced run.

Nothing under src/ is edited.  While a ``Tracer.installed()`` block is
open, each traced public function is replaced, in every ``qubitpair``
module namespace and registry dict that holds it, by a wrapper that
records a span: name, start, end, parent span, work units, cycle and run
id.  That catches calls the benchmark makes directly, calls that ``cli``
and ``verify`` make through their imported names, and calls nested inside
other layers (``local_unitary`` inside ``evolve_full_schedule``).  Leaving
the block restores every original, so untraced cycles run the plain code.

Spans stay in memory (flat arrays) and are written out when the run ends.
A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import contextlib
import gzip
import os
import sys
import time
from array import array
from collections import Counter, defaultdict


def _count(arg: int):
    return lambda args, kwargs, out: args[arg]


def _steps(first: int, second: int):
    return lambda args, kwargs, out: max(len(args[first]), len(args[second]))


def _entries(args, kwargs, out):
    return len(out[1])


def _states(args, kwargs, out):
    return len(args[1])


def _file_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


# layer -> public function -> (work units of a call, bytes it touched); None
# means one unit and no bytes
TARGETS = {
    "dynamics": {
        "su2_operator": (None, None),
        "local_unitary": (None, None),
        "evolve_full_schedule": (_steps(1, 2), None),
        "evolve_separable_schedule": (_steps(2, 3), None),
        "compare_backends": (_steps(1, 2), None),
        "recurrence_drift": (None, None),
    },
    "states": {
        "decompose": (None, None),
        "reconstruct": (None, None),
        "angles_from_state": (None, None),
        "state_from_angles": (None, None),
    },
    "measurement": {
        "sample_haar": (_count(0), None),
        "sample_fixed_concurrence": (_count(0), None),
        "born_full": (None, None),
        "born_local": (None, None),
    },
    "fileio": {
        "load_state": (None, None),
        "load_schedule": (_entries, _file_bytes),
        "save_state_list": (_states, _file_bytes),
    },
    "verify": {
        "roundtrip_suite": (None, None),
        "dynamics_suite": (None, None),
        "born_suite": (None, None),
        "appendix_suite": (None, None),
    },
    "cli": {
        "main": (None, None),
    },
}


def span_name(layer: str, func: str) -> str:
    return f"{layer}.{func.removesuffix('_suite')}"


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.units = array("q")
        self.nbytes = array("q")
        self.cycle = array("q")
        self.raised: Counter = Counter()
        self.cycles = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, units_fn, bytes_fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.units.append(1)
            self.nbytes.append(0)
            self.cycle.append(self.cycles)
            self.end.append(0)
            stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end[i] = clock()
                stack.pop()
                self.raised[name] += 1
                raise
            self.end[i] = clock()
            stack.pop()
            if units_fn is not None:
                self.units[i] = units_fn(args, kwargs, out)
            if bytes_fn is not None:
                self.nbytes[i] = bytes_fn(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace one cycle: swap the wrappers in, and always swap them back."""
        originals = {}
        for layer, funcs in TARGETS.items():
            home = sys.modules[f"qubitpair.{layer}"]
            for func, (units_fn, bytes_fn) in funcs.items():
                fn = getattr(home, func)
                originals[id(fn)] = self._wrap(span_name(layer, func), fn, units_fn, bytes_fn)
        undo = []
        for modname, module in list(sys.modules.items()):
            if modname != "qubitpair" and not modname.startswith("qubitpair."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    undo.append((vars(module), attr, value))
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in originals:
                            undo.append((value, key, item))
        try:
            for table, key, value in undo:
                table[key] = originals[id(value)]
            yield self
        finally:
            for table, key, value in undo:
                table[key] = value
            self.cycles += 1

    def summary(self) -> dict:
        """Per-function totals and per-layer self time over all traced cycles."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        funcs: dict = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0, "units": 0,
                                           "bytes": 0})
        for i in range(n):
            f = funcs[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            f["calls"] += 1
            f["ns"] += dur
            f["self_ns"] += dur - child[i]
            f["units"] += self.units[i]
            f["bytes"] += self.nbytes[i]
        layers: dict = defaultdict(lambda: {"calls": 0, "self_ns": 0, "failed": 0})
        for name, f in funcs.items():
            f["failed"] = self.raised[name]
            layer = layers[name.split(".")[0]]
            layer["calls"] += f["calls"]
            layer["self_ns"] += f["self_ns"]
            layer["failed"] += f["failed"]
        return {"run": self.run_id, "traced_cycles": self.cycles, "spans": n,
                "functions": dict(funcs), "layers": dict(layers)}

    def write_spans(self, path) -> None:
        """One tab-separated line per span, in start order, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\tunits\tcycle\trun\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t{self.start[i]}\t"
                        f"{self.end[i]}\t{self.units[i]}\t{self.cycle[i]}\t{self.run_id}\n")
