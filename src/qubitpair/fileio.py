"""Canonical JSON file formats: states, angle sets, spinor decompositions,
and per-qubit Hamiltonian schedules.

All files are UTF-8 JSON.  Complex numbers are [re, im] pairs, angles are
radians, and reals are written as their shortest round-trip repr, so
loading a saved file reproduces every value bit for bit.

* state file:    {"amplitudes": [[re, im] * 4]} in order a, b, c, d
* angle file:    {"chi", "theta1", "phi1", "theta2", "phi2", "gamma"},
                 gamma may be null
* spinor file:   {"chi", "spinor1": [[re, im] * 2], "spinor2": ...}
* schedule file: [{"qubit": 1|2, "h_i": x, "v": [vx, vy, vz],
                   "duration": dt}, ...], one qubit per file,
                 entries applied in order (piecewise constant); it loads
                 as one dynamics.Schedule of arrays, no per-step objects
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .dynamics import Schedule
from .states import EPS_NORM, AngleSet, SpinorDecomposition


class ParseError(ValueError):
    """A file or option could not be parsed or failed validation."""


def dumps(value) -> str:
    """The package's one JSON layout: compact stdlib json (indenting loses CPython's C encoder)."""
    return json.dumps(value)


def write_json(path, value) -> None:
    Path(path).write_text(dumps(value) + "\n", encoding="utf-8")


def read_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc


def _real(obj, where: str) -> float:
    # stdlib json also parses Infinity, NaN and integers past the float range
    if (isinstance(obj, bool) or not isinstance(obj, (int, float))
            or not abs(obj) <= sys.float_info.max):
        raise ParseError(f"{where}: expected a finite real number, got {obj!r}")
    return float(obj)


def _complex_pair(obj, where: str) -> complex:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ParseError(f"{where}: expected an [re, im] pair, got {obj!r}")
    return complex(_real(obj[0], where), _real(obj[1], where))


def pairs(z) -> list[list[float]]:
    """A complex vector as [re, im] pairs of Python floats, the files' complex format."""
    return [[float(np.real(v)), float(np.imag(v))] for v in np.asarray(z)]


def _checked_unit(vec: np.ndarray, where: str) -> np.ndarray:
    # accept as-is inside EPS_NORM (bit-exact round trips), silently fix up
    # to 1e-9, warn up to 1e-6, reject beyond
    norm = float(np.linalg.norm(vec))
    nsq = norm * norm
    if abs(nsq - 1.0) <= EPS_NORM:
        return vec
    if abs(norm - 1.0) <= 1e-9:
        return vec / norm
    if abs(norm - 1.0) <= 1e-6:
        warnings.warn(f"{where}: norm off by {norm - 1.0:.3e}; renormalizing",
                      RuntimeWarning, stacklevel=3)
        return vec / norm
    raise ParseError(f"{where}: not normalized (|v| = {norm!r})")


def save_state(path, psi) -> None:
    write_json(path, {"amplitudes": pairs(np.asarray(psi, dtype=complex).reshape(4))})


def load_state(path) -> np.ndarray:
    obj = read_json(path)
    if not isinstance(obj, dict) or "amplitudes" not in obj:
        raise ParseError(f"{path}: expected an object with an 'amplitudes' field")
    amps = obj["amplitudes"]
    if not isinstance(amps, list) or len(amps) != 4:
        raise ParseError(f"{path}: 'amplitudes' must list 4 [re, im] pairs")
    psi = np.array([_complex_pair(p, f"{path}: amplitudes[{i}]") for i, p in enumerate(amps)])
    return _checked_unit(psi, str(path))


def save_angles(path, angles: AngleSet) -> None:
    write_json(path, {
        "chi": angles.chi,
        "theta1": angles.theta1,
        "phi1": angles.phi1,
        "theta2": angles.theta2,
        "phi2": angles.phi2,
        "gamma": angles.gamma,
    })


def load_angles(path) -> AngleSet:
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object of angles")
    fields = {}
    for name in ("chi", "theta1", "phi1", "theta2", "phi2"):
        if name not in obj:
            raise ParseError(f"{path}: missing field '{name}'")
        fields[name] = _real(obj[name], f"{path}: {name}")
    gamma = obj.get("gamma")
    fields["gamma"] = None if gamma is None else _real(gamma, f"{path}: gamma")
    try:
        return AngleSet(**fields).validate()
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_decomposition(path, d: SpinorDecomposition) -> None:
    write_json(path, {
        "chi": d.chi,
        "spinor1": pairs(d.spinor1),
        "spinor2": pairs(d.spinor2),
    })


def load_decomposition(path) -> SpinorDecomposition:
    obj = read_json(path)
    if not isinstance(obj, dict) or not {"chi", "spinor1", "spinor2"} <= set(obj):
        raise ParseError(f"{path}: expected fields chi, spinor1, spinor2")
    chi = _real(obj["chi"], f"{path}: chi")
    if not 0.0 <= chi <= np.pi / 2:
        raise ParseError(f"{path}: chi out of [0, pi/2]: {chi!r}")
    spinors = []
    for name in ("spinor1", "spinor2"):
        raw = obj[name]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ParseError(f"{path}: {name} must list 2 [re, im] pairs")
        s = np.array([_complex_pair(p, f"{path}: {name}[{i}]") for i, p in enumerate(raw)])
        spinors.append(_checked_unit(s, f"{path}: {name}"))
    return SpinorDecomposition(chi, spinors[0], spinors[1])


def save_schedule(path, qubit: int, schedule) -> None:
    write_json(path, [
        {"qubit": qubit, "h_i": h.h_i, "v": h.v.tolist(), "duration": float(dt)}
        for h, dt in schedule
    ])


def load_schedule(path) -> tuple[int, Schedule]:
    """Read one qubit's schedule file as (qubit, Schedule), building no per-step objects."""
    obj = read_json(path)
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{path}: expected a non-empty list of schedule entries")
    qubit = None
    rows = []
    span = 0.0  # running sum of |h_i| * duration + |v| * duration
    for i, entry in enumerate(obj):
        try:  # the messages below name the field; the entry is named once, on failure
            if not isinstance(entry, dict):
                raise ParseError("expected an object")
            q = entry.get("qubit")
            if q not in (1, 2):
                raise ParseError(f"qubit must be 1 or 2, got {q!r}")
            if qubit is None:
                qubit = q
            elif q != qubit:
                raise ParseError("mixed qubit tags in one schedule file")
            h_i = _real(entry.get("h_i", 0.0), "h_i")
            v = entry.get("v")
            if not isinstance(v, list) or len(v) != 3:
                raise ParseError("v must be a real 3-vector")
            v = [_real(x, "v") for x in v]
            duration = _real(entry.get("duration"), "duration")
            if not duration > 0.0:
                raise ParseError(f"duration must be positive, got {duration!r}")
            span += (abs(h_i) + math.hypot(*v)) * duration
            if not math.isfinite(span):
                raise ParseError("the schedule's phases and rotation angles overflow")
        except ParseError as exc:
            raise ParseError(f"{path}: entry {i}: {exc}") from None
        rows.append((h_i, *v, duration))
    rows = np.array(rows)
    return qubit, Schedule(rows[:, 0], rows[:, 1:4], rows[:, 4])


def save_state_list(path, states) -> None:
    write_json(path, [{"amplitudes": pairs(np.asarray(s, dtype=complex).reshape(4))}
                      for s in states])
