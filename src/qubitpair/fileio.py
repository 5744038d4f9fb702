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
                 as one dynamics.Schedule of arrays, no per-step objects,
                 each rule checked over whole columns; a rejection names the
                 first offending entry and the first rule it breaks
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import warnings
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .dynamics import Schedule, as_schedule
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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
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


def pairs(z) -> list:
    """A complex array as [re, im] pairs of Python floats (the files' format), kept nested."""
    z = np.asarray(z, dtype=complex)
    return np.stack((z.real, z.imag), -1).tolist()


def _unit_pairs(raw, size: int, where: str) -> np.ndarray:
    # ``size`` [re, im] pairs read as a unit vector: accepted as-is inside EPS_NORM (bit-exact
    # round trips), silently fixed up to 1e-9, fixed with a warning up to 1e-6, rejected beyond;
    # the loaders call it directly, so the warning points at their caller
    if not isinstance(raw, list) or len(raw) != size:
        raise ParseError(f"{where} must list {size} [re, im] pairs")
    vec = np.array([_complex_pair(p, f"{where}[{i}]") for i, p in enumerate(raw)])
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
    return _unit_pairs(obj["amplitudes"], 4, f"{path}: amplitudes")


def save_angles(path, angles: AngleSet) -> None:
    write_json(path, dataclasses.asdict(angles))


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
    return SpinorDecomposition(chi, _unit_pairs(obj["spinor1"], 2, f"{path}: spinor1"),
                               _unit_pairs(obj["spinor2"], 2, f"{path}: spinor2"))


def save_schedule(path, qubit: int, schedule) -> None:
    s = as_schedule(schedule)
    write_json(path, [{"qubit": qubit, "h_i": h_i, "v": v, "duration": dt}
                      for h_i, v, dt in zip(s.h.tolist(), s.v.tolist(), s.dt.tolist())])


def _reals(values: list, name: str) -> np.ndarray:
    # _real's rule over a whole column: ints compared exactly with the float range, floats
    # finite; where it fails, _real itself raises at the first offending value
    kinds = set(map(type, values))
    if kinds <= {int, float} and (int not in kinds or max(map(abs, values)) <= sys.float_info.max):
        column = np.array(values, dtype=float)
        if np.isfinite(column).all():
            return column
    return np.array([_real(x, name) for x in values])


def _schedule(entries: list) -> tuple[int, Schedule]:
    # each rule runs once over a whole column, in the order the rules apply to one entry; once
    # every shorter prefix passes, a failing rule fails at the last entry alone, so the
    # messages quote the last entry
    if not all(map(isinstance, entries, repeat(dict))):
        raise ParseError("expected an object")
    tags = list(map(dict.get, entries, repeat("qubit")))
    if not all(map((1, 2).__contains__, tags)):
        raise ParseError(f"qubit must be 1 or 2, got {tags[-1]!r}")
    if len(set(tags)) > 1:
        raise ParseError("mixed qubit tags in one schedule file")
    h = _reals(list(map(dict.get, entries, repeat("h_i"), repeat(0.0))), "h_i")
    vs = list(map(dict.get, entries, repeat("v")))
    if not (all(map(isinstance, vs, repeat(list))) and set(map(len, vs)) == {3}):
        raise ParseError("v must be a real 3-vector")
    v = _reals(list(chain.from_iterable(vs)), "v").reshape(-1, 3)
    dt = _reals(list(map(dict.get, entries, repeat("duration"))), "duration")
    if not (dt > 0.0).all():
        raise ParseError(f"duration must be positive, got {dt[-1].item()!r}")
    with np.errstate(over="ignore"):  # an overflow is the failure tested for
        span = np.cumsum((np.abs(h) + np.hypot(np.hypot(v[:, 0], v[:, 1]), v[:, 2])) * dt)
    if not math.isfinite(span[-1]):
        raise ParseError("the schedule's phases and rotation angles overflow")
    return tags[0], Schedule(h, v, dt)


def load_schedule(path) -> tuple[int, Schedule]:
    """Read one qubit's schedule file as (qubit, Schedule), each rule checked over whole columns.

    A rejection names the first offending entry and the first rule it breaks: every rule that
    fails on a prefix of the entries fails on each longer one, so bisection finds the shortest.
    """
    obj = read_json(path)
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{path}: expected a non-empty list of schedule entries")
    try:
        return _schedule(obj)
    except ParseError as whole:
        passing, failing, error = 0, len(obj), whole
        while failing - passing > 1:
            mid = (passing + failing) // 2
            try:
                _schedule(obj[:mid])
                passing = mid
            except ParseError as prefix:
                failing, error = mid, prefix
        raise ParseError(f"{path}: entry {failing - 1}: {error}") from None


def save_state_list(path, states) -> None:
    write_json(path, [{"amplitudes": a} for a in pairs(np.reshape(states, (len(states), 4)))])
