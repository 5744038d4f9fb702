"""Canonical JSON file formats: states, angle sets, spinor decompositions,
and per-qubit Hamiltonian schedules.

All files are UTF-8 JSON.  Complex numbers are [re, im] pairs, angles are
radians, and reals are written as their shortest round-trip repr, so
loading a saved file reproduces every value bit for bit.

* state file:    {"amplitudes": [[re, im] * 4]} in order a, b, c, d
* angle file:    {"chi", "theta1", "phi1", "theta2", "phi2", "gamma"},
                 gamma may be null
* spinor file:   {"chi", "spinor1": [[re, im] * 2], "spinor2": ...}
* schedule file: one qubit's steps, applied in order (piecewise constant),
                 as columns, {"qubit": 1|2, "h_i": [S reals],
                 "v": [3S reals, x y z per step], "duration": [S reals]};
                 loads as one dynamics.Schedule of arrays (see load_schedule)

Every writer refuses what its loader refuses, in its words (ParseError), and writes nothing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .dynamics import Schedule, as_schedule
from .states import EPS_NORM, AngleSet, SpinorDecomposition, _check_chi, _norm_sq, reconstruct


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
    # ValueError covers JSONDecodeError, UnicodeDecodeError and the int-digit limit
    except (ValueError, RecursionError) as exc:
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


def _checked_pairs(raw, size: int, where: str) -> tuple[list[complex], float]:
    # ``size`` [re, im] pairs of finite reals as complexes, and their |v| by the core's sum, 1.0
    # where states' reader takes them as-is, refused beyond 1e-6 of 1: loaders' and writers' rule
    if not isinstance(raw, list) or len(raw) != size:
        raise ParseError(f"{where} must list {size} [re, im] pairs")
    vec = [_complex_pair(p, f"{where}[{i}]") for i, p in enumerate(raw)]
    nsq = _norm_sq(vec)
    norm = 1.0 if abs(nsq - 1.0) <= EPS_NORM else math.sqrt(nsq)
    if not abs(norm - 1.0) <= 1e-6:
        raise ParseError(f"{where}: not normalized (|v| = {norm!r})")
    return vec, norm


def _unit_pairs(raw, size: int, where: str) -> np.ndarray:
    # a unit vector by _checked_pairs: as-is (bit-exact round trips), renormalized silently up to
    # |v| - 1 = 1e-9 and with a warning, which points at the loaders' caller, up to 1e-6
    vec, norm = _checked_pairs(raw, size, where)
    if norm == 1.0:  # as-is, with no division, which can turn a -0.0 into 0.0
        return np.array(vec)
    if abs(norm - 1.0) > 1e-9:
        warnings.warn(f"{where}: norm off by {norm - 1.0:.3e}; renormalizing",
                      RuntimeWarning, stacklevel=3)
    return np.array(vec) / norm


def save_state(path, psi) -> None:
    amplitudes = pairs(np.asarray(psi, dtype=complex).reshape(4))
    _checked_pairs(amplitudes, 4, f"{path}: amplitudes")
    write_json(path, {"amplitudes": amplitudes})


def load_state(path) -> np.ndarray:
    obj = read_json(path)
    if not isinstance(obj, dict) or "amplitudes" not in obj:
        raise ParseError(f"{path}: expected an object with an 'amplitudes' field")
    return _unit_pairs(obj["amplitudes"], 4, f"{path}: amplitudes")


def save_angles(path, angles: AngleSet) -> None:
    """Write an angle file, once its object passes load_angles' rules."""
    obj = dataclasses.asdict(angles)
    _angle_set(obj, path)
    write_json(path, obj)


def load_angles(path) -> AngleSet:
    return _angle_set(read_json(path), path)


def _angle_set(obj, path) -> AngleSet:
    # an angle object checked as load_angles reads it, by the writer and the reader alike
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
    obj = {"chi": d.chi, "spinor1": pairs(d.spinor1), "spinor2": pairs(d.spinor2)}
    _check_chi(_real(obj["chi"], f"{path}: chi"), f"{path}: chi", ParseError)
    for name in ("spinor1", "spinor2"):
        _checked_pairs(obj[name], 2, f"{path}: {name}")
    write_json(path, obj)


def load_decomposition(path) -> SpinorDecomposition:
    obj = read_json(path)
    if not isinstance(obj, dict) or not {"chi", "spinor1", "spinor2"} <= set(obj):
        raise ParseError(f"{path}: expected fields chi, spinor1, spinor2")
    chi = _check_chi(_real(obj["chi"], f"{path}: chi"), f"{path}: chi", ParseError)
    return SpinorDecomposition(chi, _unit_pairs(obj["spinor1"], 2, f"{path}: spinor1"),
                               _unit_pairs(obj["spinor2"], 2, f"{path}: spinor2"))


def load_spinor_state(path) -> np.ndarray:
    """A spinor file's state, rebuilt and read as a state file's amplitudes are: two spinors
    each up to EPS_NORM off rebuild a state up to twice that off, renormalized silently."""
    return _unit_pairs(pairs(reconstruct(load_decomposition(path))), 4, f"{path}: rebuilt state")


def save_schedule(path, qubit: int, schedule) -> None:
    """Write a column schedule file, once the column object passes load_schedule's rules."""
    s = as_schedule(schedule)
    obj = {"qubit": qubit, "h_i": s.h.tolist(), "v": s.v.ravel().tolist(),
           "duration": s.dt.tolist()}
    _column_schedule(obj, path)
    write_json(path, obj)


def _reals(values: list) -> np.ndarray:
    # _real's rule over a whole column, as floats: ints compared exactly with the float range,
    # floats finite; where it fails, the values before the first offending one
    kinds = set(map(type, values))
    if kinds <= {int, float} and (int not in kinds or max(map(abs, values)) <= sys.float_info.max):
        column = np.array(values, dtype=float)
        if np.isfinite(column).all():
            return column
    top = sys.float_info.max  # a fault: found by the same rule, at about 120 ns a value
    bad = next(i for i, x in enumerate(values)
               if type(x) not in (int, float) or not -top <= x <= top)
    return np.array(values[:bad], dtype=float)


def _tag(tag) -> int:
    # a file's one qubit tag, a JSON integer: true and 1.0 equal 1 but are refused
    if type(tag) is not int or tag not in (1, 2):
        raise ParseError(f"qubit must be 1 or 2, got {tag!r}")
    return tag


def _file_columns(obj: dict) -> tuple[int, list, list, list]:
    # a schedule file's own rules, each about the whole file: every column present, one tag,
    # and S >= 1 h_i and duration values beside 3S v components
    missing = [name for name in ("qubit", "h_i", "v", "duration") if name not in obj]
    if missing:
        raise ParseError(f"missing column {missing[0]!r}")
    qubit, columns = _tag(obj["qubit"]), (obj["h_i"], obj["v"], obj["duration"])
    lengths = [len(c) if isinstance(c, list) else None for c in columns]  # None: not a list
    if not (lengths[0] and lengths == [lengths[0], 3 * lengths[0], lengths[0]]):
        raise ParseError(f"h_i, v and duration must list S >= 1, 3S and S values, "
                         f"got lengths {lengths}")
    return (qubit, *columns)


def _column_schedule(obj: dict, path) -> tuple[int, Schedule]:
    # a column object checked as load_schedule reads it, by the writer and the reader alike, in
    # one pass: each column read once, and one Schedule built, on the m steps before entry m, the
    # first to break a value rule (the least of each rule's first failing entry)
    try:
        qubit, hs, vs, ds = _file_columns(obj)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    h, v, dt = _reals(hs), _reals(vs), _reals(ds)
    positive = dt > 0.0
    m = min(len(h), len(v) // 3, len(dt) if positive.all() else int(positive.argmin()))
    try:  # Schedule's magnitude rule; on finite reals only the running span can fail it
        schedule = Schedule(h[:m], v[:3 * m].reshape(m, 3), dt[:m])
    except ValueError as exc:  # the refusal carries its step: the first past the span's limit
        raise ParseError(f"{path}: entry {exc.step}: the schedule's phases and rotation angles "
                         f"overflow") from None
    if m == len(hs):
        return qubit, schedule
    # entry m's values, rule by rule in step order: the words are the first rule it breaks
    for name, x in [("h_i", hs[m]), *(("v", x) for x in vs[3 * m:3 * m + 3]), ("duration", ds[m])]:
        _real(x, f"{path}: entry {m}: {name}")
    raise ParseError(f"{path}: entry {m}: duration must be positive, got {dt[m].item()!r}")


def load_schedule(path) -> tuple[int, Schedule]:
    """Read one qubit's column schedule file as (qubit, Schedule), each rule checked over whole
    columns in one pass, the magnitude rule last, by the Schedule. A rejection names the first
    offending entry (step k) and the first rule it breaks, and costs about one load; the file's
    own faults name the file alone."""
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected an object of schedule columns")
    return _column_schedule(obj, path)


# states per dumps call: a state's lists, dict and text cost ~1.6 kB while it is written, so
# writing holds near 7 MB whatever the count, beside the norm check's 8 B per state
STATE_LIST_CHUNK = 4096


def save_state_list(path, states) -> None:
    """Write a state-list file, [{"amplitudes": [[re, im] * 4]}, ...], to path, or to stdout
    where path is None, as one dumps per STATE_LIST_CHUNK states with the brackets peeled off:
    the bytes of one dumps of the whole list; a refusal names the first failing state."""
    states = np.asarray(states, dtype=complex).reshape(len(states), 4)
    with np.errstate(over="ignore"):  # an overflowing square is inf, which fails the rule
        nsq = _norm_sq(states.T)
    failing = np.flatnonzero(~(np.abs(np.sqrt(nsq) - 1.0) <= 1e-6))
    if len(failing):
        k = int(failing[0])
        _checked_pairs(pairs(states[k]), 4, f"{path or '<stdout>'}: state {k}: amplitudes")
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as out:
        out.write("[")
        for start in range(0, len(states), STATE_LIST_CHUNK):
            chunk = pairs(states[start:start + STATE_LIST_CHUNK])
            out.write((", " if start else "") + dumps([{"amplitudes": a} for a in chunk])[1:-1])
        out.write("]\n")
