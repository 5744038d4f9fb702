"""Reference results and output checks for every operation the benchmark times.

The references are computed here with plain numpy, independently of the
package, so a program that returns wrong numbers fails the check instead
of posting a fast time.  Each checker returns a list of problems; an empty
list means the output is correct.

Tolerances are the package's published contract (README "Conventions and
tolerances", ROADMAP aim 3) and must never be loosened here: round trips
1e-10, backend equivalence 1e-9, Born rule 1e-12, cross-checks between
redundant computations 1e-9.
"""

from __future__ import annotations

import json

import numpy as np

ROUNDTRIP_TOL = 1e-10
BACKEND_TOL = 1e-9
BORN_TOL = 1e-12
CROSSCHECK_TOL = 1e-9

# verify properties whose tolerance is part of the published contract: the
# reported tolerance may be tighter, never looser
VERIFY_CEILINGS = {
    "decompose_reconstruct_roundtrip": ROUNDTRIP_TOL,
    "backend_equivalence": BACKEND_TOL,
    "concurrence_invariance": 1e-12,
    "local_rule_equals_full_rule": BORN_TOL,
}


def pairs_to_complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


# ------------------------------------------------------------------ evolve

def schedule_unitary(h, v, dt) -> np.ndarray:
    """Ordered product U_S ... U_1 of exp(-i (h_k I + v_k.sigma) dt_k)."""
    speed = np.linalg.norm(v, axis=1)
    safe = np.where(speed > 0.0, speed, 1.0)
    x, y, z = (v / safe[:, None]).T
    angle = speed * dt
    c, s = np.cos(angle), np.sin(angle)
    steps = np.empty((len(h), 2, 2), dtype=complex)
    steps[:, 0, 0] = c - 1j * s * z
    steps[:, 0, 1] = -1j * s * (x - 1j * y)
    steps[:, 1, 0] = -1j * s * (x + 1j * y)
    steps[:, 1, 1] = c + 1j * s * z
    steps *= np.exp(-1j * h * dt)[:, None, None]
    total = np.eye(2, dtype=complex)
    for u in steps:
        total = u @ total
    return total


def evolve_reference(psi, schedule1, schedule2) -> np.ndarray:
    """Final amplitudes after both schedules, each given as (h, v, dt) arrays."""
    u = np.kron(schedule_unitary(*schedule1), schedule_unitary(*schedule2))
    return u @ np.asarray(psi, dtype=complex)


def check_evolve(out: dict, backend: str, reference: np.ndarray) -> list[str]:
    """Check one `evolve --backend B` output object against the reference."""
    problems = []
    if out.get("backend") != backend:
        return [f"evolve {backend}: output names backend {out.get('backend')!r}"]
    if backend == "both":
        if out.get("backends_agree") is not True:
            problems.append("evolve both: backends_agree is not true")
        dev = out.get("max_component_deviation")
        if not isinstance(dev, (int, float)) or not dev < BACKEND_TOL:
            problems.append(f"evolve both: max_component_deviation {dev!r} not below {BACKEND_TOL}")
        finals = {"full": out["final_state_full"], "separable": out["final_state_separable"]}
        problems += check_backends_match(finals["full"], finals["separable"])
    else:
        finals = {backend: out["amplitudes"]}
    for name, pairs in finals.items():
        err = float(np.max(np.abs(pairs_to_complex(pairs) - reference)))
        if not err < BACKEND_TOL:
            problems.append(f"evolve {backend}: {name} amplitudes off the reference by {err:.3e}")
    return problems


def check_backends_match(full_amplitudes, separable_amplitudes) -> list[str]:
    err = float(np.max(np.abs(pairs_to_complex(full_amplitudes)
                              - pairs_to_complex(separable_amplitudes))))
    if not err < BACKEND_TOL:
        return [f"evolve: full and separable outputs differ by {err:.3e}"]
    return []


# ---------------------------------------------------------- state pipeline

def born_reference(psi, qubit: int, direction) -> float:
    m = np.asarray(psi, dtype=complex).reshape(2, 2)
    amps = direction.conj() @ m if qubit == 1 else m @ direction.conj()
    return float(np.real(np.vdot(amps, amps)))


def amplitudes_from_angles(chi, theta1, phi1, theta2, phi2, gamma) -> np.ndarray:
    """cos(chi/2) e^(i gamma/2) u1 x u2 + sin(chi/2) e^(-i gamma/2) P(u1) x P(u2)."""
    def u(theta, phi):
        return np.array([np.cos(theta / 2) * np.exp(-0.5j * phi),
                         np.sin(theta / 2) * np.exp(0.5j * phi)])

    def p(s):
        return np.array([np.conj(s[1]), -np.conj(s[0])])

    u1, u2 = u(theta1, phi1), u(theta2, phi2)
    return (np.cos(chi / 2) * np.exp(0.5j * gamma) * np.kron(u1, u2)
            + np.sin(chi / 2) * np.exp(-0.5j * gamma) * np.kron(p(u1), p(u2)))


def check_pipeline_state(psi, must_refuse: bool, qubit: int, direction, result) -> list[str]:
    """Check one state's decompose -> reconstruct -> angles -> Born outputs.

    ``result`` is (decomposition, reconstructed, angles or None if refused,
    born_full, born_local).  Angles must be refused exactly for the states
    pinned at chi = 0 and chi = pi/2 (the edge bands) and nowhere else.
    """
    d, rebuilt, angles, p_full, p_local = result
    problems = []
    err = float(np.max(np.abs(np.asarray(rebuilt) - psi)))
    if not err <= ROUNDTRIP_TOL:
        problems.append(f"reconstruct(decompose(psi)) off by {err:.3e}")
    if angles is None:
        if not must_refuse:
            problems.append("angles_from_state refused a state inside the bulk")
    elif must_refuse:
        problems.append("angles_from_state accepted a state on an edge band")
    else:
        ref = amplitudes_from_angles(angles.chi, angles.theta1, angles.phi1,
                                     angles.theta2, angles.phi2, angles.gamma)
        overlap = np.vdot(ref, psi)
        err = float(np.max(np.abs(ref * np.exp(1j * np.angle(overlap)) - psi)))
        if not err <= CROSSCHECK_TOL:
            problems.append(f"angles rebuild the state only to {err:.3e}")
    expected = born_reference(psi, qubit, direction)
    if not abs(p_full - expected) <= BORN_TOL:
        problems.append(f"born_full off the reference by {abs(p_full - expected):.3e}")
    if not abs(p_full - p_local) <= BORN_TOL:
        problems.append(f"born_full and born_local differ by {abs(p_full - p_local):.3e}")
    return problems


def check_state_list_file(path, states) -> list[str]:
    """The saved corpus must reload bit for bit (README, file formats)."""
    with open(path, encoding="utf-8") as f:
        saved = json.load(f)
    if len(saved) != len(states):
        return [f"state list holds {len(saved)} states, expected {len(states)}"]
    amps = pairs_to_complex([entry["amplitudes"] for entry in saved])
    if not np.array_equal(amps, np.asarray(states)):
        return ["state list does not reload bit for bit"]
    return []


# ------------------------------------------------------------------ verify

def check_verify(out: dict) -> list[str]:
    """Check one `verify --suite all` output object."""
    problems = []
    if out.get("passed") is not True:
        problems.append("verify: passed is not true")
    props = {p["name"]: p for p in out.get("properties", [])}
    failing = sorted(name for name, p in props.items() if p.get("passed") is not True)
    if failing:
        problems.append(f"verify: properties failed: {', '.join(failing)}")
    for name, ceiling in VERIFY_CEILINGS.items():
        p = props.get(name)
        if p is None:
            problems.append(f"verify: property {name} missing")
        elif not (p["tolerance"] <= ceiling and p["worst"] <= p["tolerance"]):
            problems.append(f"verify: {name} worst {p['worst']!r} tolerance {p['tolerance']!r} "
                            f"(contract {ceiling})")
    return problems
