"""Rules the package source itself must keep."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qubitpair"


def _nodes(match, pattern="*.py"):
    """(module:line) of every node for which match(node) holds, in the package
    modules whose file names match the glob pattern."""
    modules = sorted(SOURCE.glob(pattern))
    assert modules, f"no modules found under {SOURCE}"
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if match(node)]
    return found


def test_no_assert_statements():
    # python -O strips asserts, so no correctness check may live in one
    found = _nodes(lambda node: isinstance(node, ast.Assert))
    assert not found, f"assert statements in the package: {found}"


def test_no_np_kron():
    # np.kron costs ~20 us on 2x2 operands; the package writes out the same products
    found = _nodes(lambda node: isinstance(node, ast.Attribute) and node.attr == "kron")
    assert not found, f"np.kron in the package: {found}"


def test_no_linalg_in_states():
    # the conversion layer runs on Python floats: a numpy linalg call on a
    # 2- or 4-vector costs microseconds where the arithmetic costs nanoseconds
    found = _nodes(lambda node: isinstance(node, ast.Attribute) and node.attr == "linalg",
                   "states.py")
    assert not found, f"numpy linalg in states.py: {found}"


def test_fileio_builds_no_hamiltonians():
    # a schedule file loads as arrays; one LocalHamiltonian per entry cost ~3 us
    def builds_hamiltonian(node):
        return isinstance(node, ast.Call) and "LocalHamiltonian" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    found = _nodes(builds_hamiltonian, "fileio.py")
    assert not found, f"LocalHamiltonian built in fileio.py: {found}"


def _function(module, name):
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_one_su2_closed_form():
    # the SU(2) closed form is written once: su2_operator and the separable
    # backend's composition both take their entries from _cayley_klein
    helper = _function("dynamics.py", "_cayley_klein")
    inside = range(helper.lineno, helper.end_lineno + 1)
    found = _nodes(lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("cos", "sin")
                   and getattr(node.func.value, "id", None) == "math"
                   and node.lineno not in inside, "dynamics.py")
    assert not found, f"math.cos/math.sin outside _cayley_klein in dynamics.py: {found}"


def test_full_backend_composes_nothing():
    # the full backend takes each step's operators from local_unitary and none of the
    # separable backend's arithmetic, so backend_equivalence compares two computations
    steps = _function("dynamics.py", "_full_steps")
    called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
              for node in ast.walk(steps) if isinstance(node, ast.Call)}
    assert "local_unitary" in called
    shared = called & {"_cayley_klein", "_rotated", "_kron2"}
    assert not shared, f"_full_steps calls {sorted(shared)}"
