"""Rules the package source itself must keep."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "qubitpair"


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
    shared = called & {"_cayley_klein", "_rotated"}
    assert not shared, f"_full_steps calls {sorted(shared)}"


def test_backends_read_one_schedule_form():
    # each backend takes its schedules through as_schedule, so _rotated reads Schedule arrays
    # alone and a list meets the Schedule's finiteness rule on both sides
    for name in ("_full_steps", "_rotated"):
        function = _function("dynamics.py", name)
        called = {getattr(node.func, "id", None) for node in ast.walk(function)
                  if isinstance(node, ast.Call)}
        assert "as_schedule" in called, f"{name} does not call as_schedule"
    rotated = _function("dynamics.py", "_rotated")
    found = [node.lineno for node in ast.walk(rotated)
             if (isinstance(node, ast.Name) and node.id == "isinstance")
             or (isinstance(node, ast.Attribute) and node.attr == "h_i")]
    assert not found, f"_rotated branches on its input's type or reads h_i at lines {found}"


def test_compare_backends_is_the_two_runs():
    # the backends are compared as they run for every caller: one call to each whole run, no
    # step loop of compare_backends' own, and no per-step output for an option to collect
    # (Schedule.__iter__, the step reader, is the one generator left)
    tree = ast.parse((SOURCE / "dynamics.py").read_text(encoding="utf-8"))
    found = [node.lineno for function in tree.body if isinstance(function, ast.FunctionDef)
             for node in ast.walk(function) if isinstance(node, (ast.Yield, ast.YieldFrom))]
    found += [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.arg) and node.arg == "trace"]
    assert not found, f"a yielding function or a trace parameter in dynamics.py at lines {found}"
    compare = _function("dynamics.py", "compare_backends")
    loops = [node.lineno for node in ast.walk(compare)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert not loops, f"compare_backends loops at lines {loops}"
    called = [getattr(node.func, "id", None) for node in ast.walk(compare)
              if isinstance(node, ast.Call)]
    for name in ("_full_steps", "evolve_separable_state"):
        assert called.count(name) == 1, f"compare_backends calls {name} {called.count(name)} times"


def test_samplers_draw_schedules_without_hamiltonians():
    # verify and bench draw Schedule arrays, the form the evolve command reads from its files
    for module, name in (("verify.py", "random_schedule"), ("bench.py", "_make_schedule")):
        assert "LocalHamiltonian" not in _calls(module, name), f"{module}:{name} builds one"


def _calls(module, name):
    # every name called in the function and in the module functions it calls, transitively
    tree = ast.parse((SOURCE / module).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    called, todo = set(), [name]
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if callee in functions and callee not in called:
                    todo.append(callee)
                called.add(callee)
    return called


def test_dynamics_reads_angles_from_the_core():
    # dynamics takes the six angles from states._angles, not from the public AngleSet view;
    # both appendix checks turn each qubit by one closed-form SU(2), not a full-backend step,
    # about an axis and field from the float cores (no numpy vector, Hamiltonian or matrix),
    # and fit the drift in closed form
    found = _nodes(lambda node: isinstance(node, ast.Call) and "angles_from_state" in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)), "dynamics.py")
    assert not found, f"angles_from_state called in dynamics.py: {found}"
    for name in ("recurrence_drift", "compound_rotation_check"):
        called = _calls("dynamics.py", name)
        assert {"_cayley_klein", "_contract", "_angles", "_own_axis", "_aligned_field"} <= called
        wrappers = called & {"_full_steps", "local_unitary", "su2_operator", "aligned_hamiltonian",
                             "state_bloch_vector", "LocalHamiltonian", "matrix", "polyfit"}
        assert not wrappers, f"{name} calls {sorted(wrappers)}"


def test_band_is_stated_in_states_alone():
    # where gamma is defined is _angles' rule; dynamics takes its refusals rather than a gate
    # of its own on chi
    found = _nodes(lambda node: isinstance(node, ast.Name) and node.id == "HALF_PI", "dynamics.py")
    assert not found, f"HALF_PI named in dynamics.py: {found}"


def test_fileio_takes_norms_from_the_core():
    # a file's vector is read as a unit vector by states._norm_sq, the sum behind the state rule
    found = _nodes(lambda node: isinstance(node, ast.Attribute) and node.attr == "linalg",
                   "fileio.py")
    assert not found, f"numpy linalg in fileio.py: {found}"


def test_collector_paused_only_by_the_schedule_loader():
    # pausing the cyclic collector is safe only where every container built dies before the
    # caller's state is restored; load_schedule is that one place
    loader = _function("fileio.py", "load_schedule")
    inside = range(loader.lineno, loader.end_lineno + 1)
    toggles = _nodes(lambda node: isinstance(node, ast.Attribute)
                     and node.attr in ("disable", "enable")
                     and getattr(node.value, "id", None) == "gc")
    assert toggles, "fileio.load_schedule no longer pauses the collector"
    outside = [where for where in toggles
               if not (where.startswith("fileio.py:") and int(where.split(":")[1]) in inside)]
    assert not outside, f"the collector is toggled outside fileio.load_schedule: {outside}"
    imported = _nodes(lambda node: isinstance(node, ast.ImportFrom) and node.module == "gc")
    assert not imported, f"names imported from gc: {imported}"


def test_separable_run_is_assembled_in_dynamics_alone():
    # cli and bench take the whole run, decomposition to amplitudes, from
    # dynamics.evolve_separable_state and never build it from its parts
    parts = {"PhaseLedger", "reconstruct", "evolve_separable_schedule"}

    def names_a_part(node):
        return parts & {getattr(node, "id", None), getattr(node, "attr", None),
                        getattr(node, "name", None)}

    for module in ("cli.py", "bench.py"):
        found = _nodes(names_a_part, module)
        assert not found, f"{module} names a part of the separable run: {found}"


def test_every_public_name_has_a_caller():
    # a name the package exports is run by another module of it, a demo or the benchmark, or
    # shown in README.md; one that only tests call goes, and the tests move to its core
    init = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    modules = [*SOURCE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py")]
    named = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in modules:
        if path.name != "__init__.py":
            named |= {node.id if isinstance(node, ast.Name) else node.attr
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, (ast.Name, ast.Attribute))}
    unused = sorted(exported - named)
    assert not unused, f"public names that nothing outside the tests references: {unused}"
