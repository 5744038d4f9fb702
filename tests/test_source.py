"""Rules the package source itself must keep."""

import ast
import re
from pathlib import Path

from qubitpair.verify import SUITES

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
    # the SU(2) closed form is written in two forms only: on Python floats in _cayley_klein,
    # which su2_operator and the step loop take their entries from, and over columns in
    # _cayley_klein_columns, the tree's; test_dynamics holds the second to the first in ulps
    inside = set()
    for name in ("_cayley_klein", "_cayley_klein_columns"):
        helper = _function("dynamics.py", name)
        inside |= set(range(helper.lineno, helper.end_lineno + 1))
    found = _nodes(lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                   and node.func.attr in ("cos", "sin")
                   and getattr(node.func.value, "id", None) in ("math", "np", "cmath")
                   and node.lineno not in inside, "dynamics.py")
    assert not found, f"cos/sin outside the two closed forms in dynamics.py: {found}"


def test_full_backend_composes_nothing():
    # the full backend takes each step's operators from local_unitary and none of the
    # separable backend's arithmetic, so backend_equivalence compares two computations
    for name in ("evolve_full_schedule", "_left_steps"):
        called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                  for node in ast.walk(_function("dynamics.py", name))
                  if isinstance(node, ast.Call)}
        shared = called & {"_cayley_klein", "_rotated"}
        assert not shared, f"{name} calls {sorted(shared)}"
    assert "local_unitary" in called, "_left_steps does not call local_unitary"


def test_full_backend_runs_each_qubit_alone():
    # one per-qubit step loop runs both schedules, so the step update is written once, at the
    # one local_unitary call in dynamics.py, and no step pairing is left to import itertools for
    calls = _nodes(lambda node: isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "local_unitary", "dynamics.py")
    assert len(calls) == 1, f"local_unitary called at {calls}"
    imports = _nodes(lambda node: (isinstance(node, ast.Import)
                                   and any(a.name == "itertools" for a in node.names))
                     or (isinstance(node, ast.ImportFrom) and node.module == "itertools"),
                     "dynamics.py")
    assert not imports, f"itertools imported in dynamics.py: {imports}"
    full = _function("dynamics.py", "evolve_full_schedule")
    called = [getattr(node.func, "id", None) for node in ast.walk(full)
              if isinstance(node, ast.Call)]
    assert called.count("_left_steps") == 2, f"evolve_full_schedule calls {called}"


def test_backends_read_one_schedule_form():
    # each backend takes its schedules through as_schedule, so _rotated reads Schedule arrays
    # alone and a list meets the Schedule's magnitude rule on both sides
    for name in ("_left_steps", "evolve_separable_schedule"):
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
    # step loop of compare_backends' own, and no per-step output for an option to collect:
    # no function or method in dynamics.py yields
    found = _nodes(lambda node: isinstance(node, (ast.Yield, ast.YieldFrom))
                   or (isinstance(node, ast.arg) and node.arg == "trace"), "dynamics.py")
    assert not found, f"a yielding function or a trace parameter in dynamics.py at {found}"
    compare = _function("dynamics.py", "compare_backends")
    loops = [node.lineno for node in ast.walk(compare)
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert not loops, f"compare_backends loops at lines {loops}"
    called = [getattr(node.func, "id", None) for node in ast.walk(compare)
              if isinstance(node, ast.Call)]
    for name in ("evolve_full_schedule", "evolve_separable_state"):
        assert called.count(name) == 1, f"compare_backends calls {name} {called.count(name)} times"


def test_fixed_concurrence_sampler_builds_from_the_cores():
    # every angle it draws is in range by construction, so no state goes through AngleSet and
    # its validate(): the rows are state_from_angles' cores on the draws
    def names_angle_api(node):
        names = {getattr(node, key, None) for key in ("id", "attr", "name")}
        return not names.isdisjoint({"AngleSet", "state_from_angles"})

    found = _nodes(names_angle_api, "measurement.py")
    assert not found, f"AngleSet or state_from_angles named in measurement.py: {found}"


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
        wrappers = called & {"evolve_full_schedule", "local_unitary", "su2_operator",
                             "aligned_hamiltonian", "state_bloch_vector", "LocalHamiltonian",
                             "matrix", "polyfit"}
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


def test_no_module_imports_gc():
    # no package call pauses or drives the cyclic collector: a column schedule file parses into
    # 3 lists whatever its length, and nothing else built per call is worth a pause
    found = _nodes(lambda node: (isinstance(node, ast.Import)
                                 and any(a.name == "gc" for a in node.names))
                   or (isinstance(node, ast.ImportFrom) and node.module == "gc"))
    assert not found, f"gc imported at {found}"


def test_schedule_loader_leaves_magnitudes_to_schedule():
    # a file's magnitude rule is Schedule's running span, computed there once: the loader takes
    # no |v| and sums no span of its own
    found = _nodes(lambda node: isinstance(node, ast.Call)
                   and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                   in ("hypot", "cumsum"), "fileio.py")
    assert not found, f"hypot or cumsum called in fileio.py: {found}"


def test_tree_has_no_overflow_detour():
    # every Schedule's |v| * t is finite by its span rule, so the tree neither watches for an
    # overflow nor hands a schedule back to the step loop
    for name in ("_cayley_klein_columns", "_composed_tree"):
        function = _function("dynamics.py", name)
        found = [node.lineno for node in ast.walk(function)
                 if (isinstance(node, ast.Attribute) and node.attr == "errstate")
                 or (isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
                     and node.value.value is None)]
        assert not found, f"{name} holds an errstate or a return None at lines {found}"


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


def test_cli_takes_suite_names_from_verify():
    # verify.SUITES names the suites once; the CLI's --suite choices are read from it
    found = _nodes(lambda node: isinstance(node, ast.Constant) and node.value in SUITES, "cli.py")
    assert not found, f"suite names spelled in cli.py: {found}"


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


def test_one_vector_reader():
    # a state, spinor or decomposition is read by states._unit alone, which holds it to the
    # unit-norm rule: no other complex coercion, no array round trip through as_state or
    # as_spinor, and no unchecked reader beside it
    tree = ast.parse((SOURCE / "states.py").read_text(encoding="utf-8"))
    reader = next((node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_unit"), None)
    inside = range(reader.lineno, reader.end_lineno + 1) if reader else range(0)

    def callee(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    def complex_coercion(node):
        if not (isinstance(node, ast.Call) and callee(node) == "asarray"):
            return False
        dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args[1:2]
        return any(getattr(t, "id", None) == "complex" or getattr(t, "attr", "").startswith(
            "complex") for t in dtypes)

    def round_trip(node):
        return (isinstance(node, ast.Call) and callee(node) == "tolist"
                and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Call)
                and callee(node.func.value) in ("as_state", "as_spinor"))

    def unchecked(node):
        return "_values" in (getattr(node, "name", None), getattr(node, "id", None),
                             getattr(node, "attr", None))

    for module in ("states.py", "dynamics.py", "measurement.py"):
        coercions = [where for where in _nodes(complex_coercion, module)
                     if not (module == "states.py" and int(where.split(":")[1]) in inside)]
        assert not coercions, f"complex coercion outside states._unit: {coercions}"
        found = _nodes(round_trip, module)
        assert not found, f"as_state or as_spinor read back through .tolist(): {found}"
        found = _nodes(unchecked, module)
        assert not found, f"_values named: {found}"
    assert reader, "states._unit is gone"


def test_reader_takes_no_option():
    # states._unit reads what callers pass by one rule, and as_spinor is a plain view of it:
    # nothing scales a vector on its way in
    for name, params in (("_unit", ["vector", "size"]), ("as_spinor", ["components"])):
        args = _function("states.py", name).args
        found = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
        assert found == params and not (args.vararg or args.kwarg), f"{name} takes {found}"


def test_separable_run_does_not_reread_its_own_spinors():
    # evolve_separable_state builds its amplitudes from the spinors it just rotated, whose
    # rounding outgrows the unit-norm rule on a long run, not through the public reconstruct
    called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
              for node in ast.walk(_function("dynamics.py", "evolve_separable_state"))
              if isinstance(node, ast.Call)}
    assert "reconstruct" not in called, "evolve_separable_state calls reconstruct"


def test_recurrence_sine_takes_its_band_from_angles():
    # the sine quotient takes chi, both thetas and the band refusals from states._bloch_angles,
    # the core of angles_from_state's _angles, in its words, and projects no gamma; the partial
    # trace is written once, in _bloch
    def calls(body):
        return {getattr(node.func, "id", None) for node in ast.walk(body)
                if isinstance(node, ast.Call)}

    body = _function("states.py", "recurrence_sine")
    assert "_bloch_angles" in calls(body), "recurrence_sine does not call _bloch_angles"
    assert "_angles" not in calls(body), "recurrence_sine calls _angles, which projects gamma"
    assert "_bloch_angles" in calls(_function("states.py", "_angles")), \
        "_angles does not call _bloch_angles"
    named = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    found = named & {"_entangled", "_spherical", "_bloch", "_chi", "HALF_PI"}
    assert not found, f"recurrence_sine names {sorted(found)}"
    found = _nodes(lambda node: isinstance(node, ast.FunctionDef) and node.name == "_reduced",
                   "states.py")
    assert not found, f"_reduced defined at {found}"


def test_separable_run_takes_one_start_rule():
    # one rule fixes the global phase: _carries_det_phase, the band test decompose and
    # fix_global_phase share, picks _det_fixed or the largest-amplitude rule, with no edge branch
    # of fix_global_phase's own; each turn leaves its own output alone, so the run's one turn,
    # _det_fixed's, starts the ledger and _decomposed returns no second one
    def band_test(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_carries_det_phase"

    run = _function("dynamics.py", "evolve_separable_state")
    called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
              for node in ast.walk(run) if isinstance(node, ast.Call)}
    assert {"_det_fixed", "_decomposed"} <= called, f"evolve_separable_state calls {called}"
    turns = {target.id for node in ast.walk(run)
             if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
             and getattr(node.value.func, "id", None) == "_det_fixed"
             for target in ast.walk(node.targets[0]) if isinstance(target, ast.Name)}
    starts = [node for node in ast.walk(run)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "PhaseLedger"]
    assert len(starts) == 1 and not starts[0].keywords and len(starts[0].args) == 1 \
        and getattr(starts[0].args[0], "id", None) in turns, \
        f"the ledger starts at {[ast.unparse(node) for node in starts]}"
    returns = [node.value for node in ast.walk(_function("states.py", "_decomposed"))
               if isinstance(node, ast.Return)]
    assert not any(isinstance(value, ast.Tuple) for value in returns), "_decomposed returns a turn"
    found = _nodes(lambda node: isinstance(node, ast.FunctionDef)
                   and node.name == "_ledger_decomposed", "states.py")
    assert not found, f"_ledger_decomposed defined at {found}"
    sites = _nodes(band_test)
    inside = sorted(f"states.py:{node.lineno}" for name in ("_decomposed", "_canonical_phase")
                    for node in ast.walk(_function("states.py", name)) if band_test(node))
    assert len(inside) == 2 and sorted(sites) == inside, f"_carries_det_phase called at {sites}"
    named = {node.id for node in ast.walk(_function("states.py", "_canonical_phase"))
             if isinstance(node, ast.Name)}
    assert "_edge" not in named, "_canonical_phase has an edge branch of its own"
