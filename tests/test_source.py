"""Rules the package source itself must keep."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qubitpair"


def test_no_assert_statements():
    # python -O strips asserts, so no correctness check may live in one
    modules = sorted(SOURCE.glob("*.py"))
    assert modules, f"no modules found under {SOURCE}"
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"
