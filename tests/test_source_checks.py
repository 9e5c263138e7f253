"""Checks over the library source itself."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "prosk"


def test_no_assert_statements_in_library():
    # `assert` vanishes under python -O; runtime invariants raise
    # InvariantViolated and argument checks raise UsageError instead
    found = []
    files = sorted(SRC.rglob("*.py"))
    assert files
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/prosk: {found}"
