"""Source-level guards over the `cohsim` package."""

import ast
import pathlib

import cohsim

SRC = pathlib.Path(cohsim.__file__).parent


def test_no_assert_statements():
    """`python -O` strips asserts, so no check in the package may be one."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
