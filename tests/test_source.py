"""Checks over the package source itself."""

import ast
from pathlib import Path

import dvcm

PACKAGE_DIR = Path(dvcm.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips asserts, so an invariant must be checked by code
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
