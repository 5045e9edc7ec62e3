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


def test_only_the_cli_imports_gc():
    # the collector's state is process-global; library code leaves it alone
    importers = sorted(
        str(path.relative_to(PACKAGE_DIR))
        for path in PACKAGE_DIR.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "gc")
    )
    assert importers == ["cli.py"]
