"""Checks over the package source itself."""

import ast
import re
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


REPO_DIR = Path(__file__).resolve().parents[1]


def _module_level_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_module_level_name_is_used():
    # a name the package defines but nothing mentions again (code, tests,
    # the benchmark, a string naming it) is dead; dunders are the language's
    package = REPO_DIR / "src" / "dvcm"
    definitions: dict[str, int] = {}
    for path in sorted(package.rglob("*.py")):
        for name in _module_level_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if not (name.startswith("__") and name.endswith("__")):
                definitions[name] = definitions.get(name, 0) + 1
    assert definitions
    words: dict[str, int] = {}
    for top in ("src", "tests", "perfbench"):
        for path in (REPO_DIR / top).rglob("*.py"):
            for word in re.findall(r"\w+", path.read_text(encoding="utf-8")):
                words[word] = words.get(word, 0) + 1
    unused = sorted(name for name, count in definitions.items() if words[name] <= count)
    assert unused == []
