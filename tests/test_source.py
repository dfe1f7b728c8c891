"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ncbench"


def _unused_imports(tree):
    """Names bound by import statements that no expression reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_no_unused_imports(path):
    # __init__.py is skipped: its imports are the package's public names.
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c, d as e\nprint(c)\n")
    assert _unused_imports(tree) == ["e (line 2)", "os (line 1)"]


def _unreferenced_definitions(modules, exported):
    """Module-level functions and classes, as "module.name", that no module
    reads (as a name or an attribute) and that are not in `exported`.

    `modules` maps a module name to its parsed source."""
    read = set(exported)
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read
    )


def _exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_src_holds_only_what_the_package_runs():
    # A function only the tests call belongs in tests/reference.py.
    modules = {
        p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.name != "__init__.py"
    }
    assert _unreferenced_definitions(modules, _exported_names()) == []


def test_detects_an_unreferenced_definition():
    modules = {
        "a": ast.parse("def used(): pass\ndef helper(): pass\nclass Kept: pass\n"),
        "b": ast.parse("from .a import used\nused()\n"),
    }
    assert _unreferenced_definitions(modules, {"Kept"}) == ["a.helper"]


def _reads_integral(tree):
    """True if the module reads numbers.Integral, as an attribute or by import."""
    return any(
        isinstance(node, ast.Attribute) and node.attr == "Integral"
        or isinstance(node, ast.ImportFrom)
        and node.module == "numbers"
        and any(alias.name == "Integral" for alias in node.names)
        for node in ast.walk(tree)
    )


def test_one_integer_rule():
    # graphs._as_int is the package's integer rule; every other module calls it.
    modules = sorted(SRC.glob("*.py"))
    assert [p.name for p in modules if _reads_integral(ast.parse(p.read_text()))] == ["graphs.py"]


def test_detects_a_second_integer_rule():
    assert _reads_integral(ast.parse("import numbers\nisinstance(1, numbers.Integral)\n"))
    assert _reads_integral(ast.parse("from numbers import Integral\n"))
    assert not _reads_integral(ast.parse("import numbers\nisinstance(1, numbers.Real)\n"))
