"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ncbench"
README = SRC.parent.parent / "README.md"


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


def _reads_numbers(tree, name):
    """True if the module reads numbers.<name>, as an attribute or by import."""
    return any(
        isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.ImportFrom)
        and node.module == "numbers"
        and any(alias.name == name for alias in node.names)
        for node in ast.walk(tree)
    )


def _reads_integral(tree):
    return _reads_numbers(tree, "Integral")


def test_one_integer_rule():
    # graphs._as_int is the package's integer rule; every other module calls it.
    modules = sorted(SRC.glob("*.py"))
    assert [p.name for p in modules if _reads_integral(ast.parse(p.read_text()))] == ["graphs.py"]


def test_detects_a_second_integer_rule():
    assert _reads_integral(ast.parse("import numbers\nisinstance(1, numbers.Integral)\n"))
    assert _reads_integral(ast.parse("from numbers import Integral\n"))
    assert not _reads_integral(ast.parse("import numbers\nisinstance(1, numbers.Real)\n"))


def test_one_real_rule():
    # graphs._as_real is the package's real-number rule; every other module calls it.
    modules = sorted(SRC.glob("*.py"))
    real = [p.name for p in modules if _reads_numbers(ast.parse(p.read_text()), "Real")]
    assert real == ["graphs.py"]


def test_detects_a_second_real_rule():
    assert _reads_numbers(ast.parse("import numbers\nisinstance(1.0, numbers.Real)\n"), "Real")
    assert _reads_numbers(ast.parse("from numbers import Real\n"), "Real")
    assert not _reads_numbers(ast.parse("import numbers\nnumbers.Integral\n"), "Real")


def _hands_to_numpy(tree):
    """True if the module hands a stream to numpy: calls .numpy() on it or
    reads a Generator's bit_generator."""
    return any(
        isinstance(node, ast.Attribute) and node.attr in {"numpy", "bit_generator"}
        for node in ast.walk(tree)
    )


def test_one_numpy_hand_over():
    # random_graphs._as_numpy is the one bridge from a Stream to numpy's
    # samplers; every other module passes the stream itself.
    modules = sorted(SRC.glob("*.py"))
    assert [p.name for p in modules if _hands_to_numpy(ast.parse(p.read_text()))] == [
        "random_graphs.py"
    ]


def test_detects_a_second_numpy_hand_over():
    assert _hands_to_numpy(ast.parse("gen = rng.numpy()\n"))
    assert _hands_to_numpy(ast.parse("state = gen.bit_generator.state\n"))
    assert not _hands_to_numpy(ast.parse("import numpy as np\nnp.random.default_rng(0)\n"))


# The builders that set a graph's fields with no door check.
UNCHECKED_BUILDERS = {"_built", "_compelled", "_fill"}


def _reads_unchecked_builder(tree):
    """True if the module names an unchecked builder: calls, reads or imports it."""
    return any(
        isinstance(node, ast.Name) and node.id in UNCHECKED_BUILDERS
        or isinstance(node, ast.Attribute) and node.attr in UNCHECKED_BUILDERS
        or isinstance(node, ast.ImportFrom)
        and any(alias.name in UNCHECKED_BUILDERS for alias in node.names)
        for node in ast.walk(tree)
    )


def test_unchecked_builds_stay_in_the_samplers_and_the_graph_core():
    # Every door that takes user or file input builds its graphs through the
    # checked constructors.
    modules = sorted(SRC.glob("*.py"))
    readers = [p.name for p in modules if _reads_unchecked_builder(ast.parse(p.read_text()))]
    assert readers == ["graphs.py", "random_graphs.py"]


def test_detects_an_unchecked_build():
    assert _reads_unchecked_builder(ast.parse("from .graphs import _built\n"))
    assert _reads_unchecked_builder(ast.parse("from . import graphs\ngraphs._compelled(1)\n"))
    assert _reads_unchecked_builder(ast.parse("_built(2, frozenset(), frozenset())\n"))
    assert _reads_unchecked_builder(ast.parse("from .graphs import Dag, _fill\n"))
    assert not _reads_unchecked_builder(ast.parse("from .graphs import Dag\nDag(2)\n"))


def _owners(tree, hit):
    """The innermost function each node for which hit(node) holds sits in,
    one entry per node in source order ("<module>" outside any function)."""
    owners = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if hit(node):
            owners.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return owners


def _setattr_owners(tree):
    """The innermost function each read of object.__setattr__ sits in."""
    return _owners(tree, lambda node: (
        isinstance(node, ast.Attribute)
        and node.attr == "__setattr__"
        and isinstance(node.value, ast.Name)
        and node.value.id == "object"
    ))


def _writer_callers(tree):
    """The innermost function each call of a record's writer, `x._set(...)`, sits in."""
    return _owners(tree, lambda node: (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_set"
    ))


def _writer_breaches(modules):
    """Where `modules` (file name -> parsed source) break the one-writer rule,
    as "file: function ...": each read of object.__setattr__ but the one in
    graphs._Record._set, and each call of the writer in graphs.py, whose
    records are the graphs, outside _fill."""
    breaches = []
    for name, tree in sorted(modules.items()):
        reads = _setattr_owners(tree)
        if name == "graphs.py":
            records = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Record"]
            if records and _setattr_owners(records[0]) == ["_set"]:
                reads.remove("_set")
            breaches += [
                f"graphs.py: {owner} writes a graph"
                for owner in _writer_callers(tree) if owner != "_fill"
            ]
        breaches += [f"{name}: {owner} reads object.__setattr__" for owner in reads]
    return breaches


def test_records_have_one_writer():
    # _Record._set is the one writer of every record's fields, and _fill the
    # one place a graph's are written, for the checked constructors and the
    # unchecked builds alike.
    modules = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert _writer_breaches(modules) == []
    assert _setattr_owners(modules["graphs.py"]) == ["_set"]
    assert set(_writer_callers(modules["graphs.py"])) == {"_fill"}


def test_detects_a_second_field_setter():
    source = (
        "def _fill(g):\n    object.__setattr__(g, 'd', 1)\n"
        "class Dag:\n    def __post_init__(self):\n"
        "        def inner():\n            object.__setattr__(self, 'd', 2)\n"
        "        setter = object.__setattr__\n"
        "object.__setattr__(g, 'd', 3)\n"
        "g.__setattr__('d', 4)\n"
    )
    assert _setattr_owners(ast.parse(source)) == ["_fill", "inner", "__post_init__", "<module>"]


def test_detects_a_second_record_writer():
    graphs = ast.parse(
        "class _Record:\n    def _set(self, **fields):\n"
        "        object.__setattr__(self, 'd', 1)\n"
        "def _fill(g):\n    g._set(d=1)\n"
        "def _relabel(g):\n    g._set(labels=())\n"
    )
    pc = ast.parse(
        "class PcConfig(_Record):\n    def __init__(self, alpha):\n"
        "        self._set(alpha=alpha)\n"
        "        object.__setattr__(self, 'alpha', alpha)\n"
    )
    assert _writer_breaches({"graphs.py": graphs, "pc.py": pc}) == [
        "graphs.py: _relabel writes a graph",
        "pc.py: __init__ reads object.__setattr__",
    ]
    # A function named _set outside _Record is not the writer.
    stray = ast.parse("def _set(g):\n    object.__setattr__(g, 'd', 1)\n")
    assert _writer_breaches({"graphs.py": stray}) == ["graphs.py: _set reads object.__setattr__"]


# full_report's wrappers: inside the package a metric value is a plain float
# or None, and only full_report, for its public callers, wraps them.
WRAPPERS = {"MetricValue", "MetricReport"}


def _names_a_wrapper(tree):
    """True if the module defines, reads or imports a metric wrapper class."""
    return any(
        isinstance(node, ast.Name) and node.id in WRAPPERS
        or isinstance(node, ast.Attribute) and node.attr in WRAPPERS
        or isinstance(node, ast.ClassDef) and node.name in WRAPPERS
        or isinstance(node, ast.ImportFrom) and any(alias.name in WRAPPERS for alias in node.names)
        for node in ast.walk(tree)
    )


def test_metric_wrappers_stay_in_metrics():
    modules = sorted(SRC.glob("*.py"))
    named = [p.name for p in modules if _names_a_wrapper(ast.parse(p.read_text()))]
    assert named == ["__init__.py", "metrics.py"]


def test_detects_a_metric_wrapper():
    assert _names_a_wrapper(ast.parse("from .metrics import MetricValue\n"))
    assert _names_a_wrapper(ast.parse("from . import metrics\nmetrics.MetricReport({})\n"))
    assert _names_a_wrapper(ast.parse("class MetricValue:\n    pass\n"))
    assert _names_a_wrapper(ast.parse("isinstance(v, MetricValue)\n"))
    assert not _names_a_wrapper(ast.parse("from .metrics import full_report\nfull_report(t, e)\n"))


def test_readme_python_examples_run():
    # Every ```python block of the README runs as written, each in a fresh namespace.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
