"""Source hygiene checks over the package modules."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mediatrix"
# read by no package code, yet used: the round-trip API that criterion 8 is
# specified on, and the override that argparse calls itself
CALLED_FROM_OUTSIDE = {
    "scenario.serialize_scenario",
    "transcript.to_dict",
    "transcript.parse_transcript",
    "cli._ArgumentParser.error",
}


# an exact ratchet on the package's size: a change to src/mediatrix moves this pin, so its diff states the
# size change, and one that grows the package says why in CHANGES.md
SOURCE_LINES = 3360


def test_the_package_stays_within_its_pinned_line_count():
    lines = sum(len(p.read_text().splitlines()) for p in SRC.glob("*.py"))
    assert lines == SOURCE_LINES, f"src/mediatrix has {lines} lines, not the {SOURCE_LINES} pinned"


def unused_imports(source: str) -> list[str]:
    """Names bound by `from ... import` that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ are exported, hence used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("from a import b, c\nc()\n") == ["b (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_imports(path.read_text()) == []


def _definitions(node: ast.AST, prefix: str):
    """(qualified name, node) of every function, method and class under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{child.name}", child
            yield from _definitions(child, f"{prefix}.{child.name}")
        else:
            yield from _definitions(child, prefix)


def dead_definitions(modules: dict[str, str], readers: list[str]) -> list[str]:
    """Definitions in `modules` (name -> source) whose name no reader reads.

    A definition counts as read when a reader mentions its name as a
    variable or an attribute. Dunder methods and the qualified names in
    CALLED_FROM_OUTSIDE count as read; a name that only `__all__` lists
    does not.
    """
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, source in sorted(modules.items()):
        for qualname, node in _definitions(ast.parse(source), module):
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not (dunder or node.name in read or qualname in CALLED_FROM_OUTSIDE):
                dead.append(f"{qualname} (line {node.lineno})")
    return dead


def test_scan_finds_a_dead_definition():
    source = "def f(): pass\ndef g(): f()\nclass C:\n    def __init__(self): pass\n    def h(self): pass\n"
    assert dead_definitions({"m": source}, [source, "m.C().h()", "__all__ = ['g']"]) == ["m.g (line 2)"]


def test_every_definition_is_read():
    # the package is its own only reader: code that only tests call belongs under tests/
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert dead_definitions(modules, list(modules.values())) == []


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _is_record(cls: ast.ClassDef) -> bool:
    """A dataclass or a `NamedTuple` class: each annotated name in its body is a field."""
    named = any(isinstance(base, ast.Name) and base.id == "NamedTuple" for base in cls.bases)
    return named or any(_is_dataclass(d) for d in cls.decorator_list)


def unread_fields(modules: dict[str, str], readers: list[str]) -> list[str]:
    """Dataclass and `NamedTuple` fields in `modules` (name -> source) whose name no reader reads as an attribute."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, source in sorted(modules.items()):
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and _is_record(cls):
                for stmt in cls.body:
                    if isinstance(stmt, ast.AnnAssign) and stmt.target.id not in read:
                        unread.append(f"{module}.{cls.name}.{stmt.target.id} (line {stmt.lineno})")
    return unread


def test_scan_finds_an_unread_field():
    source = (
        "@dataclass(frozen=True)\nclass P:\n    a: int\n    b: int\n\nclass Q:\n    c: int\n\n"
        "class R(NamedTuple):\n    d: int\n    e: int\n"
    )
    readers = [source, "P(1, 2).a = 3\nprint(P(1, 2).b, R(1, 2).e)"]
    assert unread_fields({"m": source}, readers) == ["m.P.a (line 3)", "m.R.d (line 10)"]


def test_every_dataclass_field_is_read():
    # transcript records are written and read generically, through `fields()`
    modules = {p.stem: p.read_text() for p in SRC.glob("*.py") if p.stem != "transcript"}
    # this file reads ast nodes' fields, whose names would hide unread ones
    tests = [p for p in TESTS.glob("*.py") if p.name != Path(__file__).name]
    readers = [p.read_text() for p in list(SRC.glob("*.py")) + tests]
    assert unread_fields(modules, readers) == []


def _imported_from(source: str, module: str) -> set[str]:
    """Names a module's source imports from the sibling `module`, and `module` itself when imported whole."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.module in (module, f"mediatrix.{module}"):
                names |= {alias.name for alias in node.names}
            elif node.module in (None, "mediatrix"):
                names |= {alias.name for alias in node.names if alias.name == module}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names if alias.name == f"mediatrix.{module}"}
    return names


def test_scan_finds_every_import_from_a_module():
    source = "from .m import a, b\nfrom . import m\nimport mediatrix.m\nfrom .n import c\n"
    assert _imported_from(source, "m") == {"a", "b", "m", "mediatrix.m"}


def test_the_oracle_takes_only_the_planner_from_the_mediator():
    # the oracle certifies the planner, so it reuses none of the mediator's helpers; `create_solution`
    # is the name it calls the planner through, which the benchmark patches
    assert _imported_from((SRC / "oracle.py").read_text(), "mediator") == {"create_solution"}


def _private_attributes(cls: ast.ClassDef) -> set[str]:
    """The non-dunder `_` names a class defines: its methods and the attributes its code assigns."""
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_only_logic_reads_a_theory_private_attribute():
    logic = ast.parse((SRC / "logic.py").read_text())
    (theory,) = [n for n in logic.body if isinstance(n, ast.ClassDef) and n.name == "Theory"]
    private = _private_attributes(theory)
    assert {"_entries", "_keys"} <= private
    reads = [
        f"{p.stem}: .{node.attr} (line {node.lineno})"
        for p in sorted(SRC.glob("*.py"))
        if p.stem != "logic"
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in private
    ]
    assert reads == []
