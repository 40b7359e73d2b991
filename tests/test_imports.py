"""Every top-level import of the package and of the tests is read somewhere,
and every top-level def, class or assigned constant of the package, and every
method or property of its classes, is read somewhere in it.

No linter runs on this code, so these scans stand in for the unused-import
and dead-code rules.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((REPO_ROOT / "src" / "mapflight").glob("*.py"))
SOURCES = PACKAGE + sorted((REPO_ROOT / "tests").glob("*.py"))


def exported(tree: ast.Module) -> set[str]:
    """The names listed in the module's `__all__`."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that the module never reads.

    A name counts as read when it appears as a name anywhere in the module or is
    listed in `__all__`.
    """
    tree = ast.parse(source)
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.extend((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
    return [name for name in bound if name not in read]


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """`module.name` of each top-level def or class, and `module.Class.name` of
    each method or property other than a dunder, that no module of `sources` reads.

    A top-level name counts as read when it appears anywhere in the sources as a
    name or as an attribute, or is listed in an `__all__`. A method or property
    counts as read only when it appears as an attribute.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    names: set[str] = set()
    attributes: set[str] = set()
    for tree in trees.values():
        names |= exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    read = names | attributes
    unread: list[str] = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)) and node.name not in read:
                unread.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                unread += [f"{module}.{node.name}.{m.name}" for m in node.body if isinstance(m, functions)
                           and not (m.name.startswith("__") and m.name.endswith("__")) and m.name not in attributes]
    return unread


def unread_constants(sources: dict[str, str]) -> list[str]:
    """`module.name` of each name that a top-level assignment binds, dunders
    aside, that no module of `sources` reads.

    A constant counts as read only when it is loaded as a name, appears as an
    attribute, or is listed in an `__all__`; its own assignment does not count.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read: set[str] = set()
    for tree in trees.values():
        read |= exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread: list[str] = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            bound = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            unread += [f"{module}.{name}" for name in bound
                       if not (name.startswith("__") and name.endswith("__")) and name not in read]
    return unread


# names that only code outside the package reads, each with the reason it stays
READ_OUTSIDE_THE_PACKAGE = {
    # perfbench/worker.py writes errors.json through it; it goes when the
    # benchmark harness stops reading it (ROADMAP item 1)
    "cli._write_json",
    # the golden log pins hash the whole poses.csv and error_series.csv text,
    # and perfbench's fly-swarm writes the latter through series_csv; the
    # package writes the same chunks one row block at a time through write_csv
    "flightsim.PoseLog.to_csv",
    "flightsim.ErrorReport.series_csv",
}


def test_the_scan_sees_unused_and_used_names():
    source = "import os\nimport a.b\nfrom x import y, z as w\nfrom __future__ import annotations\n" \
             "__all__ = ['y']\nprint(a)\n"
    assert unused_imports(source) == ["os", "w"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_unread_and_read_definitions():
    sources = {
        "a": "def dead(): pass\ndef called(): pass\nclass Listed: pass\n__all__ = ['Listed']\nx = called\n",
        "b": "import a\ndef _helper(): pass\nclass Typed: pass\ny: Typed = a.attr_read()\ndef attr_read(): _helper()\n",
    }
    assert unread_definitions(sources) == ["a.dead"]


def test_the_scan_sees_unread_and_read_methods():
    source = (
        "class C:\n"
        "    def __init__(self): pass\n"
        "    def called(self): pass\n"
        "    @property\n"
        "    def shown(self): pass\n"
        "    def dead(self): pass\n"
        "    def named(self): pass\n"
        "    @property\n"
        "    def unshown(self): pass\n"
        "c = C()\nc.called()\nprint(c.shown, named)\n"
    )
    assert unread_definitions({"a": source}) == ["a.C.dead", "a.C.named", "a.C.unshown"]


def test_every_top_level_definition_is_read():
    unread = unread_definitions({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE})
    assert [name for name in unread if name not in READ_OUTSIDE_THE_PACKAGE] == []


def test_the_scan_sees_unread_and_read_constants():
    sources = {
        "a": "__version__ = '1'\nDEAD = 1\nLOADED = 2\nLISTED: int = 3\nA, (B, C) = 4, (5, 6)\n"
             "d = {}\nd['k'] = LOADED\n__all__ = ['LISTED']\n",
        "b": "import a\nprint(a.B, C)\n",
    }
    assert unread_constants(sources) == ["a.DEAD", "a.A"]


def test_every_top_level_constant_is_read():
    unread = unread_constants({p.stem: p.read_text(encoding="utf-8") for p in PACKAGE})
    assert [name for name in unread if name not in READ_OUTSIDE_THE_PACKAGE] == []
