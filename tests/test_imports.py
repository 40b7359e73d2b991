"""Every top-level import of the package and of the tests is read somewhere.

No linter runs on this code, so this scan stands in for the unused-import rule.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO_ROOT / "src" / "mapflight").glob("*.py")) + sorted((REPO_ROOT / "tests").glob("*.py"))


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
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_the_scan_sees_unused_and_used_names():
    source = "import os\nimport a.b\nfrom x import y, z as w\nfrom __future__ import annotations\n" \
             "__all__ = ['y']\nprint(a)\n"
    assert unused_imports(source) == ["os", "w"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
