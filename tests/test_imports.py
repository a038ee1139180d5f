"""Every imported name in the package and its tests is read somewhere."""

import ast
from pathlib import Path

import pytest

import reentryguard

SRC = Path(reentryguard.__file__).parent
TESTS = Path(__file__).parent
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


def unread_imports(source: str) -> list[str]:
    """The names the module imports and never reads. A name listed in
    __all__ counts as read: the module exports it."""
    tree = ast.parse(source)
    imported: list[str] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_scan_sees_an_unread_import():
    assert unread_imports("import os\nfrom a import b, c as d\nprint(os)\n") == ["b", "d"]
    assert unread_imports("from a import b\n__all__ = ['b']\n") == []
