"""No module of the package or of the tests imports a name at module
level that it never uses, unless the name is exported in ``__all__`` or
the import is marked ``# noqa: F401``. This is the pyflakes F401 rule,
checked with ``ast`` so that it runs without a linter installed."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [*(ROOT / "src" / "prepaid_ems").rglob("*.py"), *(ROOT / "tests").glob("*.py")]
)


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports at module level and never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        statement = lines[node.lineno - 1 : node.end_lineno]
        if any("# noqa: F401" in line for line in statement):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def test_guard_catches_unused_import():
    source = (
        "import sys\n"
        "import os.path\n"
        "from json import dumps as d, loads\n"
        "from math import pi  # noqa: F401\n"
        "from numbers import (  # noqa: F401\n"
        "    Real,\n"
        ")\n"
        "__all__ = ['loads']\n"
        "print(os.path.sep)\n"
    )
    assert unused_imports(source) == ["line 1: sys", "line 3: d"]


@pytest.mark.parametrize(
    "path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES]
)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
