"""No library module imports a name it never uses.

Each src/fscoloring module except the package's __init__ is parsed with
ast; every name an import binds must be read somewhere in the module.
`from __future__` imports are exempt, and so is each name listed in
RE_EXPORTED, which a module imports only for others to read from it.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "fscoloring"
MODULES = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")

# module stem -> names imported only to be re-exported
RE_EXPORTED = {"harness": {"default_config"}}  # perfbench reads harness.default_config


def unused_imports(source):
    """The names the imports of source bind that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert sorted(unused - RE_EXPORTED.get(path.stem, set())) == []


def test_walk_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os.path, re as regex\n"
              "from typing import Callable, Optional\n"
              "def f(x: Optional[int]): return os.sep\n")
    assert unused_imports(source) == {"regex", "Callable"}
