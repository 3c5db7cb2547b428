"""Every fscoloring name the benchmark and the demos use still resolves.

perfbench/ and demos/ run outside the test suite, so a library name they
import, or read as module.attr, could be deleted without any test
failing.  This walks their source with ast and resolves each such name.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


_MISSING = object()


def resolve(module, name):
    """module.name, importing it when it is a submodule; _MISSING if absent."""
    try:
        return importlib.import_module("%s.%s" % (module, name))
    except ImportError:
        return getattr(importlib.import_module(module), name, _MISSING)


def used_names(tree):
    """(module, attribute) pairs for every fscoloring name the source uses:
    each `from fscoloring... import name`, and each `alias.attr` where alias
    is bound to an fscoloring module."""
    aliases, used = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fscoloring":
            for alias in node.names:
                used.append((node.module, alias.name))
                value = resolve(node.module, alias.name)
                if isinstance(value, ModuleType):
                    aliases[alias.asname or alias.name] = value.__name__
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "fscoloring":
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.append((aliases[node.value.id], node.attr))
    return used


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: "%s/%s" % (path.parent.name, path.name))
def test_fscoloring_names_resolve(script):
    used = used_names(ast.parse(script.read_text(encoding="utf-8")))
    missing = ["%s.%s" % pair for pair in used if resolve(*pair) is _MISSING]
    assert missing == []


def test_walk_sees_module_attributes():
    used = used_names(ast.parse(
        "from fscoloring import treecolor, cli\n"
        "from fscoloring.treecolor import lift_tri\n"
        "treecolor.MemoRequest(cli.main)\n"
    ))
    assert sorted(used) == [
        ("fscoloring", "cli"), ("fscoloring", "treecolor"), ("fscoloring.cli", "main"),
        ("fscoloring.treecolor", "MemoRequest"), ("fscoloring.treecolor", "lift_tri"),
    ]
    assert resolve("fscoloring.treecolor", "CountingRequest") is _MISSING
