"""Every name a package module imports is used somewhere in that module."""

from __future__ import annotations

import ast
import os

import pytest

import patrolopt

PACKAGE_DIR = os.path.dirname(patrolopt.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))


def unused_imports(source: str):
    """(line, name) for each imported name the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys\nfrom typing import List, Set\nx: List[int] = sys.argv\n"
    assert unused_imports(source) == [(1, "os"), (3, "Set")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE_DIR, module)) as fh:
        assert unused_imports(fh.read()) == []
