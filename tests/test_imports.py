"""Static checks on the package source: no unused import, parameter or definition.

Every name a package module imports is used in that module, or imported
from it by the benchmark or the tools (a re-export), every parameter
a package function takes is read in its body, and every function and class
the package defines is named somewhere in the code that runs it: the
package, the benchmark (perfbench/) or the tools (tools/), never only in the
tests.  The package's modules import each other without a cycle, and only
at module level.  Every name the benchmark and the tools import from the
package exists there, inside function bodies too.
"""

from __future__ import annotations

import ast
import graphlib
import importlib
import os

import pytest

import patrolopt

PACKAGE_DIR = os.path.dirname(patrolopt.__file__)
MODULES = sorted(f for f in os.listdir(PACKAGE_DIR) if f.endswith(".py"))
REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The code outside the package that runs it; a definition only tests name is dead.
OUTSIDE_DIRS = ("perfbench", "tools")
CALLER_DIRS = ("src",) + OUTSIDE_DIRS


def read(path):
    with open(path) as fh:
        return fh.read()


def unused_imports(source: str, reexported=frozenset()):
    """(line, name) for each imported name the module never references.

    A name in reexported, one other code imports from the module, counts as
    used.
    """
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
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in reexported)


def unused_parameters(source: str):
    """(line, function, parameter) for each parameter its function never reads.

    self, cls and names that start with an underscore are exempt.  A nested
    function that reads an outer parameter counts as a read.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read_names = {n.id for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name)}
        out += [(node.lineno, node.name, p.arg) for p in params
                if p.arg not in ("self", "cls") and not p.arg.startswith("_")
                and p.arg not in read_names]
    return sorted(out)


def defined_names(source: str):
    """(line, name) for each function and class defined, dunders aside."""
    return sorted((node.lineno, node.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and not (node.name.startswith("__") and node.name.endswith("__")))


def referenced_names(sources):
    """Every name read as a bare name or as an attribute in any of the sources."""
    out = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def caller_sources(tops=CALLER_DIRS):
    for top in tops:
        for root, _, files in os.walk(os.path.join(REPO_DIR, top)):
            for f in sorted(files):
                if f.endswith(".py"):
                    yield read(os.path.join(root, f))


def reexports(sources, module):
    """The names any of the sources imports from patrolopt.<module>."""
    return {name for source in sources for _, imported_from, name in package_names_imported(source)
            if imported_from == f"patrolopt.{module}"}


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys\nfrom typing import List, Set\nx: List[int] = sys.argv\n"
    assert unused_imports(source) == [(1, "os"), (3, "Set")]
    # a caller that imports Set from the module makes it a re-export; os
    # stays unused, and so does an import a caller takes from another module
    callers = ["from patrolopt.graph import Set, os\n",
               "def setup():\n    from patrolopt.plan import Set\n"]
    assert unused_imports(source, reexports(callers, "plan")) == [(1, "os")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    reexported = reexports(caller_sources(OUTSIDE_DIRS), module[:-3])
    assert unused_imports(read(os.path.join(PACKAGE_DIR, module)), reexported) == []


def test_the_check_sees_an_unused_parameter():
    source = (
        "def walk(route, graph, *, _spare=None, **extra):\n"
        "    def inner(step):\n"
        "        return route[step]\n"
        "    return inner(0)\n"
        "class Plan:\n"
        "    def size(self, unit):\n"
        "        return 1\n"
    )
    assert unused_parameters(source) == [(1, "walk", "extra"), (1, "walk", "graph"),
                                         (6, "size", "unit")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_parameters(module):
    assert unused_parameters(read(os.path.join(PACKAGE_DIR, module))) == []


def test_the_check_sees_a_dead_definition():
    package = ("class Graph:\n"
               "    def __len__(self):\n"
               "        return 0\n"
               "    def num_edges(self):\n"
               "        return 0\n"
               "def walk_length(graph):\n"
               "    return len(graph)\n"
               "class Unused:\n"
               "    pass\n")
    callers = [package, "from graph import Graph, walk_length\nwalk_length(Graph())\n"]
    referenced = referenced_names(callers)
    assert [d for d in defined_names(package) if d[1] not in referenced] == [
        (4, "num_edges"), (8, "Unused")]


def test_every_definition_has_a_caller_outside_the_tests():
    referenced = referenced_names(caller_sources())
    dead = [(module, line, name) for module in MODULES
            for line, name in defined_names(read(os.path.join(PACKAGE_DIR, module)))
            if name not in referenced]
    assert dead == []


def package_imports(source: str):
    """The package modules a module imports, counting imports at every depth."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["patrolopt" if node.level else "", node.module]))
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        out.update(name.split(".")[1] for name in names if name.startswith("patrolopt.")
                   and f"{name.split('.')[1]}.py" in MODULES)
    return out


def test_greedy_imports_nothing_from_the_package_but_graph():
    # certify imports greedy, so greedy importing anything above graph
    # could close a cycle
    source = read(os.path.join(PACKAGE_DIR, "greedy.py"))
    assert package_imports(source) == {"graph"}
    assert package_imports(source + "from .milp import ModelError\n") == {"graph", "milp"}


def function_imports(source: str):
    """(line, function) for each import inside a function body."""
    return sorted({(node.lineno, fn.name) for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_modules_import_each_other_without_a_cycle_and_only_at_module_level():
    sources = {module[:-3]: read(os.path.join(PACKAGE_DIR, module)) for module in MODULES}
    graph = {name: package_imports(source) for name, source in sources.items()}
    assert graph["simulator"] >= {"certify", "graph", "greedy", "milp", "tocp"}
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    assert [(name, line, fn) for name, source in sources.items()
            for line, fn in function_imports(source)] == []


def package_names_imported(source: str):
    """(line, module, name) for each `from patrolopt... import name`, at any depth."""
    return sorted((node.lineno, node.module, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom) and node.level == 0
                  and (node.module or "").split(".")[0] == "patrolopt"
                  for alias in node.names)


def unresolved(imports):
    """The (line, module, name) imports whose module lacks name as attribute or submodule."""
    missing = []
    for line, module, name in imports:
        try:
            if not hasattr(importlib.import_module(module), name):
                importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append((line, module, name))
    return missing


def test_the_check_sees_an_import_that_does_not_resolve():
    source = ("from patrolopt import milp, no_such_module\n"
              "def setup():\n"
              "    from patrolopt.tocp import build_tocp, no_such_name\n")
    assert unresolved(package_names_imported(source)) == [
        (1, "patrolopt", "no_such_module"), (3, "patrolopt.tocp", "no_such_name")]


@pytest.mark.parametrize("top", OUTSIDE_DIRS)
def test_benchmark_and_tools_import_only_what_the_package_has(top):
    missing = []
    for root, _, files in os.walk(os.path.join(REPO_DIR, top)):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(root, f)
                missing += [(os.path.relpath(path, REPO_DIR), *entry)
                            for entry in unresolved(package_names_imported(read(path)))]
    assert missing == []
