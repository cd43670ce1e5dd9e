"""The package's modules import each other only at module level, in an acyclic graph
in which specfun, the numerical base under every other layer, imports only errors.

An import inside a function hides a dependency from this graph, and a cycle makes
the import order decide which names exist; both are read from the source here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sigmadiv"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


def _imported(node):
    """The package modules an import statement names ('__init__' for the package)."""
    if isinstance(node, ast.ImportFrom):
        parts = (node.module or "").split(".")
        if node.level == 1 and node.module:
            return [parts[0]]
        if node.level == 1 or (node.level == 0 and node.module == "sigmadiv"):
            return [a.name if a.name in MODULES else "__init__" for a in node.names]
        if node.level == 0 and parts[0] == "sigmadiv":
            return [parts[1]]
    elif isinstance(node, ast.Import):
        return [(a.name.split(".") + ["__init__"])[1] for a in node.names
                if a.name.split(".")[0] == "sigmadiv"]
    return []


def _tree(name):
    return ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))


GRAPH = {name: {m for node in _tree(name).body for m in _imported(node)} for name in MODULES}


@pytest.mark.parametrize("name", MODULES)
def test_package_imports_are_module_level(name):
    tree = _tree(name)
    top = set(map(id, tree.body))
    nested = [node.lineno for node in ast.walk(tree)
              if _imported(node) and id(node) not in top]
    assert nested == []


def test_import_graph_is_acyclic():
    done, path = set(), []

    def visit(name):
        assert name not in path, " -> ".join(path + [name])
        if name in done:
            return
        path.append(name)
        for dep in sorted(GRAPH[name]):
            visit(dep)
        path.pop()
        done.add(name)

    for name in MODULES:
        visit(name)


def test_specfun_imports_only_errors():
    assert GRAPH["specfun"] == {"errors"}
    assert GRAPH["errors"] == set()


def test_taxo_starts_no_threads():
    # the Dirichlet-process branches are fit on the calling thread: worker threads
    # never made the fit faster, since the branch fits are Python work under the GIL
    names = set()
    for node in ast.walk(_tree("taxo")):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
    assert not {name.split(".")[0] for name in names} & {"threading", "concurrent"}
