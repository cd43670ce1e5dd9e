"""Every public name the package declares or re-exports exists.

A deleted function or dataclass field can leave its name behind in a module's
`__all__` (found only by `from module import *`) or in the package's
re-exports; these tests find it without importing `*`.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sigmadiv

MODULES = sorted(m.name for m in pkgutil.iter_modules(sigmadiv.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"sigmadiv.{name}")
    declared = getattr(module, "__all__", [])
    assert len(set(declared)) == len(declared), name
    assert [n for n in declared if not hasattr(module, n)] == []


def test_package_reexports_exist():
    tree = ast.parse(Path(sigmadiv.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"sigmadiv.{node.module}")
        for alias in node.names:
            assert hasattr(module, alias.name), (node.module, alias.name)
            assert getattr(sigmadiv, alias.asname or alias.name) is getattr(module, alias.name)
