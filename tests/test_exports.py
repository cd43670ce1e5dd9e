"""Every public name the package declares or re-exports exists.

A deleted function or dataclass field can leave its name behind in a module's
`__all__` (found only by `from module import *`) or in the package's
re-export table; these tests find it.
"""

import importlib
import pkgutil

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
    # the package resolves its public names through one name -> module table
    assert sigmadiv._EXPORTS
    for name, module_name in sigmadiv._EXPORTS.items():
        module = importlib.import_module(f"sigmadiv.{module_name}")
        assert hasattr(module, name), (module_name, name)
        assert getattr(sigmadiv, name) is getattr(module, name)


def test_package_public_names():
    # dir() and `import *` list every re-export and every layer, though a layer
    # executes only on its first attribute access
    public = set(sigmadiv._EXPORTS) | {name for name in MODULES if name != "cli"}
    namespace = {}
    exec("from sigmadiv import *", namespace)
    assert {name for name in namespace if not name.startswith("_")} == public
    assert {name for name in dir(sigmadiv) if not name.startswith("_")} - {"cli"} == public
