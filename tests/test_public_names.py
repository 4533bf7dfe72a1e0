"""Every public name resolves: each module's `__all__` and every name the
package imports, so a deleted function cannot leave a dangling export."""

import importlib
from pathlib import Path

import pytest

import oscount

PACKAGE = Path(oscount.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"oscount.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_name_the_package_imports_resolves():
    # the package imports lazily, from one name -> submodule table
    assert oscount._EXPORTS
    assert sorted(oscount.__all__) == sorted(oscount._EXPORTS)
    for name, module in oscount._EXPORTS.items():
        submodule = importlib.import_module(f"oscount.{module}")
        assert hasattr(submodule, name), (module, name)
        assert getattr(oscount, name) is getattr(submodule, name), (module, name)
        assert name in dir(oscount), name
