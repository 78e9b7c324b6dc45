import importlib
import pkgutil

import pytest

import prosep

MODULES = sorted(m.name for m in pkgutil.iter_modules(prosep.__path__))


def test_module_list_covers_the_package():
    assert {"analysis", "cli", "psmodel", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"prosep.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
