import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_cli_import_leaves_out_scipy_interpolate():
    """The B-spline interpolator is numpy only: importing the CLI costs no scipy.interpolate."""
    src = os.path.dirname(prosep.__path__[0])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, prosep.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"
