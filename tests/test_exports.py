import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import prosep
import prosep.cli

MODULES = sorted(m.name for m in pkgutil.iter_modules(prosep.__path__))


def test_module_list_covers_the_package():
    assert {"analysis", "cli", "psmodel", "solver"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"prosep.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


# prepended to a child's code: any ``import scipy`` or ``import scipy.*`` raises
BLOCK_SCIPY = """
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
"""


def run_python(code):
    """Run ``code`` in a fresh interpreter that imports prosep from this checkout."""
    src = os.path.dirname(prosep.__path__[0])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)


def test_cli_import_loads_no_scipy():
    """The runtime is numpy only: importing the CLI loads no scipy module at all."""
    code = ("import sys, prosep.cli\n"
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def loaded_after(argv=None):
    """(exit code, loaded) of ``main(argv)`` in a fresh interpreter; None: the import alone.

    ``loaded`` is the set of prosep modules it then holds, by their names in
    the package, with "numpy" added when numpy is loaded.
    """
    code = ("import json, sys\n"
            "from prosep.cli import main\n"
            f"code = None if {argv!r} is None else main({argv!r})\n"
            "names = [m[len('prosep.'):] for m in sys.modules if m.startswith('prosep.')]\n"
            "print(json.dumps([code, names + ['numpy'] * ('numpy' in sys.modules)]))\n")
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    code, loaded = json.loads(out.stdout.strip().splitlines()[-1])
    return code, set(loaded)


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    """A small simulated and reconstructed run: (simulate dir, reconstruct dir)."""
    sim, rec = (str(tmp_path_factory.mktemp(name)) for name in ("sim", "rec"))
    assert prosep.cli.main(["simulate", "--out", sim, "--P", "16", "--width", "16",
                            "--K", "1", "--N", "3", "--d", "2"]) == 0
    assert prosep.cli.main(["reconstruct", "--input", sim, "--out", rec]) == 0
    return sim, rec


def test_cli_import_loads_no_numpy():
    """``import prosep.cli`` loads the standard library, ``errors`` and ``settings`` only."""
    assert loaded_after() == (None, {"cli", "errors", "settings"})


def test_simulate_loads_neither_solver_nor_recon(tmp_path):
    code, loaded = loaded_after(["simulate", "--out", str(tmp_path / "sim"), "--P", "16",
                                  "--width", "16", "--K", "1", "--N", "3", "--d", "2"])
    assert code == 0
    assert {"phantom", "radon", "numpy"} <= loaded
    assert not loaded & {"solver", "recon", "analysis"}


def test_reconstruct_loads_no_phantom(run_dirs, tmp_path):
    sim, _ = run_dirs
    code, loaded = loaded_after(["reconstruct", "--input", sim, "--out", str(tmp_path)])
    assert code == 0
    assert {"solver", "recon"} <= loaded
    assert not loaded & {"phantom", "analysis"}


def test_metrics_loads_no_solver(run_dirs, tmp_path):
    sim, rec = run_dirs
    code, loaded = loaded_after(["metrics", "--movie", os.path.join(rec, "movie.tensor"),
                                  "--benchmark", os.path.join(sim, "benchmark_movie.tensor"),
                                  "--out", str(tmp_path / "metrics.csv")])
    assert code == 0
    assert {"phantom", "recon"} <= loaded
    assert not loaded & {"solver", "analysis"}


def test_analyze_loads_none_of_the_pipeline_modules(tmp_path):
    code, loaded = loaded_after(["analyze", "--table1", "--thm2", "--P", "16", "--K", "1",
                                  "--N", "3", "--trials", "2", "--out", str(tmp_path)])
    assert code == 0
    assert {"analysis", "numpy"} <= loaded
    assert not loaded & {"phantom", "radon", "recon", "solver"}


@pytest.mark.parametrize("argv", [
    ["analyze", "--out", "{out}"],  # no study chosen
    ["analyze", "--bounds", "--bandwidth", "nan", "--out", "{out}"],  # _ANALYZE_FLAGS checks
    ["simulate", "--out", "{out}", "--P", "1"],  # _FIELDS checks
    ["simulate", "--out", "{out}", "--noise-sigma", "nan"],
    ["reconstruct", "--input", "{sim}", "--out", "{out}", "--d", "0"],
], ids=["analyze-no-study", "analyze-nan", "simulate-P", "simulate-nan", "reconstruct-d"])
def test_error_paths_load_no_numpy(run_dirs, tmp_path, argv):
    """A refusal that needs no numeric code exits 1 before it imports any, and writes nothing."""
    out = tmp_path / "out"
    argv = [a.format(out=out, sim=run_dirs[0]) for a in argv]
    assert loaded_after(argv) == (1, {"cli", "errors", "settings"})
    assert not out.exists()


def test_simulate_and_reconstruct_load_no_numpy_ma(tmp_path):
    """The pipeline stages never import ``numpy.ma`` (``np.unique`` would, in numpy 2.4)."""
    sim, rec = str(tmp_path / "sim"), str(tmp_path / "rec")
    stages = [
        ["simulate", "--out", sim, "--P", "16", "--width", "16", "--K", "1", "--N", "3",
         "--d", "2", "--scheme", "random"],
        ["reconstruct", "--input", sim, "--out", rec],
    ]
    code = ("import sys\n"
            "from prosep.cli import main\n"
            f"for argv in {stages!r}:\n"
            "    if main(argv) != 0:\n"
            "        raise SystemExit(f'{argv[0]} failed')\n"
            "print('numpy.ma' in sys.modules)\n")
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "False"


def test_reconstruct_and_metrics_load_no_numpy_random(tmp_path):
    """A closed-form reconstruct (d = K+1) and metrics, each in its own interpreter.

    The first use of ``numpy.random`` costs about 5 MB of resident
    memory; only a random scheme, noise or a d > K+1 descent needs it.
    """
    sim, rec = str(tmp_path / "sim"), str(tmp_path / "rec")
    assert prosep.cli.main(["simulate", "--out", sim, "--P", "16", "--width", "16",
                            "--K", "1", "--N", "3", "--d", "2"]) == 0
    stages = [
        ["reconstruct", "--input", sim, "--out", rec],
        ["metrics", "--movie", os.path.join(rec, "movie.tensor"),
         "--benchmark", os.path.join(sim, "benchmark_movie.tensor"),
         "--out", os.path.join(rec, "metrics.csv")],
    ]
    for argv in stages:
        code = ("import sys\n"
                "from prosep.cli import main\n"
                f"if main({argv!r}) != 0:\n"
                "    raise SystemExit('failed')\n"
                "print('numpy.random' in sys.modules)\n")
        out = run_python(code)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip().splitlines()[-1] == "False", argv[0]


def test_scipy_blocker_blocks():
    out = run_python(BLOCK_SCIPY + "import scipy.linalg")
    assert out.returncode != 0 and "scipy is blocked" in out.stderr


def test_every_cli_stage_runs_without_scipy(tmp_path):
    """simulate, reconstruct, metrics and analyze --thm2 with ``import scipy`` failing.

    A lazy scipy import inside any stage raises, so the stage fails.
    """
    sim, rec, ana = (str(tmp_path / name) for name in ("sim", "rec", "ana"))
    stages = [
        ["simulate", "--out", sim, "--P", "16", "--width", "16", "--K", "1", "--N", "3",
         "--d", "2", "--scheme", "bit_reversed", "--symmetric", "on"],
        ["reconstruct", "--input", sim, "--out", rec],
        ["metrics", "--movie", os.path.join(rec, "movie.tensor"),
         "--benchmark", os.path.join(sim, "benchmark_movie.tensor"),
         "--out", os.path.join(rec, "metrics.csv")],
        ["analyze", "--thm2", "--out", ana, "--P", "16", "--K", "1", "--N", "3",
         "--trials", "2"],
    ]
    code = BLOCK_SCIPY + (
        "from prosep.cli import main\n"
        f"for argv in {stages!r}:\n"
        "    if main(argv) != 0:\n"
        "        raise SystemExit(f'{argv[0]} failed')\n"
    )
    out = run_python(code)
    assert out.returncode == 0, out.stderr
    assert os.path.getsize(os.path.join(rec, "metrics.csv")) > 0
    assert os.path.getsize(os.path.join(ana, "thm2.csv")) > 0
