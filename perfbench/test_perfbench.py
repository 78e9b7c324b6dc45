"""Fast self-tests of the benchmark: span arithmetic, tracer wiring, output checks.

Run with ``python3 -m pytest perfbench`` from the repository root.  They
are outside ``tests/``, so the package's own test run does not collect
them.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
from prosep import cli  # noqa: E402
from prosep.recon import synthesize_sinogram  # noqa: E402
from prosep.tensorio import read_tensor, write_tensor  # noqa: E402


def test_self_times_of_nested_and_overlapping_fake_calls():
    S = tracer.Span
    spans = [
        S(0, "root", 0.0, 10.0, None),
        S(1, "a", 1.0, 4.0, 0),
        S(2, "leaf", 2.0, 3.0, 1),
        S(3, "b", 5.0, 9.0, 0),
        S(4, "b", 6.0, 8.0, 0),  # overlaps its sibling, as on a worker thread
        S(5, "leaf", 9.5, 10.5, 0),  # ends after its parent: clipped
    ]
    selfs = tracer.self_times(spans)
    assert selfs[0] == pytest.approx(10 - 3 - 4 - 0.5)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    summary = tracer.summarize(spans)
    assert summary["b"] == {"calls": 2, "s": pytest.approx(6.0), "self_s": pytest.approx(6.0)}
    assert summary["leaf"]["calls"] == 2
    assert summary["leaf"]["self_s"] == pytest.approx(2.0)


def test_wrapped_calls_nest_and_count_work():
    t = tracer.Tracer()

    def inner(x):
        time.sleep(0.01)
        return x

    wrapped_inner = t.wrap("inner", inner, work=lambda a, k, r: {"items": a[0]})
    outer = t.wrap("outer", lambda: [wrapped_inner(n) for n in (2, 3)])
    assert t.root("cli.fake", outer) == [2, 3]
    summary = tracer.summarize(t.spans)
    assert summary["inner"]["calls"] == 2
    assert summary["inner"]["items"] == 5
    assert summary["outer"]["self_s"] < summary["inner"]["s"]
    assert summary["cli.fake"]["self_s"] < 0.005
    by_name = {s.name: s for s in t.spans}
    assert by_name["outer"].parent == by_name["cli.fake"].id


def test_install_wraps_import_sites_and_lists_absent_names():
    import prosep.recon
    import prosep.solver

    original_fbp = prosep.recon.fbp
    t = tracer.Tracer()
    t.install({
        "radon.fbp": (["prosep.radon:fbp"], None),
        "solver.objective_grad": ([
            "prosep.solver:VarproProblem.objective_and_gradient_from_data",
            "prosep.solver:VarproProblem.no_such_method",
        ], None),
        "gone": (["prosep.no_such_module:fn", "prosep.radon:no_such_function"], None),
    })
    try:
        assert prosep.recon.fbp is not original_fbp
        assert prosep.recon.fbp.__wrapped__ is original_fbp
        assert sorted(t.absent) == [
            "prosep.no_such_module:fn",
            "prosep.radon:no_such_function",
            "prosep.solver:VarproProblem.no_such_method",
        ]
    finally:
        t.restore()
    assert prosep.recon.fbp is original_fbp
    assert not hasattr(prosep.solver.VarproProblem.objective_and_gradient_from_data, "__wrapped__")


@pytest.fixture(scope="module")
def exact_run(tmp_path_factory):
    """A tiny pipeline refit to data that the PS model reproduces exactly."""
    out = tmp_path_factory.mktemp("exact")
    cfg = out / "config.json"
    cfg.write_text(json.dumps({
        "P": 16, "grid": {"width": 16}, "model": {"K": 1, "N": 2, "d": 2},
        "solver": {"restarts": 1},
    }))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert cli.main(["reconstruct", "--input", str(out)]) == 0
    # replace the data by the fitted model's own projections, then refit
    _, solution = checks.load_solution(out)
    angles = solution.scheme.angles
    exact = np.column_stack([synthesize_sinogram(solution, p, [a]).values[:, 0]
                             for p, a in enumerate(angles)])
    write_tensor(out / "sinogram.tensor", exact)
    assert cli.main(["reconstruct", "--input", str(out)]) == 0
    return out


def test_objective_check_on_exact_model(exact_run, tmp_path):
    _, report, _ = checks.load_run(exact_run)
    assert report["final_objective"] < checks.OBJECTIVE_ATOL
    assert checks.check_shapes(exact_run) == []
    assert checks.check_objective(exact_run) == []
    bad = tmp_path / "bad"
    shutil.copytree(exact_run, bad)
    beta = read_tensor(bad / "beta.tensor")
    write_tensor(bad / "beta.tensor", beta * (1 + 1e-6))
    assert checks.check_objective(bad)


def test_frame_check_rejects_corrupted_movie(exact_run, tmp_path):
    assert checks.check_frames(exact_run) == []
    bad = tmp_path / "bad"
    shutil.copytree(exact_run, bad)
    movie = read_tensor(bad / "movie.tensor")
    movie[8, 7, 7] += 1e-6
    write_tensor(bad / "movie.tensor", movie)
    fails = checks.check_frames(bad)
    assert len(fails) == 1 and "frame 8" in fails[0]


def test_analysis_check_flags_changed_kappa_and_failed_trials(tmp_path):
    rows = ["quantity,scheme,symmetric,value"]
    for (q, scheme, sym), val in checks.TABLE1_REFERENCE.items():
        rows.append(f"{q},{scheme},{sym},{'inf' if np.isinf(val) else repr(val)}")
    (tmp_path / "table1.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "thm2.csv").write_text("P,K,N,trials,full_rank_passes\n64,2,10,100,100\n")
    (tmp_path / "thm3.csv").write_text("trials,bound_satisfied,worst_ratio\n100,100,0.45\n")
    assert checks.check_analysis(tmp_path, 100) == []
    (tmp_path / "table1.csv").write_text("\n".join(rows).replace("inf", "1e16", 1) + "\n")
    (tmp_path / "thm3.csv").write_text("trials,bound_satisfied,worst_ratio\n100,99,1.2\n")
    fails = checks.check_analysis(tmp_path, 100)
    assert len(fails) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table1",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
