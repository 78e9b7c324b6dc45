"""prosep benchmark: CLI workloads, end-to-end times and an outside-in trace.

Run from the repository root:

    python3 perfbench/run.py --workload symm-d4-w64 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Each CLI stage (``prosep simulate`` / ``reconstruct`` / ``metrics``, or
``prosep analyze``) runs as its own child process from ``src/``, with one
thread.  With ``--trace 0`` the run times a fresh ``import prosep.cli``
several times, then repeats the whole pipeline for about ``--seconds`` and
reports the end-to-end metrics.  Times are CPU seconds (user + system) of
the child processes, which leave out the time a child waits for a core;
wall times are printed beside them.  With ``--trace 1`` it runs the
pipeline once plainly and once under ``traced_cli.py``, which wraps
prosep's public functions from outside, and reports the per-layer
metrics.  Both modes check the outputs afterwards (see ``checks.py``).
Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Metric names, units and
workload reasons come from ``BENCHMARK.json``.  Work files go to
``.perfbench_work/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC_FILE = ROOT / "BENCHMARK.json"
# set-up samples before the first repetition; one more precedes each repetition
SETUP_RUNS = 4
# every child of one run must end by then, so the run ends within 180 s
RUN_DEADLINE_S = 165.0
POLL_S = 0.002
ANALYZE_TRIALS = 100
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PROSEP_THREADS")


@dataclass(frozen=True)
class Workload:
    config: Callable[[int], dict] | None  # seed -> run configuration; None: analyze
    quality_floor: dict


def _symm_d4_w64(seed):
    return {
        "P": 128, "grid": {"width": 64}, "scheme": {"kind": "bit_reversed"},
        "symmetric": True, "model": {"K": 3, "N": 24, "d": 4},
        "noise_sigma": 0.01, "seed": seed, "solver": {"restarts": 1, "seed": seed},
    }


def _lifted_d6_w32(seed):
    # The seed is not used: Adam's iteration count is chaotic in its inputs
    # (solver seeds 1-5 took 642-1225 iterations, 5 % intensity jitter on
    # the phantom 628 to the 5000 cap), so any seeded input would make the
    # run time a draw instead of a measurement.
    return {
        "P": 128, "grid": {"width": 32}, "scheme": {"kind": "random", "seed": 7},
        "symmetric": True, "model": {"K": 3, "N": 12, "d": 6},
        "noise_sigma": 0.0, "solver": {"restarts": 1},
    }


WORKLOADS = {
    "symm-d4-w64": Workload(
        config=_symm_d4_w64,
        # seeds 0-9 when the floors were set: psnr 28.98-29.16, ssim 0.716-0.726,
        # truth_psnr 25.24-25.36, objective 6.12e-4-6.40e-4
        quality_floor={"psnr_db": 28.7, "ssim": 0.705, "truth_psnr_db": 25.0,
                       "objective": 6.6e-4},
    ),
    "lifted-d6-w32": Workload(
        config=_lifted_d6_w32,
        # when the floor was set: psnr 32.46, ssim 0.933, truth_psnr 25.28, objective 4.30e-4
        quality_floor={"psnr_db": 32.2, "ssim": 0.925, "truth_psnr_db": 25.0,
                       "objective": 4.4e-4},
    ),
    "table1": Workload(
        config=None,
        quality_floor={},
    ),
}

QUALITY_UNITS = {"psnr_db": "dB", "ssim": "1", "truth_psnr_db": "dB", "objective": "1"}


def load_spec() -> dict:
    """``BENCHMARK.json``: workload name -> reason, and metric name -> unit per kind."""
    spec = json.loads(SPEC_FILE.read_text())
    return {
        "why": {w["name"]: w["why"] for w in spec["workloads"]},
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


# ------------------------------------------------------------- child processes

def child_env() -> dict:
    """The caller's environment with ``src/`` importable and one thread.

    On a small shared machine, threaded BLAS on prosep's small matrices
    makes run times vary by 20 % or more between runs, so every run
    measures the single-threaded program (one BLAS thread, one prosep
    worker) whatever the caller has set.
    """
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


def run_child(argv, deadline, log: Path) -> ChildResult:
    """Run ``argv`` to completion: exit code, wall and CPU seconds, peak RSS.

    Standard error goes to ``log``.  The child is killed when ``deadline``
    (a ``time.monotonic`` value) passes; it then reports exit code -9.
    """
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err)
        killed = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if not killed and time.monotonic() > deadline:
                proc.kill()
                killed = True
            time.sleep(POLL_S)
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall_s, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0, log.read_text(errors="replace"))


def import_time(deadline, workdir) -> float:
    """CPU seconds of a fresh interpreter importing ``prosep.cli``."""
    res = run_child([sys.executable, "-c", "import prosep.cli"], deadline, workdir / "setup.log")
    if res.code != 0:
        raise RuntimeError(f"import prosep.cli failed: {res.stderr.strip()}")
    return res.cpu_s


def stages_for(name, seed, outdir):
    """The CLI commands of one pipeline run, as (stage, prosep arguments)."""
    wl = WORKLOADS[name]
    if wl.config is None:
        return [("analyze", ["analyze", "--table1", "--thm2", "--thm3",
                             "--trials", str(ANALYZE_TRIALS), "--out", str(outdir)])]
    cfg_path = outdir.parent / f"{outdir.name}-config.json"
    cfg_path.write_text(json.dumps(wl.config(seed), indent=2))
    return [
        ("simulate", ["simulate", "--config", str(cfg_path), "--out", str(outdir)]),
        ("reconstruct", ["reconstruct", "--input", str(outdir)]),
        ("metrics", ["metrics", "--movie", str(outdir / "movie.tensor"),
                     "--benchmark", str(outdir / "benchmark_movie.tensor"),
                     "--out", str(outdir / "metrics.csv")]),
    ]


@dataclass
class PipelineRun:
    outdir: Path
    stage_cpu_s: dict
    stage_wall_s: dict
    rss_mb: float
    failed: int
    attempted: int
    errors: list
    span_files: list
    converged: bool = True

    @property
    def total_cpu_s(self) -> float:
        return sum(self.stage_cpu_s.values())

    @property
    def total_wall_s(self) -> float:
        return sum(self.stage_wall_s.values())


def run_pipeline(name, seed, outdir, deadline, traced=False) -> PipelineRun:
    """Run every stage of a workload in order; stop at the first failure.

    Exit code 2 from ``reconstruct`` (iteration cap) is not a failure; it
    is recorded as ``converged = False``.
    """
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    stages = stages_for(name, seed, outdir)
    run = PipelineRun(outdir, {}, {}, 0.0, 0, len(stages), [], [])
    for i, (stage, args) in enumerate(stages):
        if traced:
            spans = outdir.parent / f"{outdir.name}-{stage}-spans.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), *args]
            run.span_files.append(spans)
        else:
            argv = [sys.executable, "-m", "prosep.cli", *args]
        res = run_child(argv, deadline, outdir.parent / f"{outdir.name}-{stage}.log")
        run.stage_cpu_s[stage] = res.cpu_s
        run.stage_wall_s[stage] = res.wall_s
        run.rss_mb = max(run.rss_mb, res.rss_mb)
        if stage == "reconstruct" and res.code == 2:
            run.converged = False
        elif res.code != 0:
            run.failed = len(stages) - i
            run.errors.append(f"{stage} exited {res.code}: {res.stderr.strip()[-500:]}")
            break
    return run


# ------------------------------------------------------------- checks

def check_outputs(name, outdir, pipeline_ok=True):
    """Run the output checks: ({check: failure messages}, quality values).

    When the pipeline failed, no check runs and every check fails.
    """
    import checks

    wl = WORKLOADS[name]
    quality = {}

    def quality_check():
        quality.update(checks.quality(outdir))
        return checks.check_quality(quality, wl.quality_floor)

    if wl.config is None:
        suite = {"analysis": lambda: checks.check_analysis(outdir, ANALYZE_TRIALS)}
    else:
        suite = {"shapes": lambda: checks.check_shapes(outdir),
                 "objective": lambda: checks.check_objective(outdir),
                 "frames": lambda: checks.check_frames(outdir),
                 "quality": quality_check}
    if not pipeline_ok:
        return {label: ["not run: the pipeline failed"] for label in suite}, quality
    results = {}
    for label, check in suite.items():
        try:
            results[label] = check()
        except (OSError, ValueError, KeyError, IndexError) as e:
            results[label] = [f"{type(e).__name__}: {e}"]
    return results, quality


def _tally(runs, check_results) -> dict:
    """attempted / failed counts and error messages over stage runs and checks."""
    return {
        "attempted": sum(r.attempted for r in runs) + len(check_results),
        "failed": sum(r.failed for r in runs) + sum(bool(f) for f in check_results.values()),
        "errors": [e for r in runs for e in r.errors]
                  + [f"{label}: {m}" for label, msgs in check_results.items() for m in msgs],
    }


def solver_metrics(outdir) -> dict:
    """Iterations, restarts, improving ratio and convergence from the solver's files."""
    out = {"solver.iterations": 0, "solver.restarts_run": 0,
           "solver.improving_ratio": 0.0, "solver.converged": 0}
    try:
        report = json.loads((outdir / "solver_report.json").read_text())
        with open(outdir / "solver_report.csv") as f:
            incumbent = [float(row["incumbent"]) for row in csv.DictReader(f)]
    except (FileNotFoundError, KeyError, ValueError):
        return out
    improving = sum(b < a for a, b in zip(incumbent, incumbent[1:]))
    out.update({
        "solver.iterations": report.get("iterations_used", len(incumbent)),
        "solver.restarts_run": len(report.get("restart_objectives", [])),
        "solver.improving_ratio": improving / len(incumbent) if incumbent else 0.0,
        "solver.converged": int(bool(report.get("converged"))),
    })
    return out


# ------------------------------------------------------------- provenance

def provenance(seed) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        sha = res.stdout.strip() if res.returncode == 0 else "unknown"
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = child_env()
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: env[var] for var in THREAD_VARS},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "seed": seed,
    }


# ------------------------------------------------------------- runs

def measure(name, seed, seconds, workdir) -> dict:
    """Untraced run: pipeline repetitions for about ``seconds`` of wall time,
    and set-up time.

    The set-up samples are spread over the run: a few first, then one
    before each repetition.
    """
    deadline = time.monotonic() + RUN_DEADLINE_S
    imports = [import_time(deadline, workdir) for _ in range(SETUP_RUNS)]
    runs = []
    start = time.perf_counter()
    while True:
        imports.append(import_time(deadline, workdir))
        run = run_pipeline(name, seed, workdir / f"rep{len(runs)}", deadline)
        runs.append(run)
        elapsed = time.perf_counter() - start
        if run.failed or elapsed + elapsed / len(runs) > seconds:
            break
    last = runs[-1]
    check_results, quality = check_outputs(name, last.outdir, not last.failed)
    stage_cpu_s = {s: statistics.median(r.stage_cpu_s[s] for r in runs) for s in last.stage_cpu_s}
    return {
        "metrics": {
            "setup_s": statistics.median(imports),
            "pipeline_cpu_s": statistics.median(r.total_cpu_s for r in runs),
            "peak_rss_mb": max(r.rss_mb for r in runs),
        },
        "stage_cpu_s": stage_cpu_s,
        "quality": quality,
        "detail": {"rep_cpu_s": [round(r.total_cpu_s, 4) for r in runs],
                   "rep_wall_s": [round(r.total_wall_s, 4) for r in runs],
                   "converged": last.converged},
        **_tally(runs, check_results),
    }


def trace(name, seed, workdir, metric_names) -> dict:
    """Traced run: one plain pipeline and one traced pipeline, per-layer metrics.

    A metric ``<span>.<field>`` is read off the span summary unless it is
    derived below; a span that never ran reads 0.
    """
    import tracer

    deadline = time.monotonic() + RUN_DEADLINE_S
    plain = run_pipeline(name, seed, workdir / "plain", deadline)
    traced = run_pipeline(name, seed, workdir / "traced", deadline, traced=True)
    spans, absent, work_errors = [], set(), 0
    summary: dict = {}
    for path in traced.span_files:
        if not path.exists():
            continue
        file_spans, file_absent, errs = tracer.load_spans(path)
        spans += file_spans
        absent.update(file_absent)
        work_errors += errs
        for key, agg in tracer.summarize(file_spans).items():
            tot = summary.setdefault(key, {})
            for field, val in agg.items():
                tot[field] = tot.get(field, 0) + val
    project = summary.get("radon.project", {})
    grad = summary.get("solver.objective_grad", {})
    derived = {
        "radon.project.us_per_angle":
            project["self_s"] / project["angles"] * 1e6 if project.get("angles") else 0.0,
        "solver.objective_grad.ms_per_call":
            grad["self_s"] / grad["calls"] * 1e3 if grad.get("calls") else 0.0,
        **solver_metrics(traced.outdir),
        "trace.overhead_s": traced.total_cpu_s - plain.total_cpu_s,
    }
    check_results, quality = check_outputs(name, traced.outdir,
                                           not (plain.failed or traced.failed))
    for key in QUALITY_UNITS:
        derived[f"quality.{key}"] = quality.get(key, 0.0)
    metrics = {}
    for metric in metric_names:
        span, _, field = metric.rpartition(".")
        metrics[metric] = derived[metric] if metric in derived \
            else summary.get(span, {}).get(field, 0)
    return {
        "metrics": metrics,
        "detail": {"absent": sorted(absent), "work_errors": work_errors, "spans": len(spans),
                   "converged": traced.converged},
        **_tally([plain, traced], check_results),
    }


def run_workload(name, seed, seconds, traced, units) -> dict:
    """One workload's result; ``units`` maps each metric to report to its unit."""
    workdir = WORK / f"{name}-s{seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = (trace(name, seed, workdir, units) if traced
                  else measure(name, seed, seconds, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # not empty: another run is using it
            pass
    result["metrics"] = {k: {"value": result["metrics"][k], "unit": units[k]} for k in units}
    return result


def report(name, why, result) -> None:
    """Human-readable lines for one workload."""
    print(f"== {name}: {why}")
    for key, m in result["metrics"].items():
        print(f"  {key:36s} {m['value']:.6g} {m['unit']}")
    for stage, s in result.get("stage_cpu_s", {}).items():
        print(f"  {stage + '_cpu_s':36s} {s:.6g} s")
    for key, val in result.get("quality", {}).items():
        print(f"  {key:36s} {val:.6g} {QUALITY_UNITS[key]}")
    print(f"  {'failed_ratio':36s} {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']})")
    print(f"  detail: {json.dumps(result['detail'])}")
    for err in result["errors"]:
        print(f"  FAILED: {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prosep" / "cli.py").is_file():
        print(f"perfbench: no prosep sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    units = spec["per_layer" if args.trace else "end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"provenance: {json.dumps(provenance(args.seed))}")
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), units)
        report(name, spec["why"][name], results[name])
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
