"""Checks on the files a benchmark workload leaves behind.

Each check returns a list of failure messages (empty when it passes).  They
recompute results through prosep's public functions and compare them with
the files the CLI wrote, so a faster path that changes an output shows up
as a failure, not as a speed-up.  ``prosep`` must be importable.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from prosep.psmodel import (
    HarmonicCoefficients,
    HarmonicOrder,
    face_split,
    real_trig_theta,
    real_trig_theta_hat,
    spline_interpolator,
)
from prosep.radon import DetectorGrid, fbp
from prosep.recon import ProSepSolution, psnr, synthesize_sinogram
from prosep.sampling import AngularScheme, span_for
from prosep.tensorio import read_tensor

OBJECTIVE_RTOL = 1e-8
# the solver reports an exact fit's normalized residual as tr - ||Q^T G||^2,
# which cancels to rounding level (about 1e-16), not to 0
OBJECTIVE_ATOL = 1e-14
FRAME_TOL = 1e-9
KAPPA_RTOL = 1e-6

# table1.csv as the conditioning study printed it at the start of the
# benchmark (P=512, K=5, N=28, d=8, J=128, 100 random trials, seed 0)
TABLE1_REFERENCE = {
    ("kappa_L1", "progressive", "0"): math.inf,
    ("kappa_L1", "random", "0"): 140.45927132461662,
    ("kappa_L1", "bit_reversed", "0"): 11.740497690179604,
    ("kappa_L1", "progressive", "1"): math.inf,
    ("kappa_L1", "random", "1"): 10.600871195612793,
    ("kappa_L1", "bit_reversed", "1"): 3.012941255536411,
    ("kappa_L2", "bit_reversed", "1"): 1.2255794216820248,
}


def load_run(outdir):
    """Manifest, solver report and the model orders of a reconstruct run."""
    with open(os.path.join(outdir, "manifest.json")) as f:
        manifest = json.load(f)
    with open(os.path.join(outdir, "solver_report.json")) as f:
        report = json.load(f)
    m = report["model"]
    return manifest, report, HarmonicOrder(N=m["N"], K=m["K"], d=m["d"])


def check_shapes(outdir) -> list:
    """Every tensor has the shape the manifest implies and finite values."""
    manifest, report, order = load_run(outdir)
    P, W = manifest["P"], manifest["grid"]["width"]
    J = manifest["detector"]["count"]
    expected = {
        "sinogram": (J, P), "angles": (P,), "times": (P,),
        "truth_movie": (P, W, W), "benchmark_movie": (P, W, W), "movie": (P, W, W),
        "Z": (order.d, order.n_temporal), "beta": (order.cols, J),
        "psi": (P, order.n_temporal),
    }
    fails = []
    for name, shape in expected.items():
        arr = read_tensor(os.path.join(outdir, f"{name}.tensor"))
        if arr.shape != shape:
            fails.append(f"{name}.tensor shape {arr.shape} != {shape}")
        elif not np.all(np.isfinite(arr)):
            fails.append(f"{name}.tensor has non-finite values")
    return fails


def recomputed_objective(outdir) -> float:
    """||G - L1(Z) beta||^2 / ||G||^2 from the written sinogram, Z and beta."""
    manifest, report, order = load_run(outdir)
    symmetric = report["symmetric"]
    sino = read_tensor(os.path.join(outdir, "sinogram.tensor"))
    angles = read_tensor(os.path.join(outdir, "angles.tensor"))
    Z = read_tensor(os.path.join(outdir, "Z.tensor"))
    beta = read_tensor(os.path.join(outdir, "beta.tensor"))
    scheme = AngularScheme(angles=angles, span=span_for(symmetric), kind=manifest["scheme"]["kind"])
    U = spline_interpolator(manifest["P"], order.d)
    if symmetric:
        L1 = face_split(real_trig_theta_hat(scheme, order.N), np.vstack([U, U]) @ Z)
    else:
        L1 = face_split(real_trig_theta(scheme, order.N), U @ Z)
    G = np.vstack([sino.T, sino[::-1, :].T]) if symmetric else sino.T
    return float(np.sum((G - L1 @ beta) ** 2) / np.sum(G * G))


def check_objective(outdir) -> list:
    """The reported objective equals the residual recomputed from the outputs."""
    _, report, _ = load_run(outdir)
    reported = report["final_objective"]
    recomputed = recomputed_objective(outdir)
    if abs(reported - recomputed) > OBJECTIVE_RTOL * abs(recomputed) + OBJECTIVE_ATOL:
        return [f"objective {reported!r} != recomputed {recomputed!r}"]
    return []


def load_solution(outdir):
    """The manifest and the fitted model a reconstruct run wrote."""
    manifest, report, order = load_run(outdir)
    symmetric = report["symmetric"]
    angles = read_tensor(os.path.join(outdir, "angles.tensor"))
    solution = ProSepSolution(
        Z=read_tensor(os.path.join(outdir, "Z.tensor")),
        U=spline_interpolator(manifest["P"], order.d),
        beta=HarmonicCoefficients(beta=read_tensor(os.path.join(outdir, "beta.tensor")), order=order),
        model=order,
        scheme=AngularScheme(angles=angles, span=span_for(symmetric), kind=manifest["scheme"]["kind"]),
        detector=DetectorGrid(**manifest["detector"]),
        times=read_tensor(os.path.join(outdir, "times.tensor")),
        symmetric=symmetric,
    )
    return manifest, solution


def check_frames(outdir, frames=None) -> list:
    """Frames of movie.tensor equal fbp(synthesize_sinogram(...)) recomputed here."""
    manifest, solution = load_solution(outdir)
    P, W = manifest["P"], manifest["grid"]["width"]
    pixel = manifest["grid"]["support_diameter"] / W
    movie = read_tensor(os.path.join(outdir, "movie.tensor"))
    count = manifest["fbp_angles_count"]
    dense = np.arange(count) * (np.pi / count)
    fails = []
    for p in frames if frames is not None else (0, P // 2, P - 1):
        ref = fbp(synthesize_sinogram(solution, p, dense), width=W, pixel_size=pixel).values
        err = float(np.max(np.abs(ref - movie[p])))
        if err > FRAME_TOL:
            fails.append(f"movie frame {p} differs from fbp(synthesize) by {err:.3e}")
    return fails


def quality(outdir) -> dict:
    """psnr_db and ssim from metrics.csv, truth_psnr_db and objective."""
    with open(os.path.join(outdir, "metrics.csv")) as f:
        avg = [row for row in csv.DictReader(f) if row["frame"] == "average"][0]
    movie = read_tensor(os.path.join(outdir, "movie.tensor"))
    truth = read_tensor(os.path.join(outdir, "truth_movie.tensor"))
    peak = float(truth.max())
    _, report, _ = load_run(outdir)
    return {
        "psnr_db": float(avg["psnr"]),
        "ssim": float(avg["ssim"]),
        "truth_psnr_db": float(np.mean([psnr(m, t, peak) for m, t in zip(movie, truth)])),
        "objective": float(report["final_objective"]),
    }


def check_quality(values: dict, floor: dict) -> list:
    """Quality no worse than the floor: objective at most, the others at least."""
    fails = []
    for name, limit in floor.items():
        worse = values[name] > limit if name == "objective" else values[name] < limit
        if worse:
            fails.append(f"{name} {values[name]!r} is worse than the floor {limit!r}")
    return fails


def _read_csv(path):
    with open(path) as f:
        return list(csv.reader(f))[1:]


def check_analysis(outdir, trials) -> list:
    """table1 kappas match the reference; thm2/thm3 pass every trial."""
    fails = []
    rows = {tuple(r[:3]): float(r[3]) for r in _read_csv(os.path.join(outdir, "table1.csv"))}
    if set(rows) != set(TABLE1_REFERENCE):
        fails.append(f"table1.csv rows {sorted(rows)} != reference rows")
    for key, ref in TABLE1_REFERENCE.items():
        got = rows.get(key)
        if got is None:
            continue
        if math.isinf(ref) or math.isinf(got):
            ok = got == ref
        else:
            ok = abs(got - ref) <= KAPPA_RTOL * ref
        if not ok:
            fails.append(f"table1 {'/'.join(key)} = {got!r}, reference {ref!r}")
    for name, col in (("thm2.csv", 4), ("thm3.csv", 1)):
        row = _read_csv(os.path.join(outdir, name))[0]
        if int(row[col]) != trials:
            fails.append(f"{name}: {row[col]} of {trials} trials pass")
    return fails
