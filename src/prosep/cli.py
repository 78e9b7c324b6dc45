"""Command-line front end: simulate, reconstruct, analyze, metrics.

All experiment parameters live in a JSON run configuration (every field
has a default, so flags alone suffice).  A key that is not a field of
``DEFAULT_CONFIG`` is an error, and so is a value of the wrong type or
range (a number must convert to a finite float); the solver section
holds the three ``SolverConfig`` integers.  The phantom is ``"example"``
(``phantom.example_phantom`` on the grid) or an inline object
``{"ellipses": [...]}`` whose entries hold each ellipse's ``center``,
``semi_axes`` and optional ``angle`` and ``intensity``.

Each command-line setting is declared once, in a flag table.
``_SETTING_FLAGS`` maps every ``simulate`` and ``reconstruct`` setting flag
to its config path, its argparse type or choices and the commands that
take it; the parser declares those flags from it, and both commands turn
the flags given into config overrides with it.  ``_ANALYZE_FLAGS`` holds
the type, least accepted value and help of each ``analyze`` study flag,
and ``_STUDY_FLAGS`` the flags each study reads; a flag that none of the
chosen studies reads is an error.  A study flag left out takes the
default in the signature of the ``analysis`` function that runs the
study (``--bounds``, a table of two closed forms, keeps its own in
``cmd_analyze``).

Four defaults are null in the configuration: ``detector.count`` (W + 1),
``detector.spacing`` (the pixel size D / W), ``fbp_angles_count``
(min(P, 4W): parallel-beam sampling needs about (pi / 2) W views over
[0, pi), so more than 4W only adds cost) and ``scheme.seed`` (0).
``_resolve_nulls`` is the one rule that fills them in, and ``simulate``
and ``reconstruct`` both apply it.  The
``manifest.json`` that ``simulate`` writes next to its outputs is that
resolved configuration, with the phantom written out as its ellipses
(``format_version`` 2); it is enough to replay the run bit-for-bit.
``reconstruct`` reads it back through the same checks and the same
resolution, together with its flags.  Arrays are exchanged as binary
tensor files (see ``tensorio``), tables as CSV; ``times.tensor`` holds
the frame times t_p = p / P (``sampling.sample_times``).

Exit codes: 0 success, 1 configuration or I/O error (also a malformed input
tensor, named on one line), 2 the solver's descent reached the iteration
cap before its stall test held (``SolverReport.converged`` is false; only
when d > K+1: with d = K+1 or all-zero data no descent runs).

A movie passes through its tensor file a chunk of frames at a time
(``tensorio.read_chunks`` and ``write_chunks``), so no stage holds two
P x W x W movies at once, and each movie stage has one entry point.
``simulate`` renders the truth movie straight into its file
(``phantom.render_chunks``); the benchmark movie
(``phantom.benchmark_movie``) reads the truth back from the file, and
its frames are written straight from the tile-major accumulator of its
view loop; the acquisition (``phantom.simulate_acquisition``) then reads
the truth back once more, and its noise is drawn last.  ``reconstruct``
writes the movie as Psi Phi (``recon.movie_factors``), a chunk of frames
per product (``recon.movie_chunks``).  ``metrics`` compares the shapes in
the two files' headers before it reads any payload, finds the
benchmark's peak in a first pass over its file, and then compares the
frames one pair at a time (``phantom.MovieFile``, which masks and checks
each chunk as ``phantom.Movie`` masks and checks a whole movie).  Every
file is written through ``<path>.tmp`` and renamed when complete; a
write that fails removes the temporary file and leaves ``<path>`` as it
was.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import inspect
import json
import os
import sys

import numpy as np

from .errors import ProsepError
from .phantom import (
    Ellipse,
    MotionSpec,
    MovieFile,
    PhantomSpec,
    TimeSequentialSinogram,
    benchmark_movie,
    example_phantom,
    render_chunks,
    simulate_acquisition,
)
from .psmodel import HarmonicOrder, spline_interpolator
from .radon import DetectorGrid
from .recon import ProSepSolution, movie_chunks, movie_factors, movie_metrics
from .sampling import (
    AngularScheme,
    bit_reversed,
    progressive,
    random_scheme,
    sample_times,
    span_for,
)
from .solver import SolverConfig, solve
from .tensorio import atomic_write, read_tensor, write_chunks, write_tensor

# hyperparameter presets (P, K, N, d) for the two symmetry modes
PRESETS = {
    "p256": {"P": 256, "K": 3, "N": 24, "d": 4, "symmetric": False},
    "p256-symm": {"P": 256, "K": 5, "N": 30, "d": 6, "symmetric": True},
    "p512": {"P": 512, "K": 5, "N": 28, "d": 6, "symmetric": False},
    "p512-symm": {"P": 512, "K": 7, "N": 48, "d": 8, "symmetric": True},
    "p1024": {"P": 1024, "K": 7, "N": 48, "d": 8, "symmetric": False},
    "p1024-symm": {"P": 1024, "K": 9, "N": 56, "d": 10, "symmetric": True},
}

DEFAULT_CONFIG = {
    "grid": {"width": 64, "support_diameter": 2.0},
    "phantom": "example",
    "motion": {"translation": [0.06875, -0.0625], "rotation": 0.19634954084936207,
               "scaling": [0.05, -0.04]},
    "P": 256,
    "scheme": {"kind": "bit_reversed", "seed": 0},
    "symmetric": True,
    "model": {"K": 5, "N": 30, "d": 6},
    "detector": {"count": None, "spacing": None},
    "noise_sigma": 0.0,
    "seed": 0,
    "fbp_angles_count": None,
    "solver": dataclasses.asdict(SolverConfig()),
}

# manifest.json layout; 2 has the three-key solver section
FORMAT_VERSION = 2
# least accepted value of each solver field
_SOLVER_LEAST = {"max_iters": 1, "restarts": 1, "seed": 0}
SCHEME_KINDS = ("progressive", "random", "bit_reversed")

_SIM, _REC, _BOTH = ("simulate",), ("reconstruct",), ("simulate", "reconstruct")
# setting flag -> (config path, argparse type or {choice: config value}, commands, help);
# the --solver-* rows are the SolverConfig fields
_SETTING_FLAGS = {
    "P": ("P", int, _SIM, "number of views / time samples"),
    "scheme": ("scheme.kind", dict(zip(SCHEME_KINDS, SCHEME_KINDS)), _SIM, None),
    "scheme-seed": ("scheme.seed", int, _SIM, None),
    "symmetric": ("symmetric", {"on": True, "off": False}, _BOTH, None),
    "K": ("model.K", int, _BOTH, None),
    "N": ("model.N", int, _BOTH, None),
    "d": ("model.d", int, _BOTH, None),
    "width": ("grid.width", int, _SIM, "grid width in pixels"),
    "noise-sigma": ("noise_sigma", float, _SIM, None),
    "seed": ("seed", int, _SIM, None),
    "solver-max-iters": ("solver.max_iters", int, _REC,
                         "Adam iteration cap per restart (d > K+1)"),
    "solver-restarts": ("solver.restarts", int, _REC,
                        "random starting points of the descent (d > K+1)"),
    "solver-seed": ("solver.seed", int, _REC, "seed of the starting points (d > K+1)"),
}

# analyze study flag -> (type, least accepted value, help); K = 0 and N = 0 are
# valid model orders
_ANALYZE_FLAGS = {
    "P": (int, 1, None), "K": (int, 0, None), "N": (int, 0, None), "d": (int, 1, None),
    "J": (int, 1, None), "trials": (int, 1, None), "seed": (int, 0, None),
    "bandwidth": (float, 0, "spatial bandwidth B"),
    "cmax": (float, 0, "max translation"),
    "L": (float, 0, "support radius"),
    "thetamax": (float, 0, "max rotation angle"),
    "kmax": (int, 0, "largest truncation order in the table"),
}
# analyze study -> the study flags it reads
_STUDY_FLAGS = {
    "table1": ("P", "K", "N", "d", "J", "trials", "seed"),
    "thm2": ("P", "K", "N", "trials", "seed"),
    "thm3": ("P", "K", "N", "d", "J", "trials", "seed"),
    "bounds": ("bandwidth", "cmax", "L", "thetamax", "kmax"),
}


class ConfigError(ProsepError):
    """Invalid run configuration; the message names the offending field."""


def _write_text_atomic(path, text: str) -> None:
    with atomic_write(path, "w") as f:
        f.write(text)


def _deep_update(base: dict, overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in overrides.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_update(out[key], val)
        else:
            out[key] = val
    return out


def load_config(path: str | None = None, preset: str | None = None,
                overrides: dict | None = None, force: bool = False) -> dict:
    """Resolve the run configuration from defaults, file, preset, and flags."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as f:
                loaded = json.load(f)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file is not valid JSON: {e}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} does not hold a JSON object")
        cfg = _deep_update(cfg, loaded)
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"field 'preset': unknown preset {preset!r} (choose from {sorted(PRESETS)})"
            )
        p = PRESETS[preset]
        cfg["P"] = p["P"]
        cfg["symmetric"] = p["symmetric"]
        cfg["model"] = {"K": p["K"], "N": p["N"], "d": p["d"]}
    if overrides:
        cfg = _deep_update(cfg, overrides)
    _validate_config(cfg, force=force)
    return cfg


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """An int or float that converts to a finite float.

    ``json`` also reads NaN, Infinity and integers of any size.
    """
    return (_is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _need(cond, field, msg) -> None:
    if not cond:
        raise ConfigError(f"field {field!r}: {msg}")


def _check_keys(cfg: dict) -> None:
    """Every key is a field of ``DEFAULT_CONFIG``, or the manifest's ``format_version``."""
    unknown = [key for key in cfg if key not in DEFAULT_CONFIG and key != "format_version"]
    for key, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict):
            _need(isinstance(cfg.get(key), dict), key, "must be an object")
            unknown += [f"{key}.{sub}" for sub in cfg[key] if sub not in default]
    if unknown:
        raise ConfigError(f"unknown field(s) {', '.join(map(repr, unknown))}")


def _validate_config(cfg: dict, force: bool = False) -> None:
    _check_keys(cfg)
    version = cfg.get("format_version", FORMAT_VERSION)
    _need(_is_int(version) and version == FORMAT_VERSION, "format_version",
          f"must be {FORMAT_VERSION}, got {version!r}")
    for key, least in _SOLVER_LEAST.items():
        val = cfg["solver"].get(key)
        _need(_is_int(val) and val >= least, f"solver.{key}",
              f"must be an integer >= {least}, got {val!r}")
    grid = cfg["grid"]
    _need(_is_int(grid.get("width")) and grid["width"] >= 8, "grid.width",
          "must be an integer >= 8")
    diameter = grid.get("support_diameter")
    _need(_is_number(diameter) and diameter > 0, "grid.support_diameter",
          "must be a positive number")
    _need(_is_int(cfg.get("P")) and cfg["P"] >= 2, "P", "must be an integer >= 2")
    kind = cfg["scheme"].get("kind")
    _need(kind in SCHEME_KINDS, "scheme.kind", "must be " + " | ".join(SCHEME_KINDS))
    if kind == "bit_reversed":
        _need(cfg["P"] & (cfg["P"] - 1) == 0, "P", "must be a power of two for bit_reversed")
    scheme_seed = cfg["scheme"].get("seed")
    _need(scheme_seed is None or (_is_int(scheme_seed) and scheme_seed >= 0), "scheme.seed",
          "must be null or a nonnegative integer")
    _need(_is_int(cfg.get("seed")) and cfg["seed"] >= 0, "seed",
          "must be a nonnegative integer")
    # model orders: nonnegative integers with K + 1 <= d <= P
    model = cfg["model"]
    for key in ("K", "N", "d"):
        _need(_is_int(model.get(key)) and model[key] >= 0, f"model.{key}",
              f"must be a nonnegative integer, got {model.get(key)!r}")
    K, d = model["K"], model["d"]
    _need(d >= K + 1, "model.d", f"must be at least K + 1 = {K + 1}, got {d}")
    _need(d <= cfg["P"], "model.d", f"must be at most P = {cfg['P']}, got {d}")
    sigma = cfg.get("noise_sigma")
    _need(_is_number(sigma) and sigma >= 0, "noise_sigma", "must be a nonnegative number")
    count, spacing = cfg["detector"].get("count"), cfg["detector"].get("spacing")
    _need(count is None or (_is_int(count) and count >= 1), "detector.count",
          "must be null or an integer >= 1")
    _need(spacing is None or (_is_number(spacing) and spacing > 0), "detector.spacing",
          "must be null or a positive number")
    fbp_count = cfg.get("fbp_angles_count")
    _need(fbp_count is None or (_is_int(fbp_count) and fbp_count >= 2),
          "fbp_angles_count", "must be null or an integer >= 2")
    order = HarmonicOrder(N=model["N"], K=model["K"], d=model["d"])
    symmetric = bool(cfg.get("symmetric"))
    if not order.solvable(cfg["P"], symmetric) and not force:
        need = "(N+1)(K+1)" if symmetric else "(2N+1)(K+1)"
        raise ConfigError(
            f"field 'model': P = {cfg['P']} < {need} = "
            f"{cfg['P'] - order.block_margin(cfg['P'], symmetric)}; the model is "
            "not recoverable (pass --force to proceed anyway)"
        )


def _phantom_from_config(cfg: dict, pixel: float) -> PhantomSpec:
    width = cfg["grid"]["width"]
    ph = cfg["phantom"]
    if ph == "example":
        return example_phantom(width=width, support_diameter=cfg["grid"]["support_diameter"])
    _need(isinstance(ph, dict) and set(ph) == {"ellipses"}, "phantom",
          "must be \"example\" or an object with one key 'ellipses'")
    try:
        ells = tuple(
            Ellipse(
                center=tuple(e["center"]),
                semi_axes=tuple(e["semi_axes"]),
                angle=e.get("angle", 0.0),
                intensity=e.get("intensity", 1.0),
            )
            for e in ph["ellipses"]
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"field 'phantom.ellipses': {e}")
    for e in ph["ellipses"]:
        extra = set(e) - {"center", "semi_axes", "angle", "intensity"}
        _need(not extra, "phantom.ellipses", f"unknown field(s) {sorted(extra)}")
    return PhantomSpec(ellipses=ells, width=width, pixel_size=pixel)


def _motion_from_config(cfg: dict) -> MotionSpec:
    m = cfg["motion"]
    try:
        return MotionSpec(
            translation=tuple(m.get("translation", (0.0, 0.0))),
            rotation=m.get("rotation", 0.0),
            scaling=tuple(m.get("scaling", (0.0, 0.0))),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(f"field 'motion': {e}")


def _scheme_from_config(cfg: dict) -> AngularScheme:
    span = span_for(cfg["symmetric"])
    kind = cfg["scheme"]["kind"]
    if kind == "progressive":
        return progressive(cfg["P"], span)
    if kind == "bit_reversed":
        return bit_reversed(cfg["P"], span)
    return random_scheme(cfg["P"], span, seed=cfg["scheme"]["seed"])


def _resolve_nulls(cfg: dict) -> float:
    """Fill the null defaults of ``cfg`` in place; return the pixel size D / W.

    A null ``detector.count`` becomes W + 1, a null ``detector.spacing`` the
    pixel size, a null ``fbp_angles_count`` min(P, 4W) and a null
    ``scheme.seed`` 0.
    """
    pixel = cfg["grid"]["support_diameter"] / cfg["grid"]["width"]
    det = cfg["detector"]
    if det["count"] is None:
        det["count"] = cfg["grid"]["width"] + 1
    if det["spacing"] is None:
        det["spacing"] = pixel
    if cfg["fbp_angles_count"] is None:
        cfg["fbp_angles_count"] = min(cfg["P"], 4 * cfg["grid"]["width"])
    if cfg["scheme"]["seed"] is None:
        cfg["scheme"]["seed"] = 0
    return pixel


def _setting_overrides(args) -> dict:
    """The config overrides of the setting flags given to ``args.command``."""
    overrides = {}
    for flag, (path, kind, commands, _) in _SETTING_FLAGS.items():
        val = getattr(args, flag.replace("-", "_")) if args.command in commands else None
        if val is None:
            continue
        *parents, leaf = path.split(".")
        node = overrides
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = kind[val] if isinstance(kind, dict) else val
    return overrides


# ------------------------------------------------------------- commands

def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.preset, _setting_overrides(args), force=args.force)
    pixel = _resolve_nulls(cfg)
    spec = _phantom_from_config(cfg, pixel)
    motion = _motion_from_config(cfg)
    detector = DetectorGrid(**cfg["detector"])

    # The truth goes straight to its file, a few frames at a time, and the
    # benchmark's view loop reads it back from there, so no truth-sized
    # array is held beside the loop's accumulator.  The acquisition comes
    # last: a random scheme or noise draw is the process's first use of
    # np.random, which loads about 5 MB of libraries (secrets, hmac,
    # libcrypto) that would otherwise stay resident through the benchmark.
    frames = render_chunks(spec, motion, cfg["P"])
    out = args.out
    os.makedirs(out, exist_ok=True)
    truth_path = os.path.join(out, "truth_movie.tensor")
    write_chunks(truth_path, (cfg["P"], spec.width, spec.width), frames)
    truth = MovieFile(truth_path, pixel_size=spec.pixel_size)
    bench = benchmark_movie(truth, cfg["fbp_angles_count"], detector=detector)
    write_chunks(os.path.join(out, "benchmark_movie.tensor"), truth.shape, bench.chunks())
    del bench
    scheme = _scheme_from_config(cfg)
    data = simulate_acquisition(
        truth, scheme, detector, noise_sigma=cfg["noise_sigma"], seed=cfg["seed"],
    )
    write_tensor(os.path.join(out, "sinogram.tensor"), data.values)
    write_tensor(os.path.join(out, "angles.tensor"), scheme.angles)
    write_tensor(os.path.join(out, "times.tensor"), sample_times(cfg["P"]))
    cfg.update(phantom={"ellipses": [dataclasses.asdict(e) for e in spec.ellipses]},
               format_version=FORMAT_VERSION)
    _write_text_atomic(
        os.path.join(out, "manifest.json"), json.dumps(cfg, indent=2, sort_keys=True) + "\n",
    )
    print(f"simulate: wrote {out} (J={detector.count}, P={cfg['P']})")
    return 0


def cmd_reconstruct(args) -> int:
    indir = args.input
    # a model the linearized system cannot pin down is warned about by solve
    cfg = load_config(os.path.join(indir, "manifest.json"), overrides=_setting_overrides(args),
                      force=True)
    pixel = _resolve_nulls(cfg)
    sino_path = os.path.join(indir, "sinogram.tensor")
    angles_path = os.path.join(indir, "angles.tensor")
    sino = read_tensor(sino_path)
    angles = read_tensor(angles_path)
    model_cfg = cfg["model"]
    symmetric = cfg["symmetric"]

    P = cfg["P"]
    if angles.shape != (P,):
        raise ProsepError(
            f"{angles_path}: shape {angles.shape}, but the manifest has P = {P} angles")
    span = span_for(symmetric)
    if np.any(angles >= span):
        raise ConfigError(
            "field 'symmetric': acquired angles exceed [0, pi); the data was "
            "simulated without the half-turn symmetry"
        )
    try:
        scheme = AngularScheme(angles=angles, span=span, kind=cfg["scheme"]["kind"])
    except ValueError as e:
        raise ProsepError(f"{angles_path}: {e}") from None
    detector = DetectorGrid(**cfg["detector"])
    try:
        data = TimeSequentialSinogram(values=sino, scheme=scheme, detector=detector)
    except ValueError as e:
        raise ProsepError(f"{sino_path}: {e}") from None
    order = HarmonicOrder(N=model_cfg["N"], K=model_cfg["K"], d=model_cfg["d"])
    U = spline_interpolator(P, order.d)
    Z, beta, report = solve(data, order, U, SolverConfig(**cfg["solver"]),
                            symmetric=symmetric)
    solution = ProSepSolution(
        Z=Z, U=U, beta=beta, model=order, scheme=scheme, detector=detector,
        times=sample_times(P), symmetric=symmetric,
    )
    psi, phi = movie_factors(solution, fbp_angles_count=cfg["fbp_angles_count"],
                             width=cfg["grid"]["width"], pixel_size=pixel)

    out = args.out or indir
    os.makedirs(out, exist_ok=True)
    write_tensor(os.path.join(out, "Z.tensor"), Z)
    write_tensor(os.path.join(out, "beta.tensor"), beta.beta)
    write_tensor(os.path.join(out, "psi.tensor"), psi)
    write_chunks(os.path.join(out, "movie.tensor"), (P, *phi.shape[1:]), movie_chunks(psi, phi))
    trace_lines = ["iter,objective,incumbent"]
    for i, (raw, inc) in enumerate(zip(report.raw_objective_trace, report.objective_trace)):
        trace_lines.append(f"{i},{float(raw)!r},{float(inc)!r}")
    _write_text_atomic(os.path.join(out, "solver_report.csv"), "\n".join(trace_lines) + "\n")
    summary = dataclasses.asdict(report)
    del summary["objective_trace"], summary["raw_objective_trace"]
    summary.update(model=model_cfg, symmetric=symmetric)
    _write_text_atomic(
        os.path.join(out, "solver_report.json"),
        json.dumps(summary, indent=2, sort_keys=True) + "\n",
    )
    if not report.z_identifiable:
        status = "Z not identifiable (d = K+1), closed-form least squares with Z = I"
    elif report.converged:
        status = "converged"
    else:
        status = "iteration cap reached"
    print(f"reconstruct: objective {report.final_objective:.3e}, {status}")
    return 0 if report.converged else 2


def _analyze_flags(args, studies) -> dict:
    """The study flags that were given; each must be in range and read by a chosen study."""
    given = {}
    for flag, (_, least, _) in _ANALYZE_FLAGS.items():
        val = getattr(args, flag)
        if val is None:
            continue
        if val < least:
            raise ConfigError(f"flag '--{flag}': must be at least {least}, got {val}")
        given[flag] = val
    unread = [f for f in given if not any(f in _STUDY_FLAGS[s] for s in studies)]
    if unread:
        raise ConfigError(f"flag(s) {', '.join(repr('--' + f) for f in unread)}: read by "
                          f"none of the chosen studies ({' '.join('--' + s for s in studies)})")
    return given


def _study(fn, **kwargs) -> tuple:
    """Run one analysis study; return its result and its arguments, defaults filled in.

    Study parameters it rejects are a ConfigError.
    """
    bound = inspect.signature(fn).bind(**kwargs)
    bound.apply_defaults()
    try:
        return fn(**kwargs), bound.arguments
    except ValueError as e:
        raise ConfigError(str(e)) from None


def cmd_analyze(args) -> int:
    from . import analysis  # only this stage needs it: the others skip its import

    studies = [s for s in _STUDY_FLAGS if getattr(args, s)]
    if not studies:
        print("analyze: nothing to do (pass --table1 / --thm2 / --thm3 / --bounds)",
              file=sys.stderr)
        return 1
    given = _analyze_flags(args, studies)
    flags = {s: {f: given[f] for f in _STUDY_FLAGS[s] if f in given} for s in studies}
    out = args.out
    os.makedirs(out, exist_ok=True)
    if args.table1:
        kwargs = flags["table1"]
        if "trials" in kwargs:
            kwargs["random_trials"] = kwargs.pop("trials")
        rows, _ = _study(analysis.table1, **kwargs)
        lines = ["quantity,scheme,symmetric,value"]
        lines += [f"{quantity},{kind},{int(symmetric)},{value!r}"
                  for quantity, kind, symmetric, value in rows]
        _write_text_atomic(os.path.join(out, "table1.csv"), "\n".join(lines) + "\n")
    if args.thm2:
        passes, ran = _study(analysis.rank_check_L1, **flags["thm2"])
        lines = [
            "P,K,N,trials,full_rank_passes",
            f"{ran['P']},{ran['K']},{ran['N']},{ran['trials']},{passes}",
        ]
        _write_text_atomic(os.path.join(out, "thm2.csv"), "\n".join(lines) + "\n")
    if args.thm3:
        (passes, worst), ran = _study(analysis.theorem3_sweep, **flags["thm3"])
        lines = [
            "trials,bound_satisfied,worst_ratio",
            f"{ran['trials']},{passes},{worst!r}",
        ]
        _write_text_atomic(os.path.join(out, "thm3.csv"), "\n".join(lines) + "\n")
    if args.bounds:
        b = {"bandwidth": 1.0, "cmax": 1.0, "L": 1.0, "thetamax": 1.0, "kmax": 12,
             **flags["bounds"]}
        lines = ["K,translation_bound,rotation_bound"]
        for K in range(b["kmax"] + 1):
            tb = analysis.translation_bound(b["bandwidth"], b["cmax"], K)
            rb = analysis.rotation_bound(b["bandwidth"], b["L"], b["thetamax"], K)
            lines.append(f"{K},{tb!r},{rb!r}")
        _write_text_atomic(os.path.join(out, "bounds.csv"), "\n".join(lines) + "\n")
    print(f"analyze: wrote {', '.join(s + '.csv' for s in studies)} in {out}")
    return 0


def cmd_metrics(args) -> int:
    movie, bench = MovieFile(args.movie), MovieFile(args.benchmark)
    if movie.shape != bench.shape:
        raise ProsepError(f"dimension mismatch: {args.movie} has shape {movie.shape}, "
                          f"{args.benchmark} has shape {bench.shape}; both must be "
                          f"P x W x W of one shape")
    rows, summary = movie_metrics(movie, bench)
    lines = ["frame,psnr,ssim,mae"]
    for p, r in enumerate(rows):
        lines.append(f"{p},{r.psnr!r},{r.ssim!r},{r.mae!r}")
    lines.append(f"average,{summary.psnr!r},{summary.ssim!r},{summary.mae!r}")
    _write_text_atomic(args.out, "\n".join(lines) + "\n")
    print(f"metrics: average PSNR {summary.psnr:.2f} dB, SSIM {summary.ssim:.4f}, "
          f"MAE {summary.mae:.4g}")
    return 0


# ------------------------------------------------------------- parser

def _add_setting_flags(parser, command: str) -> None:
    for flag, (_, kind, commands, help_) in _SETTING_FLAGS.items():
        if command in commands:
            typed = {"choices": list(kind)} if isinstance(kind, dict) else {"type": kind}
            parser.add_argument(f"--{flag}", help=help_, **typed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prosep",
        description="Dynamic tomography with a projection-domain separable model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a time-sequential acquisition")
    sim.add_argument("--config", help="JSON run configuration")
    sim.add_argument("--preset", choices=sorted(PRESETS), help="hyperparameter preset")
    sim.add_argument("--out", required=True, help="output directory")
    _add_setting_flags(sim, "simulate")
    sim.add_argument("--force", action="store_true",
                     help="allow P < (N+1)(K+1) with the symmetry, P < (2N+1)(K+1) without")
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", help="solve and rebuild the movie")
    rec.add_argument("--input", required=True, help="directory written by simulate")
    rec.add_argument("--out", help="output directory (default: input dir)")
    _add_setting_flags(rec, "reconstruct")
    rec.set_defaults(func=cmd_reconstruct)

    ana = sub.add_parser("analyze", help="conditioning studies and bound tables")
    ana.add_argument("--out", required=True, help="output directory")
    ana.add_argument("--table1", action="store_true")
    ana.add_argument("--thm2", action="store_true")
    ana.add_argument("--thm3", action="store_true")
    ana.add_argument("--bounds", action="store_true")
    for flag, (kind, _, help_) in _ANALYZE_FLAGS.items():
        ana.add_argument(f"--{flag}", type=kind, help=help_)
    ana.set_defaults(func=cmd_analyze)

    met = sub.add_parser("metrics", help="PSNR/SSIM/MAE of a movie vs the benchmark")
    met.add_argument("--movie", required=True, help="movie tensor file")
    met.add_argument("--benchmark", required=True, help="benchmark movie tensor file")
    met.add_argument("--out", default="metrics.csv", help="output CSV path")
    met.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProsepError, FileNotFoundError, NotADirectoryError) as e:
        print(f"prosep {args.command}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
