"""Command-line front end: simulate, reconstruct, analyze, metrics.

All experiment parameters live in a JSON run configuration (every field
has a default, so flags alone suffice).  The phantom is ``"example"``
(``phantom.example_phantom`` on the grid) or an inline object
``{"ellipses": [...]}`` holding at least one ellipse, each with its
``center``, ``semi_axes`` and optional ``angle`` and ``intensity``.
Each inline ellipse, the motion and the model are built by calling their
types with the section's keys (``Ellipse(**e)``, ``MotionSpec(**motion)``,
``HarmonicOrder(**model)``).  The type checks the values, and keyword
binding refuses an ellipse's missing or unknown keys; either is a
``ConfigError`` naming the section.  The motion and model keys are
``_FIELDS`` paths, so they are always present and known.  A new field of
one of these types needs one ``_FIELDS`` row for its default (none for an
ellipse field, whose default is ``Ellipse``'s) and no builder edit.

Each ``simulate``/``reconstruct`` setting is declared once, as a row of
the field table ``_FIELDS``: its config path, its default, the check of
its value and, for a setting with a flag, the flag's name, argparse type
or choices, commands and help.  ``DEFAULT_CONFIG`` is the table's
defaults, and a key that is not a row's path is an error.  A check
accepts an integer with a least value or a positive or nonnegative number
(a number must convert to a finite float), each optionally null, one of a
list of choices, or a JSON ``true``/``false``.  The parser declares the
setting flags from the table, and both commands turn the flags given
into config overrides with it.  Only the rules that span fields stay as
code, in ``_validate_config``: the manifest's ``format_version``,
K + 1 <= d <= P, and a recoverable model unless ``--force``.  A preset
(``PRESETS``) is a config override applied after the config file.

``_ANALYZE_FLAGS`` holds the argparse type, check and help of each
``analyze`` study flag, and ``_STUDIES`` the ``analysis`` function that
runs each study and the header and rows of the CSV it writes.  A study
flag is checked like a setting, with the same checks and the same
``must be ..., got ...`` error, so a number must be finite there too.  A
study reads the flags named by its function's parameters, and a flag that
none of the chosen studies reads is an error; a study flag left out takes
the default in that function's signature.

Three defaults are null in the configuration, each derived from W or P:
``detector.count`` (W + 1), ``detector.spacing`` (the pixel size D / W)
and ``fbp_angles_count`` (min(P, 4W): parallel-beam sampling needs about
(pi / 2) W views over [0, pi), so more than 4W only adds cost).
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
when d > K+1: with d = K+1 or all-zero data no descent runs).  A warning
raised while a command runs (a model that cannot have full column rank)
is written to stderr as one line, ``prosep <command>: warning: <message>``,
and leaves the exit code as it is.

Each command imports numpy and the prosep modules it calls when it runs,
after its settings pass their checks.  The module level of ``cli`` imports
only the standard library, ``errors`` and ``settings``, which holds the
two numpy-free names ``_FIELDS`` needs (``SolverConfig``'s defaults and
``finite_real``), so ``prosep --help``, a usage error and a failed field
check load no numpy.  ``simulate`` loads ``phantom`` (with ``radon``,
``sampling`` and ``tensorio``) and ``psmodel``, not ``solver`` or
``recon``; ``reconstruct`` loads neither ``phantom`` nor ``analysis``;
``metrics`` loads ``phantom`` and ``recon``, not ``solver``; ``analyze``
loads ``analysis`` (with ``psmodel`` and ``sampling``) and ``tensorio``
once a study is chosen, and none of ``phantom``, ``radon``, ``recon`` and
``solver``.

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
each chunk as it is read).  Every file is written through ``<path>.tmp``
and renamed when complete; a write that fails removes the temporary file
and leaves ``<path>`` as it was.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import inspect
import json
import operator
import os
import sys
import warnings

from .errors import ProsepError
from .settings import SolverConfig, finite_real

# hyperparameter presets: the orders (P, K, N, d) of the two symmetry modes, as
# config overrides
PRESETS = {
    "p256": {"P": 256, "symmetric": False, "model": {"K": 3, "N": 24, "d": 4}},
    "p256-symm": {"P": 256, "symmetric": True, "model": {"K": 5, "N": 30, "d": 6}},
    "p512": {"P": 512, "symmetric": False, "model": {"K": 5, "N": 28, "d": 6}},
    "p512-symm": {"P": 512, "symmetric": True, "model": {"K": 7, "N": 48, "d": 8}},
    "p1024": {"P": 1024, "symmetric": False, "model": {"K": 7, "N": 48, "d": 8}},
    "p1024-symm": {"P": 1024, "symmetric": True, "model": {"K": 9, "N": 56, "d": 10}},
}

# manifest.json layout; 2 has the three-key solver section
FORMAT_VERSION = 2
SCHEME_KINDS = ("progressive", "random", "bit_reversed")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# a field check: (test of the value, the values it accepts in words)
def _check(test, what: str, null: bool = False) -> tuple:
    return (lambda x: x is None or test(x), f"null or {what}") if null else (test, what)


def _integer(least: int, null: bool = False) -> tuple:
    return _check(lambda x: _is_int(x) and x >= least, f"an integer >= {least}", null)


def _number(positive: bool, null: bool = False) -> tuple:
    if positive:
        return _check(lambda x: finite_real(x) and x > 0, "a positive number", null)
    return _check(lambda x: finite_real(x) and x >= 0, "a nonnegative number", null)


def _require(name: str, val, check: tuple) -> None:
    """``val`` passes ``check``; else a ConfigError naming ``name`` and the values it accepts."""
    test, what = check
    if not test(val):
        raise ConfigError(f"{name}: must be {what}, got {val!r}")


_SIM, _REC, _BOTH = ("simulate",), ("reconstruct",), ("simulate", "reconstruct")
# run setting -> (config path, default, check or None, flag or None), a flag being
# (name, argparse type or {choice: config value}, commands, help); the phantom and
# the motion are checked by the objects they build, and the solver rows are the
# SolverConfig fields
_FIELDS = (
    ("P", 256, _integer(2), ("P", int, _SIM, "number of views / time samples")),
    ("scheme.kind", "bit_reversed",
     (lambda x: x in SCHEME_KINDS, "one of " + " | ".join(SCHEME_KINDS)),
     ("scheme", dict(zip(SCHEME_KINDS, SCHEME_KINDS)), _SIM, None)),
    ("scheme.seed", 0, _integer(0), ("scheme-seed", int, _SIM, None)),
    ("symmetric", True, (lambda x: isinstance(x, bool), "true or false"),
     ("symmetric", {"on": True, "off": False}, _BOTH, None)),
    ("model.K", 5, _integer(0), ("K", int, _BOTH, None)),
    ("model.N", 30, _integer(0), ("N", int, _BOTH, None)),
    ("model.d", 6, _integer(0), ("d", int, _BOTH, None)),
    ("grid.width", 64, _integer(8), ("width", int, _SIM, "grid width in pixels")),
    ("grid.support_diameter", 2.0, _number(positive=True), None),
    ("noise_sigma", 0.0, _number(positive=False), ("noise-sigma", float, _SIM, None)),
    ("seed", 0, _integer(0), ("seed", int, _SIM, None)),
    ("solver.max_iters", SolverConfig.max_iters, _integer(1),
     ("solver-max-iters", int, _REC, "Adam iteration cap per restart (d > K+1)")),
    ("solver.restarts", SolverConfig.restarts, _integer(1),
     ("solver-restarts", int, _REC, "random starting points of the descent (d > K+1)")),
    ("solver.seed", SolverConfig.seed, _integer(0),
     ("solver-seed", int, _REC, "seed of the starting points (d > K+1)")),
    ("phantom", "example", None, None),
    ("motion.translation", [0.06875, -0.0625], None, None),
    ("motion.rotation", 0.19634954084936207, None, None),
    ("motion.scaling", [0.05, -0.04], None, None),
    ("detector.count", None, _integer(1, null=True), None),
    ("detector.spacing", None, _number(positive=True, null=True), None),
    ("fbp_angles_count", None, _integer(2, null=True), None),
)


def _nested(items) -> dict:
    """The dict holding each value of ``items`` ((path "a.b", value) pairs) at its path."""
    out = {}
    for path, val in items:
        *parents, leaf = path.split(".")
        node = out
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = val
    return out


DEFAULT_CONFIG = _nested((path, default) for path, default, _, _ in _FIELDS)


def _setting_flags(command: str) -> list:
    """(config path, flag) of each setting flag that ``command`` takes, in table order."""
    return [(path, flag) for path, _, _, flag in _FIELDS if flag and command in flag[2]]


# analyze study flag -> (argparse type, check, help), the check being a field check
# of ``_FIELDS``; K = 0 and N = 0 are valid model orders
_ANALYZE_FLAGS = {
    "P": (int, _integer(1), None), "K": (int, _integer(0), None),
    "N": (int, _integer(0), None), "d": (int, _integer(1), None),
    "J": (int, _integer(1), None), "trials": (int, _integer(1), None),
    "seed": (int, _integer(0), None),
    "bandwidth": (float, _number(positive=False), "spatial bandwidth B"),
    "cmax": (float, _number(positive=False), "max translation"),
    "L": (float, _number(positive=False), "support radius"),
    "thetamax": (float, _number(positive=False), "max rotation angle"),
    "kmax": (int, _integer(0), "largest truncation order in the table"),
}
# analyze study switch -> (the ``analysis`` function that runs the study, whose
# parameters are the study flags it reads; the header of its CSV; the CSV rows
# from the study's result and the arguments it ran with)
_STUDIES = {
    "table1": ("table1", "quantity,scheme,symmetric,value",
               lambda rows, ran: [f"{quantity},{kind},{int(symmetric)},{value!r}"
                                  for quantity, kind, symmetric, value in rows]),
    "thm2": ("rank_check_L1", "P,K,N,trials,full_rank_passes",
             lambda passes, ran: [f"{ran['P']},{ran['K']},{ran['N']},{ran['trials']},{passes}"]),
    "thm3": ("theorem3_sweep", "trials,bound_satisfied,worst_ratio",
             lambda result, ran: [f"{ran['trials']},{result[0]},{result[1]!r}"]),
    "bounds": ("bounds_table", "K,translation_bound,rotation_bound",
               lambda rows, ran: [f"{K},{tb!r},{rb!r}" for K, tb, rb in rows]),
}


class ConfigError(ProsepError):
    """Invalid run configuration; the message names the offending field."""


def _write_text_atomic(path, text: str) -> None:
    from .tensorio import atomic_write

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
        cfg = _deep_update(cfg, PRESETS[preset])
    if overrides:
        cfg = _deep_update(cfg, overrides)
    _validate_config(cfg, force=force)
    return cfg


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
    """Each field passes its ``_FIELDS`` check; then the rules that span fields."""
    _check_keys(cfg)
    version = cfg.get("format_version", FORMAT_VERSION)
    _need(_is_int(version) and version == FORMAT_VERSION, "format_version",
          f"must be {FORMAT_VERSION}, got {version!r}")
    for path, _, check, _ in _FIELDS:
        if check is not None:
            _require(f"field {path!r}", functools.reduce(operator.getitem, path.split("."), cfg),
                     check)
    model, P, symmetric = cfg["model"], cfg["P"], cfg["symmetric"]
    K, d = model["K"], model["d"]
    _need(d >= K + 1, "model.d", f"must be at least K + 1 = {K + 1}, got {d}")
    _need(d <= P, "model.d", f"must be at most P = {P}, got {d}")
    from .psmodel import HarmonicOrder  # after the checks that need no numpy

    shortfall = HarmonicOrder(**model).shortfall(P, symmetric)
    _need(force or not shortfall, "model",
          f"{shortfall}; the model is not recoverable (pass --force to proceed anyway)")


def _phantom_from_config(cfg: dict, pixel: float):
    from .phantom import Ellipse, PhantomSpec, example_phantom

    width = cfg["grid"]["width"]
    ph = cfg["phantom"]
    if ph == "example":
        return example_phantom(width=width, support_diameter=cfg["grid"]["support_diameter"])
    _need(isinstance(ph, dict) and set(ph) == {"ellipses"}, "phantom",
          "must be \"example\" or an object with one key 'ellipses'")
    try:
        ells = tuple(Ellipse(**e) for e in ph["ellipses"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"field 'phantom.ellipses': {e}")
    _need(ells, "phantom.ellipses", "must hold at least one ellipse")
    return PhantomSpec(ellipses=ells, width=width, pixel_size=pixel)


def _scheme_from_config(cfg: dict):
    from .sampling import bit_reversed, progressive, random_scheme, span_for

    span = span_for(cfg["symmetric"])
    kind = cfg["scheme"]["kind"]
    if kind == "progressive":
        return progressive(cfg["P"], span)
    if kind == "bit_reversed":
        return bit_reversed(cfg["P"], span)
    return random_scheme(cfg["P"], span, seed=cfg["scheme"]["seed"])


def _resolve_nulls(cfg: dict) -> float:
    """Fill the null defaults of ``cfg`` in place; return the pixel size D / W.

    Each is derived from the grid width W or the view count P: a null
    ``detector.count`` becomes W + 1, a null ``detector.spacing`` the pixel
    size and a null ``fbp_angles_count`` min(P, 4W).
    """
    pixel = cfg["grid"]["support_diameter"] / cfg["grid"]["width"]
    det = cfg["detector"]
    if det["count"] is None:
        det["count"] = cfg["grid"]["width"] + 1
    if det["spacing"] is None:
        det["spacing"] = pixel
    if cfg["fbp_angles_count"] is None:
        cfg["fbp_angles_count"] = min(cfg["P"], 4 * cfg["grid"]["width"])
    return pixel


def _setting_overrides(args) -> dict:
    """The config overrides of the setting flags given to ``args.command``."""
    given = []
    for path, (name, kind, _, _) in _setting_flags(args.command):
        val = getattr(args, name.replace("-", "_"))
        if val is not None:
            given.append((path, kind[val] if isinstance(kind, dict) else val))
    return _nested(given)


# ------------------------------------------------------------- commands

def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.preset, _setting_overrides(args), force=args.force)
    from .phantom import (
        MotionSpec,
        MovieFile,
        benchmark_movie,
        render_chunks,
        simulate_acquisition,
    )
    from .radon import DetectorGrid
    from .sampling import sample_times
    from .tensorio import write_chunks, write_tensor

    pixel = _resolve_nulls(cfg)
    spec = _phantom_from_config(cfg, pixel)
    try:
        motion = MotionSpec(**cfg["motion"])
    except (TypeError, ValueError) as e:
        raise ConfigError(f"field 'motion': {e}")
    detector = DetectorGrid(**cfg["detector"])

    # The truth goes straight to its file, a few frames at a time, and the
    # benchmark's view loop reads it back from there, so no truth-sized
    # array is held beside the loop's accumulator.  The acquisition comes
    # last: a random scheme or noise draw is the process's first use of
    # np.random, which loads about 5 MB of libraries (secrets, hmac,
    # libcrypto) that would otherwise stay resident through the benchmark.
    # An acquisition that fails (noise that is not finite) leaves the two
    # movie files behind.
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
    from .psmodel import HarmonicOrder, spline_interpolator
    from .radon import DetectorGrid, Sinogram
    from .recon import ProSepSolution, movie_chunks, movie_factors
    from .sampling import AngularScheme, sample_times, span_for
    from .solver import solve
    from .tensorio import read_tensor, write_chunks, write_tensor

    pixel = _resolve_nulls(cfg)
    sino_path = os.path.join(indir, "sinogram.tensor")
    angles_path = os.path.join(indir, "angles.tensor")
    sino = read_tensor(sino_path)
    angles = read_tensor(angles_path)
    symmetric = cfg["symmetric"]

    P = cfg["P"]
    if angles.shape != (P,):
        raise ProsepError(
            f"{angles_path}: shape {angles.shape}, but the manifest has P = {P} angles")
    span = span_for(symmetric)
    if (angles >= span).any():
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
        data = Sinogram(values=sino, angles=scheme.angles, detector=detector)
    except ValueError as e:
        raise ProsepError(f"{sino_path}: {e}") from None
    order = HarmonicOrder(**cfg["model"])
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
    summary.update(model=cfg["model"], symmetric=symmetric)
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


def _analyze_flags(args, studies: dict) -> dict:
    """The arguments of each chosen study: the flags given that it reads, then its defaults.

    ``studies`` maps each chosen switch to its ``analysis`` function, whose
    parameters are the flags the study reads.  Each flag given must pass
    its check and be read by some chosen study.
    """
    given = {f: getattr(args, f) for f in _ANALYZE_FLAGS if getattr(args, f) is not None}
    for flag, val in given.items():
        _require(f"flag '--{flag}'", val, _ANALYZE_FLAGS[flag][1])
    reads = {s: inspect.signature(fn).parameters for s, fn in studies.items()}
    unread = [f for f in given if not any(f in params for params in reads.values())]
    if unread:
        raise ConfigError(f"flag(s) {', '.join(repr('--' + f) for f in unread)}: read by "
                          f"none of the chosen studies ({' '.join('--' + s for s in studies)})")
    return {s: {f: given.get(f, param.default) for f, param in params.items()}
            for s, params in reads.items()}


def _study(fn, ran: dict):
    """``fn(**ran)``; study parameters it rejects are a ConfigError."""
    try:
        return fn(**ran)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def cmd_analyze(args) -> int:
    chosen = [s for s in _STUDIES if getattr(args, s)]
    if not chosen:
        print(f"analyze: nothing to do (pass {' / '.join('--' + s for s in _STUDIES)})",
              file=sys.stderr)
        return 1
    from . import analysis  # numpy and the studies load once a study is chosen

    studies = {s: getattr(analysis, _STUDIES[s][0]) for s in chosen}
    ran = _analyze_flags(args, studies)
    out = args.out
    os.makedirs(out, exist_ok=True)
    for name, fn in studies.items():
        _, header, csv_rows = _STUDIES[name]
        lines = [header, *csv_rows(_study(fn, ran[name]), ran[name])]
        _write_text_atomic(os.path.join(out, f"{name}.csv"), "\n".join(lines) + "\n")
    print(f"analyze: wrote {', '.join(s + '.csv' for s in studies)} in {out}")
    return 0


def cmd_metrics(args) -> int:
    from .phantom import MovieFile
    from .recon import movie_metrics

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
    for _, (name, kind, _, help_) in _setting_flags(command):
        typed = {"choices": list(kind)} if isinstance(kind, dict) else {"type": kind}
        parser.add_argument(f"--{name}", help=help_, **typed)


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
    for study in _STUDIES:
        ana.add_argument(f"--{study}", action="store_true")
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

    def show(message, category, filename, lineno, file=None, line=None):
        print(f"prosep {args.command}: warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            return args.func(args)
        except (ProsepError, OSError) as e:
            print(f"prosep {args.command}: {e}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
