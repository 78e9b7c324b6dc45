import argparse
import copy
import dataclasses
import inspect
import json
import math
import re
import shutil
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import DEFAULT_MOTION, Movie, movie_of
from prosep import analysis
from prosep.cli import (
    _ANALYZE_FLAGS,
    _FIELDS,
    _STUDIES,
    DEFAULT_CONFIG,
    ConfigError,
    _resolve_nulls,
    build_parser,
    load_config,
    main,
)
from prosep.errors import ProsepError, TensorFormatError
from prosep.phantom import (
    MovieFile,
    benchmark_movie,
    example_phantom,
    render_chunks,
    simulate_acquisition,
)
from prosep.psmodel import HarmonicCoefficients, HarmonicOrder, spline_interpolator
from prosep.radon import DetectorGrid, Sinogram, support_mask
from prosep.recon import component_images, movie_metrics
from prosep.sampling import bit_reversed, random_scheme, sample_times, span_for
from prosep.solver import SolverConfig, SolverReport, solve
from prosep.tensorio import MAGIC, read_tensor, write_tensor


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def nested(field, value, base=None):
    """A copy of ``base`` (default {}) with ``value`` at field "a.b": {"a": {"b": value}}."""
    *parents, leaf = field.split(".")
    overrides = node = copy.deepcopy(base or {})
    for key in parents:
        node = node.setdefault(key, {})
    node[leaf] = value
    return overrides


def run_simulate(out, extra=()):
    args = [
        "simulate", "--out", str(out), "--P", "32", "--width", "32",
        "--K", "1", "--N", "4", "--d", "2",
        "--scheme", "bit_reversed", "--symmetric", "on",
    ] + list(extra)
    return main(args)


# the run_simulate settings as a config file
SMALL_CONFIG = {"P": 32, "grid": {"width": 32}, "model": {"K": 1, "N": 4, "d": 2},
                "scheme": {"kind": "bit_reversed"}, "symmetric": True}
# a smaller run still: P = 16 on a 16 x 16 grid
TINY_CONFIG = {"P": 16, "grid": {"width": 16}, "model": {"K": 1, "N": 3, "d": 2}}

# every setting flag: (flag, argument, config field, config value); each value
# differs from the one the flag's test starts from
SIMULATE_FLAGS = [
    ("--P", "16", "P", 16),
    ("--scheme", "random", "scheme.kind", "random"),
    ("--scheme-seed", "3", "scheme.seed", 3),
    ("--symmetric", "off", "symmetric", False),
    ("--K", "0", "model.K", 0),
    ("--N", "3", "model.N", 3),
    ("--d", "3", "model.d", 3),
    ("--width", "16", "grid.width", 16),
    ("--noise-sigma", "0.02", "noise_sigma", 0.02),
    ("--seed", "5", "seed", 5),
]
RECONSTRUCT_FLAGS = [
    ("--K", "0", "model.K", 0),
    ("--N", "3", "model.N", 3),
    ("--d", "4", "model.d", 4),
    ("--symmetric", "off", "symmetric", False),
    ("--solver-max-iters", "7", "solver.max_iters", 7),
    ("--solver-restarts", "2", "solver.restarts", 2),
    ("--solver-seed", "4", "solver.seed", 4),
]


# ------------------------------------------------------------- tensor files

def test_tensor_roundtrip_bit_exact(tmp_path, rng):
    arr = rng.standard_normal((3, 5, 7))
    path = tmp_path / "x.tensor"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)
    write_tensor(path, arr)  # second write produces identical bytes
    b1 = read_bytes(path)
    write_tensor(path, arr)
    assert read_bytes(path) == b1


def test_tensor_header_layout(tmp_path):
    path = tmp_path / "y.tensor"
    write_tensor(path, np.arange(6.0).reshape(2, 3))
    raw = read_bytes(path)
    assert raw[:8] == MAGIC
    assert int.from_bytes(raw[8:12], "little") == 2
    assert int.from_bytes(raw[12:20], "little") == 2
    assert int.from_bytes(raw[20:28], "little") == 3
    assert len(raw) == 28 + 8 * 6


def test_tensor_rejects_corruption(tmp_path):
    path = tmp_path / "z.tensor"
    write_tensor(path, np.ones(4))
    raw = bytearray(read_bytes(path))
    raw[0] ^= 0xFF
    bad = tmp_path / "bad.tensor"
    bad.write_bytes(bytes(raw))
    with pytest.raises(TensorFormatError):
        read_tensor(bad)
    trunc = tmp_path / "trunc.tensor"
    trunc.write_bytes(read_bytes(path)[:-4])
    with pytest.raises(TensorFormatError):
        read_tensor(trunc)


def test_tensor_rejects_payload_longer_than_header(tmp_path):
    path = tmp_path / "long.tensor"
    write_tensor(path, np.ones(4))
    path.write_bytes(read_bytes(path) + struct.pack("<d", 1.0))
    with pytest.raises(TensorFormatError, match=r"payload length 40 != 8 \* prod\(dims\) = 32"):
        read_tensor(path)


def test_tensor_rejects_overflowing_dims(tmp_path):
    """8 * 2**32 * 2**32 wraps to 0 in int64; an empty payload must still fail."""
    huge = tmp_path / "huge.tensor"
    huge.write_bytes(MAGIC + struct.pack("<I", 2) + struct.pack("<QQ", 2**32, 2**32))
    with pytest.raises(TensorFormatError, match="payload length"):
        read_tensor(huge)
    rc = main(["metrics", "--movie", str(huge), "--benchmark", str(huge),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 1


# ------------------------------------------------------------- config

def test_config_presets_match_published_orders():
    cfg = load_config(preset="p512-symm")
    assert cfg["model"] == {"K": 7, "N": 48, "d": 8}
    assert cfg["P"] == 512 and cfg["symmetric"] is True
    cfg = load_config(preset="p256")
    assert cfg["model"] == {"K": 3, "N": 24, "d": 4}


def test_config_rejects_underdetermined_model():
    with pytest.raises(ConfigError, match="model"):
        load_config(overrides={"P": 16, "model": {"K": 5, "N": 30, "d": 6}})
    # force lets it through
    cfg = load_config(overrides={"P": 16, "model": {"K": 5, "N": 30, "d": 6}}, force=True)
    assert cfg["P"] == 16


@pytest.mark.parametrize("P, symmetric, model", [
    (128, True, {"K": 2, "N": 42, "d": 3}),  # 2P = 256 >= 255, but P < (N+1)(K+1) = 129
    (64, False, {"K": 1, "N": 20, "d": 2}),  # 2P = 128 >= 82, but P < (2N+1)(K+1) = 82
])
def test_config_rejects_model_with_a_wide_block(P, symmetric, model):
    """The 2P count passes these models; a block of L1 with more columns than rows does not."""
    with pytest.raises(ConfigError, match="model"):
        load_config(overrides={"P": P, "symmetric": symmetric, "model": model})


def test_config_error_names_field():
    with pytest.raises(ConfigError, match="scheme.kind"):
        load_config(overrides={"scheme": {"kind": "sequential"}})


def test_config_fbp_angles_count_is_null_or_integer_at_least_2():
    assert load_config(overrides={"fbp_angles_count": None})["fbp_angles_count"] is None
    assert load_config(overrides={"fbp_angles_count": 2})["fbp_angles_count"] == 2
    for bad in (2.5, "x", 1, 0, -4, [180]):
        with pytest.raises(ConfigError, match="fbp_angles_count"):
            load_config(overrides={"fbp_angles_count": bad})


@pytest.mark.parametrize("field,bad", [
    ("detector.count", -3), ("detector.count", 2.5), ("detector.count", 0),
    ("detector.spacing", -1), ("detector.spacing", "x"),
    ("noise_sigma", "x"), ("noise_sigma", -0.1),
    ("grid.support_diameter", "x"),
    ("scheme.seed", "x"), ("scheme.seed", -1),
    ("seed", "x"),
    ("model.d", 300),  # d > P = 256
    ("grid", 5),
    ("solver.restarts", 2.7), ("solver.restarts", True), ("solver.restarts", "12"),
    ("solver.restarts", 0), ("solver.max_iters", 0), ("solver.max_iters", 1e3),
    ("solver.seed", -3), ("solver.seed", None),
    ("format_version", 1), ("format_version", "2"),
    # a JSON true/false only: 1 in (True, False) is true
    ("symmetric", "false"), ("symmetric", None), ("symmetric", 0), ("symmetric", 1),
])
def test_config_malformed_field_is_config_error(field, bad):
    with pytest.raises(ConfigError, match=field):
        load_config(overrides=nested(field, bad))


def _wrong_type_values(what):
    """Values of a JSON type that a check accepting ``what`` must refuse."""
    values = ["x"]
    if "integer" in what or "number" in what:
        values.append(True)
    if "integer" in what:
        values.append(2.5)
    if not what.startswith("null or "):
        values.append(None)
    return values


@pytest.mark.parametrize("field, bad", [
    (path, bad) for path, _, check, _ in _FIELDS if check is not None
    for bad in _wrong_type_values(check[1])
])
def test_every_checked_field_refuses_a_value_of_the_wrong_type(field, bad):
    assert load_config() == DEFAULT_CONFIG
    with pytest.raises(ConfigError, match=f"^field '{re.escape(field)}': "):
        load_config(overrides=nested(field, bad))


@pytest.mark.parametrize("preset", [None, "p256"])
def test_config_unknown_model_field_is_refused_with_or_without_a_preset(tmp_path, preset):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": {"k": 1}}))
    with pytest.raises(ConfigError, match="unknown field.*'model.k'"):
        load_config(str(cfg), preset=preset)


@pytest.mark.parametrize("field", ["modle", "grid.widht", "solver.restart", "model.k"])
def test_config_rejects_unknown_field(field):
    with pytest.raises(ConfigError, match=f"unknown field.*'{field}'"):
        load_config(overrides=nested(field, 1))


def test_config_detector_accepts_integer_count_and_positive_spacing():
    for det in ({"count": 1, "spacing": 1}, {"count": 40, "spacing": 0.05}):
        assert load_config(overrides={"detector": det})["detector"] == det


# ------------------------------------------------------------- simulate

@pytest.mark.parametrize("command, rows", [("simulate", SIMULATE_FLAGS),
                                           ("reconstruct", RECONSTRUCT_FLAGS)])
def test_flag_tests_cover_every_setting_flag(command, rows):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt for a in sub.choices[command]._actions for opt in a.option_strings}
    not_settings = {"-h", "--help", "--config", "--preset", "--out", "--input", "--force"}
    assert flags - not_settings == {row[0] for row in rows}


@pytest.mark.parametrize("flag, arg, field, value", SIMULATE_FLAGS)
def test_simulate_setting_flag_sets_its_config_field(tmp_path, flag, arg, field, value):
    base, held = tmp_path / "base.json", tmp_path / "held.json"
    base.write_text(json.dumps(SMALL_CONFIG))
    held.write_text(json.dumps(nested(field, value, SMALL_CONFIG)))
    assert main(["simulate", "--config", str(base), flag, arg,
                 "--out", str(tmp_path / "flag")]) == 0
    assert main(["simulate", "--config", str(held), "--out", str(tmp_path / "cfg")]) == 0
    assert (read_bytes(tmp_path / "flag" / "manifest.json")
            == read_bytes(tmp_path / "cfg" / "manifest.json"))


def test_simulate_deterministic_and_shapes(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run_simulate(out1) == 0
    assert run_simulate(out2) == 0
    names = ["sinogram.tensor", "angles.tensor", "times.tensor",
             "truth_movie.tensor", "benchmark_movie.tensor", "manifest.json"]
    for name in names:
        assert read_bytes(out1 / name) == read_bytes(out2 / name), name
    sino = read_tensor(out1 / "sinogram.tensor")
    assert sino.shape == (33, 32)  # J x P
    movie = read_tensor(out1 / "benchmark_movie.tensor")
    assert movie.shape == (32, 32, 32)  # P x W x W


def test_simulate_static_motion_benchmark_constant(tmp_path):
    out = tmp_path / "static"
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps({
        "motion": {"translation": [0.0, 0.0], "rotation": 0.0, "scaling": [0.0, 0.0]},
    }))
    args = ["simulate", "--out", str(out), "--config", str(cfgpath), "--P", "8",
            "--width", "32", "--K", "1", "--N", "3", "--d", "2"]
    assert main(args) == 0
    bench = read_tensor(out / "benchmark_movie.tensor")
    for p in range(1, bench.shape[0]):
        assert np.allclose(bench[p], bench[0], atol=1e-12 * max(np.abs(bench[0]).max(), 1))


@pytest.mark.parametrize("content, named", [
    ({"modle": {"K": 1}}, "'modle'"),
    ({"solver": {"seed": -3}}, "'solver.seed'"),
    ([1, 2], "JSON object"),
    ({"phantom": {"elipses": []}}, "'phantom'"),
    ({"phantom": {"ellipses": [{"center": [0, 0], "semi_axes": [0.5, 0.5], "intensty": 2}]}},
     "'phantom.ellipses'"),
    ({"phantom": {"ellipses": [{"center": [0, 0], "semi_axes": [0.5, 0.5], "angle": "x"}]}},
     "'phantom.ellipses'"),
    # numbers that are not finite reals, on a small run (json writes NaN and Infinity)
    ({**TINY_CONFIG, "motion": {"translation": ["a", 0.0]}}, "'motion'"),
    ({**TINY_CONFIG, "motion": {"rotation": float("nan")}}, "'motion'"),
    ({**TINY_CONFIG, "motion": {"scaling": [float("nan"), 0.0]}}, "'motion'"),
    ({**TINY_CONFIG, "grid": {"width": 16, "support_diameter": float("inf")}},
     "'grid.support_diameter'"),
    ({**TINY_CONFIG, "phantom": {"ellipses": [{"center": [0, 0],
                                               "semi_axes": [float("nan"), 0.3]}]}},
     "'phantom.ellipses'"),
    ({**TINY_CONFIG, "noise_sigma": float("inf")}, "'noise_sigma'"),
    ({**TINY_CONFIG, "phantom": "phantom.json"}, "'phantom'"),
    # integers too large for a float
    ({**TINY_CONFIG, "motion": {"rotation": 10**400}}, "'motion'"),
    ({**TINY_CONFIG, "noise_sigma": 10**400}, "'noise_sigma'"),
    # numeric strings, which float() would read
    ({**TINY_CONFIG, "motion": {"rotation": "0.1"}}, "'motion'"),
    ({**TINY_CONFIG, "phantom": {"ellipses": [{"center": [0, 0], "semi_axes": [0.5, 0.5],
                                               "angle": "0.2"}]}}, "'phantom.ellipses'"),
    ({**TINY_CONFIG, "phantom": {"ellipses": [{"center": [0, 0], "semi_axes": [0.5, 0.5],
                                               "intensity": "1"}]}}, "'phantom.ellipses'"),
    ({**TINY_CONFIG, "phantom": {"ellipses": []}}, "'phantom.ellipses'"),
    # a string is not a boolean, whatever it spells
    ({**TINY_CONFIG, "symmetric": "false"}, "'symmetric'"),
    # an ellipse without its semi-axes, and one that is not an object
    ({**TINY_CONFIG, "phantom": {"ellipses": [{"center": [0, 0]}]}}, "'phantom.ellipses'"),
    ({**TINY_CONFIG, "phantom": {"ellipses": [[0, 0]]}}, "'phantom.ellipses'"),
])
def test_simulate_bad_config_file_exits_1_with_one_line(tmp_path, capsys, content, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("prosep simulate: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "x").exists()


def test_simulate_invalid_config_exits_1(tmp_path, capsys):
    rc = main(["simulate", "--out", str(tmp_path / "x"), "--P", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "'P'" in err  # message names the offending field


def test_simulate_bit_reversed_at_a_p_that_is_not_a_power_of_two(tmp_path):
    """The bit-reversed angles of P = 48 are the first 48 of those of P = 64."""
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--P", "48", "--width", "16", "--K", "1",
                 "--N", "3", "--d", "2"]) == 0
    cfg = json.loads((out / "manifest.json").read_text())
    assert cfg["scheme"]["kind"] == "bit_reversed" and cfg["P"] == 48
    assert read_tensor(out / "angles.tensor").tobytes() == \
        bit_reversed(64, span_for(True)).angles[:48].tobytes()


def test_manifest_replay_reproduces_run(tmp_path):
    """manifest.json is a complete config: replaying it is bit-identical."""
    out1 = tmp_path / "r1"
    assert run_simulate(out1, extra=("--noise-sigma", "0.02", "--seed", "5")) == 0
    out2 = tmp_path / "r2"
    rc = main(["simulate", "--out", str(out2), "--config", str(out1 / "manifest.json")])
    assert rc == 0
    for name in ("sinogram.tensor", "benchmark_movie.tensor", "manifest.json"):
        assert read_bytes(out1 / name) == read_bytes(out2 / name), name
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["format_version"] == 2
    assert manifest["solver"] == {"max_iters": 5000, "restarts": 5, "seed": 0}


def test_simulate_null_scheme_seed_is_refused(tmp_path, capsys):
    """scheme.seed defaults to 0, and null is not an integer: one line, no output directory."""
    cfgpath = tmp_path / "null.json"
    cfgpath.write_text(json.dumps(nested("scheme.seed", None, SMALL_CONFIG)))
    rc = main(["simulate", "--config", str(cfgpath), "--out", str(tmp_path / "out"),
               "--scheme", "random", "--P", "16", "--width", "16"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == ("prosep simulate: field 'scheme.seed': must be an integer >= 0, "
                   "got None\n")
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------- reconstruct

@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "sim"
    assert run_simulate(out) == 0
    return out


def test_reconstruct_outputs_and_determinism(sim_dir, tmp_path):
    out1 = tmp_path / "rec1"
    args = ["reconstruct", "--input", str(sim_dir), "--out", str(out1),
            "--solver-max-iters", "600", "--solver-restarts", "2"]
    rc = main(args)
    assert rc in (0, 2)
    movie = read_tensor(out1 / "movie.tensor")
    assert movie.shape == (32, 32, 32)  # P x W x W
    Z = read_tensor(out1 / "Z.tensor")
    assert Z.shape == (2, 2)  # d x (K+1)
    psi = read_tensor(out1 / "psi.tensor")
    assert np.linalg.norm(psi.T @ psi - np.eye(2)) < 1e-8
    beta = read_tensor(out1 / "beta.tensor")
    assert beta.shape == (9 * 2, 33)  # (2N+1)(K+1) x J
    assert (out1 / "solver_report.csv").exists()
    summary = json.loads((out1 / "solver_report.json").read_text())
    assert {"final_objective", "converged", "chosen_restart",
            "truncated_singular_values"} <= set(summary)

    out2 = tmp_path / "rec2"
    assert main(["reconstruct", "--input", str(sim_dir), "--out", str(out2),
                 "--solver-max-iters", "600", "--solver-restarts", "2"]) == rc
    for name in ("Z.tensor", "beta.tensor", "psi.tensor", "movie.tensor",
                 "solver_report.csv"):
        assert read_bytes(out1 / name) == read_bytes(out2 / name), name


@pytest.mark.parametrize("flag, arg, field, value", RECONSTRUCT_FLAGS)
def test_reconstruct_setting_flag_sets_its_manifest_field(sim_dir, tmp_path, flag, arg, field,
                                                          value):
    # d = 3 > K+1 and a short descent: the solver flags change the outputs
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    manifest["model"]["d"] = 3
    manifest["solver"].update(max_iters=5, restarts=1)
    outputs = []
    for name, held, extra in (("flag", manifest, [flag, arg]),
                              ("cfg", nested(field, value, manifest), [])):
        run = tmp_path / name
        shutil.copytree(sim_dir, run)
        (run / "manifest.json").write_text(json.dumps(held))
        rc = main(["reconstruct", "--input", str(run), "--out", str(run / "rec"), *extra])
        outputs.append((rc, {p.name: p.read_bytes() for p in (run / "rec").iterdir()}))
    assert outputs[0] == outputs[1]


def test_reconstruct_resolves_null_detector_and_fbp_count(sim_dir, tmp_path):
    """Null detector fields and fbp_angles_count take the values simulate resolved."""
    nulls = tmp_path / "nulls"
    shutil.copytree(sim_dir, nulls)
    manifest = json.loads((nulls / "manifest.json").read_text())
    manifest.update(detector={"count": None, "spacing": None}, fbp_angles_count=None)
    (nulls / "manifest.json").write_text(json.dumps(manifest))
    for run, out in ((sim_dir, "resolved"), (nulls, "null")):
        assert main(["reconstruct", "--input", str(run), "--out", str(tmp_path / out)]) == 0
    for name in ("Z.tensor", "beta.tensor", "psi.tensor", "movie.tensor"):
        assert read_bytes(tmp_path / "resolved" / name) == read_bytes(tmp_path / "null" / name)


def test_reconstruct_exit_2_when_not_converged(sim_dir, tmp_path):
    # d = 3 > K+1 = 2: Z is identifiable and the capped descent runs
    out = tmp_path / "nc"
    rc = main(["reconstruct", "--input", str(sim_dir), "--out", str(out),
               "--solver-max-iters", "3", "--solver-restarts", "1", "--d", "3"])
    assert rc == 2
    summary = json.loads((out / "solver_report.json").read_text())
    assert summary["z_identifiable"] is True
    assert summary["rank_margin"] == 64 - 9 * 2  # 2P - (2N+1)(K+1)
    assert summary["block_rank_margin"] == 32 - 5 * 2  # P - (N+1)(K+1)


@pytest.mark.parametrize("symmetric, rows", [("on", 64), ("off", 32)])
def test_reconstruct_closed_form_when_z_not_identifiable(sim_dir, tmp_path, capsys,
                                                         symmetric, rows):
    """d = K+1: no descent runs, so the iteration cap cannot be reached."""
    out = tmp_path / "cf"
    rc = main(["reconstruct", "--input", str(sim_dir), "--out", str(out),
               "--solver-max-iters", "1", "--symmetric", symmetric])
    assert rc == 0
    assert "Z not identifiable" in capsys.readouterr().out
    summary = json.loads((out / "solver_report.json").read_text())
    assert summary["z_identifiable"] is False
    assert summary["rank_margin"] == rows - 9 * 2  # rows - (2N+1)(K+1)
    # the largest block: 5 even harmonics of N = 4 with the symmetry, all 9 without
    assert summary["block_rank_margin"] == 32 - (5 if symmetric == "on" else 9) * 2
    assert summary["converged"] is True and summary["iterations_used"] == 0
    assert summary["restart_objectives"] == []
    assert np.array_equal(read_tensor(out / "Z.tensor"), np.eye(2))


def test_reconstruct_underdetermined_override_warns_and_runs(sim_dir, tmp_path, capsys):
    out = tmp_path / "under"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        rc = main(["reconstruct", "--input", str(sim_dir), "--out", str(out), "--N", "40"])
    assert rc == 0 and escaped == []
    assert capsys.readouterr().err == (
        "prosep reconstruct: warning: P = 32 < (N+1)(K+1) = 82: the linearized model cannot "
        "have full column rank and recovery is not unique\n")
    summary = json.loads((out / "solver_report.json").read_text())
    assert summary["rank_margin"] == 64 - 81 * 2
    assert summary["block_rank_margin"] == 32 - 41 * 2  # 41 even harmonics of N = 40
    assert abs(summary["final_objective"]) < 1e-12
    assert summary["kappa_L1"] is None  # a wide block: written as JSON null


@pytest.mark.parametrize("flag, value, field", [
    ("--K", "9", "model.d"),  # d = 2 < K + 1
    ("--d", "1", "model.d"),
    ("--N", "-1", "model.N"),
    ("--K", "-1", "model.K"),
    ("--d", "40", "model.d"),  # d > P = 32: no spline interpolator
    ("--solver-seed", "-1", "solver.seed"),
    ("--solver-max-iters", "0", "solver.max_iters"),
    ("--solver-restarts", "0", "solver.restarts"),
])
def test_reconstruct_rejects_bad_model_override(sim_dir, tmp_path, capsys, flag, value, field):
    out = tmp_path / "bad"
    rc = main(["reconstruct", "--input", str(sim_dir), "--out", str(out), flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("prosep reconstruct: ") and err.count("\n") == 1
    assert f"'{field}'" in err
    assert not out.exists()


def test_reconstruct_rejects_a_format_1_manifest(sim_dir, tmp_path, capsys):
    """Format 1 had seven solver keys; the four that became constants are unknown fields."""
    old = tmp_path / "v1"
    shutil.copytree(sim_dir, old)
    manifest = json.loads((old / "manifest.json").read_text())
    manifest["format_version"] = 1
    manifest["solver"].update(step_size=0.2, penalty_weight=1.0, tol_rel_objective=1e-9,
                              pinv_rank_rtol=1e-10)
    (old / "manifest.json").write_text(json.dumps(manifest))
    rc = main(["reconstruct", "--input", str(old), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("prosep reconstruct: ") and err.count("\n") == 1
    assert "'solver.step_size'" in err
    assert not (tmp_path / "out").exists()


def test_reconstruct_rejects_a_manifest_whose_symmetric_is_not_a_boolean(sim_dir, tmp_path,
                                                                         capsys):
    run = tmp_path / "run"
    shutil.copytree(sim_dir, run)
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["symmetric"] = "false"
    (run / "manifest.json").write_text(json.dumps(manifest))
    rc = main(["reconstruct", "--input", str(run), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("prosep reconstruct: ") and err.count("\n") == 1
    assert "'symmetric'" in err
    assert not (tmp_path / "out").exists()


def test_reconstruct_solver_flags_are_the_solver_config_fields():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {opt for a in sub.choices["reconstruct"]._actions for opt in a.option_strings
             if opt.startswith("--solver-")}
    assert flags == {"--solver-" + f.name.replace("_", "-")
                     for f in dataclasses.fields(SolverConfig)}


def test_reconstruct_report_keys_are_the_solver_report_fields(sim_dir, tmp_path):
    """solver_report.json is the SolverReport without its traces, plus model and symmetric."""
    out = tmp_path / "keys"
    assert main(["reconstruct", "--input", str(sim_dir), "--out", str(out)]) == 0
    summary = json.loads((out / "solver_report.json").read_text())
    fields = {f.name for f in dataclasses.fields(SolverReport)}
    assert set(summary) == fields - {"objective_trace", "raw_objective_trace"} | {
        "model", "symmetric"}


def _nan_at_one_entry(sino):
    sino = sino.copy()
    sino[3, 5] = np.nan
    return sino


@pytest.mark.parametrize("name, corrupt, reason", [
    ("angles.tensor", lambda a: np.concatenate([a[:-1], a[:1]]), "angles must be distinct"),
    ("sinogram.tensor", lambda g: g[:, :20],
     "values shape (33, 20) != (detector.count, angles.size) = (33, 32)"),
    ("angles.tensor", lambda a: a[:16], "shape (16,), but the manifest has P = 32 angles"),
    ("sinogram.tensor", _nan_at_one_entry, "must be finite"),
])
def test_reconstruct_malformed_input_exits_1_with_one_line(sim_dir, tmp_path, capsys,
                                                           name, corrupt, reason):
    bad = tmp_path / "bad"
    shutil.copytree(sim_dir, bad)
    write_tensor(bad / name, corrupt(read_tensor(bad / name)))
    out = tmp_path / "out"
    rc = main(["reconstruct", "--input", str(bad), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"prosep reconstruct: {bad / name}: ") and err.count("\n") == 1
    assert reason in err
    assert not out.exists()


def test_reconstruct_missing_input_exits_1(tmp_path, capsys):
    rc = main(["reconstruct", "--input", str(tmp_path / "nowhere")])
    assert rc == 1


# ------------------------------------------------------------- analyze

def test_analyze_table1_layout(tmp_path):
    rc = main(["analyze", "--out", str(tmp_path), "--table1",
               "--P", "64", "--K", "1", "--N", "6", "--trials", "3",
               "--d", "3", "--J", "16"])
    assert rc == 0
    lines = (tmp_path / "table1.csv").read_text().strip().splitlines()
    assert lines[0] == "quantity,scheme,symmetric,value"
    assert len(lines) == 8  # header + 6 kappa_L1 + 1 kappa_L2
    assert sum(l.startswith("kappa_L1") for l in lines) == 6
    assert lines[-1].startswith("kappa_L2")


def test_analyze_table1_at_a_p_that_is_not_a_power_of_two(tmp_path):
    """P = 384 with the default orders: the symmetric bit-reversed kappa(L1) is finite."""
    assert main(["analyze", "--out", str(tmp_path), "--table1", "--P", "384",
                 "--trials", "5"]) == 0
    rows = [l.split(",") for l in (tmp_path / "table1.csv").read_text().splitlines()[1:]]
    kappa = {tuple(r[:3]): float(r[3]) for r in rows}
    assert kappa["kappa_L1", "bit_reversed", "1"] == pytest.approx(5.0192, rel=1e-4)


def test_analyze_thm2_and_no_flags(tmp_path, capsys):
    rc = main(["analyze", "--out", str(tmp_path), "--thm2",
               "--P", "32", "--K", "1", "--N", "5", "--trials", "10"])
    assert rc == 0
    body = (tmp_path / "thm2.csv").read_text().strip().splitlines()
    assert body[1].endswith(",10")  # 10/10 full-rank passes
    assert main(["analyze", "--out", str(tmp_path)]) == 1


def test_analyze_with_no_study_is_one_prefixed_line(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["analyze", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "prosep analyze: nothing to do (pass --table1 / --thm2 / --thm3 / --bounds)\n")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--trials", "0"), ("--P", "0"), ("--d", "0"), ("--J", "0"),
    ("--K", "-1"), ("--N", "-1"), ("--seed", "-1"),
    ("--bandwidth", "-1"), ("--cmax", "-0.5"), ("--L", "-1"), ("--thetamax", "-1"),
    ("--kmax", "-2"),
])
def test_analyze_rejects_out_of_range_flag(tmp_path, capsys, flag, value):
    rc = main(["analyze", "--out", str(tmp_path), "--thm2", "--thm3", "--bounds", flag, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"'{flag}'" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "thm2.csv").exists()
    assert not (tmp_path / "bounds.csv").exists()


def _refused_flag_values(flag):
    """Arguments that the check of ``flag`` must refuse.

    One below its least value, and for a float flag (each is nonnegative)
    NaN and both infinities too.
    """
    kind, (test, _), _ = _ANALYZE_FLAGS[flag]
    if kind is int:
        return [str(next(v for v in range(-1, 10) if test(v)) - 1)]
    assert test(0.0)
    return ["-0.5", "nan", "inf", "-inf"]


@pytest.mark.parametrize("flag, value", [
    (flag, value) for flag in _ANALYZE_FLAGS for value in _refused_flag_values(flag)
])
def test_every_analyze_flag_refuses_a_value_its_check_refuses(tmp_path, capsys, flag, value):
    """Each flag, walked from ``_ANALYZE_FLAGS``: exit 1, one line naming it, no --out."""
    out = tmp_path / "out"
    rc = main(["analyze", "--out", str(out), "--table1", "--thm2", "--thm3", "--bounds",
               f"--{flag}={value}"])
    assert rc == 1
    kind, (_, what), _ = _ANALYZE_FLAGS[flag]
    assert capsys.readouterr().err == (
        f"prosep analyze: flag '--{flag}': must be {what}, got {kind(value)!r}\n")
    assert not out.exists()


def test_analyze_rejects_flags_no_chosen_study_reads(tmp_path, capsys):
    rc = main(["analyze", "--out", str(tmp_path), "--thm2", "--P", "16", "--K", "1",
               "--N", "3", "--trials", "5", "--d", "7", "--J", "3", "--bandwidth", "9"])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert all(f"'{flag}'" in err for flag in ("--d", "--J", "--bandwidth"))
    assert "'--P'" not in err and "'--trials'" not in err
    assert not (tmp_path / "thm2.csv").exists()


@pytest.mark.parametrize("flags, P, K, N, trials, seed", [
    ((), 64, 2, 10, 100, 0),
    (("--P", "16", "--K", "1", "--N", "3", "--trials", "5", "--seed", "4"), 16, 1, 3, 5, 4),
])
def test_analyze_thm2_reads_its_flags_and_rank_check_defaults(tmp_path, flags, P, K, N,
                                                              trials, seed):
    """thm2.csv holds rank_check_L1's result and the arguments it ran with."""
    assert main(["analyze", "--out", str(tmp_path), "--thm2", *flags]) == 0
    passes = analysis.rank_check_L1(P=P, K=K, N=N, trials=trials, seed=seed)
    assert passes == trials
    assert (tmp_path / "thm2.csv").read_text() == (
        f"P,K,N,trials,full_rank_passes\n{P},{K},{N},{trials},{passes}\n"
    )


def test_analyze_thm3_forwards_model_flags(tmp_path):
    rc = main(["analyze", "--out", str(tmp_path), "--thm3", "--trials", "3",
               "--P", "8", "--K", "4", "--N", "7", "--d", "5", "--J", "80"])
    assert rc == 0
    passes, worst = analysis.theorem3_sweep(trials=3, P=8, K=4, N=7, d=5, J=80)
    assert passes == 3
    assert (tmp_path / "thm3.csv").read_text() == (
        f"trials,bound_satisfied,worst_ratio\n3,{passes},{worst!r}\n"
    )


def test_analyze_rejected_study_parameters_exit_1(tmp_path, capsys):
    # K = 4 needs d >= 5, and theorem3_sweep's default d is 3
    rc = main(["analyze", "--out", str(tmp_path), "--thm3", "--trials", "2", "--K", "4"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "d must be at least K + 1" in err and len(err.strip().splitlines()) == 1


def test_analyze_flags_are_the_parameters_of_the_study_functions():
    """Each analyze flag is a parameter of some study's function, and each parameter a flag.

    Every parameter has a default, which a flag left out takes.
    """
    params = [param for fn, _, _ in _STUDIES.values()
              for param in inspect.signature(getattr(analysis, fn)).parameters.values()]
    assert {param.name for param in params} == set(_ANALYZE_FLAGS)
    assert all(param.default is not inspect.Parameter.empty for param in params)


@pytest.mark.parametrize("flags, kwargs", [
    ((), {}),
    (("--bandwidth", "2.5", "--cmax", "0.3", "--L", "1.7", "--thetamax", "0.4", "--kmax", "3"),
     {"bandwidth": 2.5, "cmax": 0.3, "L": 1.7, "thetamax": 0.4, "kmax": 3}),
])
def test_analyze_bounds_writes_the_rows_of_bounds_table(tmp_path, flags, kwargs):
    assert main(["analyze", "--out", str(tmp_path), "--bounds", *flags]) == 0
    rows = [f"{K},{tb!r},{rb!r}\n" for K, tb, rb in analysis.bounds_table(**kwargs)]
    header = "K,translation_bound,rotation_bound\n"
    assert (tmp_path / "bounds.csv").read_text() == header + "".join(rows)


def test_analyze_bounds_beyond_the_float_range_writes_inf(tmp_path, capsys):
    """B = 1e300: the K = 0 bound is 1e300, every higher order is inf, and nothing is raised."""
    assert main(["analyze", "--out", str(tmp_path), "--bounds", "--bandwidth", "1e300"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = [row.split(",") for row in (tmp_path / "bounds.csv").read_text().splitlines()[1:]]
    assert [float(b) for b in rows[0][1:]] == pytest.approx([1e300, 1e300], rel=1e-12)
    assert rows[1:] == [[str(K), "inf", "inf"] for K in range(1, 13)]


@pytest.mark.parametrize("argv, text", [
    # P = 16 < (2N+1)(K+1) = 21 without the symmetry, from ``solve``
    (["reconstruct", "--input", "{run}", "--out", "{out}", "--K", "2", "--d", "3",
      "--symmetric", "off"],
     "P = 16 < (2N+1)(K+1) = 21: the linearized model cannot have full column rank and "
     "recovery is not unique"),
    # P = 16 < (N+1)(K+1) = 33, from ``analysis.rank_check_L1``
    (["analyze", "--thm2", "--P", "16", "--K", "2", "--N", "10", "--trials", "2",
      "--out", "{out}"],
     "P = 16 < (N+1)(K+1) = 33: full column rank is impossible by dimension count"),
], ids=["reconstruct", "analyze"])
def test_a_warning_is_one_stderr_line(tmp_path, capsys, argv, text):
    """A rank warning reaches stderr as ``prosep <command>: warning: ...`` and exits 0."""
    run, cfg = tmp_path / "run", tmp_path / "tiny.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 0
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter("always")
        assert main([a.format(run=run, out=tmp_path / "out") for a in argv]) == 0
    assert escaped == []
    assert capsys.readouterr().err == f"prosep {argv[0]}: warning: {text}\n"


@pytest.mark.parametrize("scheme, truncated", [("progressive", 1), ("bit_reversed", 0)])
def test_reconstruct_warns_when_its_fit_drops_a_singular_value(tmp_path, capsys, scheme,
                                                                truncated):
    """P = 64, K = 2, N = 6: progressive angles make L1 numerically singular, bit-reversed not.

    The dropped value is one stderr warning, kappa_L1 is null, and the exit code is 0; the
    status line shows kappa(L1) and the noise gain either way.
    """
    run = tmp_path / "run"
    assert main(["simulate", "--out", str(run), "--scheme", scheme, "--P", "64", "--width", "16",
                 "--K", "2", "--N", "6", "--d", "3"]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--input", str(run)]) == 0
    out, err = capsys.readouterr()
    summary = json.loads((run / "solver_report.json").read_text())
    assert summary["truncated_singular_values"] == truncated
    assert (summary["kappa_L1"] is None) is bool(truncated)
    assert err == ("prosep reconstruct: warning: L1 is numerically singular: the fit dropped 1 "
                   "singular value at or below 1e-10 of the largest, so beta is not the "
                   "least-squares fit\n" if truncated else "")
    kappa = summary["kappa_L1"] or math.inf
    assert f"kappa(L1) {kappa:.3g}, noise gain {summary['noise_gain']:.3g}, " in out


def test_rank_shortfall_has_one_wording(tmp_path, capsys):
    """The simulate refusal, the solve warning and the thm2 warning open with the same text."""
    text = HarmonicOrder(N=10, K=2, d=3).shortfall(16, symmetric=True)
    assert text == "P = 16 < (N+1)(K+1) = 33"
    assert main(["simulate", "--out", str(tmp_path / "r"), "--P", "16", "--width", "16",
                 "--K", "2", "--N", "10", "--d", "3"]) == 1
    assert capsys.readouterr().err == (f"prosep simulate: field 'model': {text}; the model is "
                                       "not recoverable (pass --force to proceed anyway)\n")
    with pytest.warns(UserWarning) as caught:
        analysis.rank_check_L1(P=16, K=2, N=10, trials=1)
    assert str(caught[0].message) == f"{text}: full column rank is impossible by dimension count"
    data = Sinogram(values=np.random.default_rng(0).standard_normal((9, 16)),
                    angles=bit_reversed(16, span_for(True)).angles,
                    detector=DetectorGrid(count=9, spacing=0.25))
    with pytest.warns(UserWarning) as caught:
        solve(data, HarmonicOrder(N=10, K=2, d=3), spline_interpolator(16, 3), SolverConfig(),
              symmetric=True)
    assert str(caught[0].message) == (f"{text}: the linearized model cannot have full column "
                                      "rank and recovery is not unique")


def test_analyze_bounds_monotone_column(tmp_path):
    rc = main(["analyze", "--out", str(tmp_path), "--bounds",
               "--bandwidth", "2.0", "--cmax", "1.0", "--kmax", "12"])
    assert rc == 0
    lines = (tmp_path / "bounds.csv").read_text().strip().splitlines()[1:]
    vals = [float(l.split(",")[1]) for l in lines]
    start = 2  # monotone decreasing beyond K > B*c_max - 1 = 1
    assert all(vals[k + 1] < vals[k] for k in range(start, len(vals) - 1))


# ------------------------------------------------------------- I/O errors

@pytest.mark.parametrize("args", [
    ["simulate", "--P", "16", "--width", "16", "--K", "1", "--N", "3", "--d", "2"],
    ["reconstruct"],
    ["analyze", "--bounds"],
], ids=lambda args: args[0])
def test_out_naming_an_existing_file_exits_1_with_one_line(sim_dir, tmp_path, capsys, args):
    out = tmp_path / "taken"
    out.write_text("a file\n")
    if args == ["reconstruct"]:
        args = [*args, "--input", str(sim_dir)]
    assert main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"prosep {args[0]}: ") and err.count("\n") == 1
    assert out.read_text() == "a file\n"


def test_metrics_out_naming_an_existing_directory_exits_1_with_one_line(sim_dir, tmp_path,
                                                                         capsys):
    out = tmp_path / "taken"
    out.mkdir()
    bench = str(sim_dir / "benchmark_movie.tensor")
    assert main(["metrics", "--movie", bench, "--benchmark", bench, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("prosep metrics: ") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["taken"] and not any(out.iterdir())


@pytest.mark.parametrize("sigma", ["1e308", "1.7e308"])  # drawn noise, then the scale, overflow
def test_simulate_with_noise_that_is_not_finite_exits_1_naming_noise_sigma(tmp_path, capsys,
                                                                            sigma):
    out = tmp_path / "x"
    assert run_simulate(out, ["--noise-sigma", sigma]) == 1
    err = capsys.readouterr().err
    assert err.startswith("prosep simulate: noise_sigma = ") and err.count("\n") == 1
    # the acquisition comes after the truth and benchmark movies are written
    assert sorted(p.name for p in out.iterdir()) == ["benchmark_movie.tensor",
                                                     "truth_movie.tensor"]


def _scaled_run(tmp_path, k):
    """The example ellipses inline, every intensity times 2^k, through every stage.

    A noisy run on random angles is simulated, reconstructed at d = K+1
    and at d = K+2 (a 200-iteration cap), and each movie scored.
    """
    ellipses = [dataclasses.asdict(e) for e in example_phantom(width=16).ellipses]
    for e in ellipses:
        e["intensity"] = math.ldexp(e["intensity"], k)
    cfg = tmp_path / f"k{k}.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "phantom": {"ellipses": ellipses},
                               "scheme": {"kind": "random", "seed": 3}, "noise_sigma": 0.02}))
    out = tmp_path / f"k{k}"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    for d, cap in (("2", []), ("3", ["--solver-max-iters", "200", "--solver-restarts", "2"])):
        rec = out / f"d{d}"
        rc = main(["reconstruct", "--input", str(out), "--out", str(rec), "--d", d, *cap])
        assert rc in (0, 2)
        assert main(["metrics", "--movie", str(rec / "movie.tensor"), "--out",
                     str(rec / "metrics.csv"), "--benchmark",
                     str(out / "benchmark_movie.tensor")]) == 0
    return out


def _metrics_columns(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return [(psnr, ssim) for _, psnr, ssim, _ in rows], [float(mae) for *_, mae in rows]


def test_every_stage_is_exactly_equivariant_to_a_power_of_two_intensity_scale(tmp_path):
    """Intensities times 2^k give every intensity tensor times 2^k, bit for bit.

    Z, psi, the angles and the times are unscaled, and so are the PSNR and
    SSIM columns and the solver report; MAE is 2^k times.  At k = +-600
    the squared data and the squared metrics peak leave the float range.
    """
    unscaled = {"Z.tensor", "psi.tensor", "angles.tensor", "times.tensor"}
    base = _scaled_run(tmp_path, 0)
    for k in (40, -40, 600, -600):
        run = _scaled_run(tmp_path, k)
        for path in sorted(base.rglob("*.tensor")):
            name = path.relative_to(base)
            want = read_tensor(path)
            if path.name not in unscaled:
                want = np.ldexp(want, k)
            assert read_tensor(run / name).tobytes() == want.tobytes(), (k, name)
        for rec in ("d2", "d3"):
            quality, mae = _metrics_columns(run / rec / "metrics.csv")
            base_quality, base_mae = _metrics_columns(base / rec / "metrics.csv")
            assert quality == base_quality, (k, rec)
            assert mae == [math.ldexp(m, k) for m in base_mae], (k, rec)
            report = json.loads((run / rec / "solver_report.json").read_text())
            assert report == json.loads((base / rec / "solver_report.json").read_text()), (k, rec)
        assert json.loads((run / "d3" / "solver_report.json").read_text())["iterations_used"] > 0


# ------------------------------------------------------------- metrics

def test_metrics_self_comparison_and_row_count(sim_dir, tmp_path):
    out = tmp_path / "m.csv"
    rc = main(["metrics", "--movie", str(sim_dir / "benchmark_movie.tensor"),
               "--benchmark", str(sim_dir / "benchmark_movie.tensor"),
               "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 32 + 1  # header + P rows + average row
    first = lines[1].split(",")
    assert float(first[1]) == 200.0 and float(first[2]) == pytest.approx(1.0)
    avg = lines[-1].split(",")
    assert avg[0] == "average"
    psnrs = [float(l.split(",")[1]) for l in lines[1:-1]]
    assert float(avg[1]) == pytest.approx(np.mean(psnrs), rel=1e-12)


def test_metrics_ignores_pixels_outside_the_support_disk(tmp_path, rng):
    """Two tensor pairs that differ only outside the inscribed disk score alike."""
    inside = support_mask(12)
    movie = rng.random((3, 12, 12)) * inside
    bench = rng.random((3, 12, 12)) * inside
    csvs = []
    for name, offset in (("masked", 0.0), ("outside", 5.0)):
        pair = [tmp_path / f"{name}_{k}.tensor" for k in ("movie", "bench")]
        write_tensor(pair[0], movie + offset * rng.standard_normal(movie.shape) * ~inside)
        write_tensor(pair[1], bench + offset * rng.random(bench.shape) * ~inside)
        out = tmp_path / f"{name}.csv"
        assert main(["metrics", "--movie", str(pair[0]), "--benchmark", str(pair[1]),
                     "--out", str(out)]) == 0
        csvs.append(read_bytes(out))
    assert not np.array_equal(read_tensor(tmp_path / "masked_movie.tensor"),
                              read_tensor(tmp_path / "outside_movie.tensor"))
    assert csvs[0] == csvs[1]


def test_simulate_of_a_noisy_random_run_writes_the_library_results(tmp_path):
    """simulate builds the benchmark movie before it draws the scheme and the noise.

    Its tensors are still, byte for byte, those of the library calls in
    the order render, acquire with noise, benchmark: the order changes no
    draw and no sum.
    """
    out = tmp_path / "run"
    assert run_simulate(out, ["--scheme", "random", "--scheme-seed", "5",
                              "--noise-sigma", "0.02"]) == 0
    cfg = json.loads((out / "manifest.json").read_text())
    assert cfg["scheme"] == {"kind": "random", "seed": 5} and cfg["noise_sigma"] == 0.02
    grid = cfg["grid"]
    spec = example_phantom(width=grid["width"], support_diameter=grid["support_diameter"])
    truth = movie_of(render_chunks(spec, DEFAULT_MOTION, cfg["P"]), spec.pixel_size)
    scheme = random_scheme(cfg["P"], span_for(cfg["symmetric"]), seed=5)
    detector = DetectorGrid(**cfg["detector"])
    data = simulate_acquisition(truth, scheme, detector, noise_sigma=0.02, seed=cfg["seed"])
    bench = benchmark_movie(truth, cfg["fbp_angles_count"], detector)
    for name, values in [("truth_movie", truth.values), ("sinogram", data.values),
                         ("angles", scheme.angles), ("benchmark_movie", bench.images()),
                         ("times", sample_times(cfg["P"]))]:
        assert read_tensor(out / f"{name}.tensor").tobytes() == values.tobytes(), name


def test_metrics_reads_movie_tensors_as_masked_movies(tmp_path):
    """A tensor file is read back as movie chunks masked in place; a NaN in it is a ProsepError."""
    values = np.full((2, 8, 8), -1.5)
    path = tmp_path / "movie.tensor"
    write_tensor(path, values)
    frames = np.concatenate(list(MovieFile(str(path)).chunks()))
    assert frames.tobytes() == Movie(values=values).values.tobytes()
    values[1, 4, 4] = np.nan
    write_tensor(path, values)
    with pytest.raises(ProsepError, match="not a movie tensor: frame values must be finite"):
        list(MovieFile(str(path)).chunks())


def test_metrics_dim_mismatch_exits_1(sim_dir, tmp_path, capsys):
    small = tmp_path / "small.tensor"
    write_tensor(small, np.zeros((2, 8, 8)))
    bench = sim_dir / "benchmark_movie.tensor"
    rc = main(["metrics", "--movie", str(small), "--benchmark", str(bench),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("prosep metrics: dimension mismatch: ") and err.count("\n") == 1
    assert str(small) in err and str(bench) in err
    assert "(2, 8, 8)" in err and "(32, 32, 32)" in err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("arr, reason", [
    (np.ones((3, 4, 5)), "frame must be square"),
    (np.where(np.arange(2 * 8 * 8).reshape(2, 8, 8) == 70, np.nan, 1.0), "finite"),
    (np.zeros((0, 8, 8)), "empty"),
])
def test_metrics_malformed_movie_exits_1_with_one_line(tmp_path, capsys, arr, reason):
    bad = tmp_path / "bad.tensor"
    write_tensor(bad, arr)
    rc = main(["metrics", "--movie", str(bad), "--benchmark", str(bad),
               "--out", str(tmp_path / "m.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("prosep metrics: ") and err.count("\n") == 1
    assert reason in err and str(bad) in err
    assert not (tmp_path / "m.csv").exists()


# ------------------------------------------------------------- movies in chunks

# P = 37 frames of 24 x 24: chunks of 28 frames and a short last one of 9
CHUNKED = {"P": 37, "width": 24}


def chunked_simulate(out, P=CHUNKED["P"], extra=()):
    return main(["simulate", "--out", str(out), "--P", str(P), "--width", str(CHUNKED["width"]),
                 "--K", "1", "--N", "3", "--d", "2", "--scheme", "random", "--scheme-seed", "2",
                 "--noise-sigma", "0.02", *extra])


def test_simulate_in_chunks_writes_the_whole_array_library_results(tmp_path):
    """The streamed truth, benchmark, sinogram and angles equal the whole-array library calls."""
    out = tmp_path / "run"
    assert chunked_simulate(out) == 0
    cfg = json.loads((out / "manifest.json").read_text())
    assert cfg["fbp_angles_count"] == CHUNKED["P"]  # min(P, 4W) = P
    spec = example_phantom(width=CHUNKED["width"])
    truth = movie_of(render_chunks(spec, DEFAULT_MOTION, cfg["P"]), spec.pixel_size)
    scheme = random_scheme(cfg["P"], span_for(True), seed=2)
    detector = DetectorGrid(**cfg["detector"])
    data = simulate_acquisition(truth, scheme, detector, noise_sigma=0.02, seed=cfg["seed"])
    bench = benchmark_movie(truth, cfg["fbp_angles_count"], detector)
    for name, values in [("truth_movie", truth.values), ("benchmark_movie", bench.images()),
                         ("sinogram", data.values), ("angles", scheme.angles)]:
        assert read_tensor(out / f"{name}.tensor").tobytes() == values.tobytes(), name


@pytest.mark.parametrize("P", [37, 29])  # a short last chunk; a lone last frame (28 + 1)
def test_streamed_movie_equals_the_product_of_psi_and_component_images(tmp_path, P):
    """movie.tensor, written a chunk of frames at a time, is the one whole product Psi Phi, masked.

    P = 29 leaves a lone last frame, which joins the chunk before it:
    a one-row product would round differently.
    """
    out = tmp_path / "run"
    assert chunked_simulate(out, P) == 0
    assert main(["reconstruct", "--input", str(out)]) == 0
    cfg = json.loads((out / "manifest.json").read_text())
    order = HarmonicOrder(N=3, K=1, d=2)
    U = spline_interpolator(P, order.d)
    Z = read_tensor(out / "Z.tensor")
    beta = HarmonicCoefficients(beta=read_tensor(out / "beta.tensor"), order=order)
    W = CHUNKED["width"]
    psi = U @ Z
    phi = component_images(beta, DetectorGrid(**cfg["detector"]), cfg["fbp_angles_count"], W,
                           cfg["grid"]["support_diameter"] / W)
    movie = (psi @ phi.reshape(len(phi), -1)).reshape(P, W, W) * support_mask(W)
    assert read_tensor(out / "movie.tensor").tobytes() == movie.tobytes()
    assert read_tensor(out / "psi.tensor").tobytes() == (U @ Z).tobytes()


def test_streamed_metrics_equal_movie_metrics(tmp_path, rng):
    shape = (CHUNKED["P"], CHUNKED["width"], CHUNKED["width"])
    movie, bench = rng.standard_normal(shape), rng.standard_normal(shape) + 0.5
    write_tensor(tmp_path / "movie.tensor", movie)
    write_tensor(tmp_path / "bench.tensor", bench)
    assert main(["metrics", "--movie", str(tmp_path / "movie.tensor"),
                 "--benchmark", str(tmp_path / "bench.tensor"),
                 "--out", str(tmp_path / "m.csv")]) == 0
    rows, summary = movie_metrics(Movie(values=movie), Movie(values=bench))
    want = [f"{p},{r.psnr!r},{r.ssim!r},{r.mae!r}" for p, r in enumerate(rows)]
    want.append(f"average,{summary.psnr!r},{summary.ssim!r},{summary.mae!r}")
    assert (tmp_path / "m.csv").read_text().splitlines()[1:] == want


def metrics_error(tmp_path, capsys, movie, bench):
    rc = main(["metrics", "--movie", str(movie), "--benchmark", str(bench),
               "--out", str(tmp_path / "m.csv")])
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("prosep metrics: ") and err.count("\n") == 1
    assert not (tmp_path / "m.csv").exists() and not (tmp_path / "m.csv.tmp").exists()
    return err


def test_metrics_of_malformed_chunked_movies_exit_1_with_one_line(tmp_path, capsys, rng):
    shape = (CHUNKED["P"], CHUNKED["width"], CHUNKED["width"])
    good, bad = tmp_path / "good.tensor", tmp_path / "bad.tensor"
    write_tensor(good, rng.standard_normal(shape))
    values = rng.standard_normal(shape)
    values[-1, 12, 12] = np.nan  # in the last chunk only
    write_tensor(bad, values)
    err = metrics_error(tmp_path, capsys, good, bad)
    assert f"{bad}: not a movie tensor: frame values must be finite" in err
    err = metrics_error(tmp_path, capsys, bad, good)
    assert f"{bad}: not a movie tensor: frame values must be finite" in err
    # a truncated payload is caught from the header, before any frame is read
    bad.write_bytes(good.read_bytes()[:-8])
    assert "payload length" in metrics_error(tmp_path, capsys, good, bad)
    # the shapes are compared from the headers: a payload of NaNs is never read
    write_tensor(bad, np.full((CHUNKED["P"], 8, 8), np.nan))
    err = metrics_error(tmp_path, capsys, bad, good)
    assert "dimension mismatch" in err and f"{shape}" in err and "(37, 8, 8)" in err


@pytest.mark.parametrize("stage, name", [("metrics", "benchmark_movie.tensor"),
                                         ("reconstruct", "sinogram.tensor")])
def test_truncated_input_tensor_exits_1_naming_the_file(tmp_path, capsys, stage, name):
    """An input 8 bytes short is one stderr line that names the file, and nothing is written."""
    run = tmp_path / "run"
    assert chunked_simulate(run) == 0
    path = run / name
    path.write_bytes(path.read_bytes()[:-8])
    argv = {"metrics": ["metrics", "--movie", str(run / "truth_movie.tensor"),
                        "--benchmark", str(path), "--out", str(tmp_path / "out")],
            "reconstruct": ["reconstruct", "--input", str(run), "--out", str(tmp_path / "out")]}
    capsys.readouterr()
    rc = main(argv[stage])
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1
    assert err.startswith(f"prosep {stage}: {path}: payload length "), err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------- stage memory

def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert main(argv) in (0, 2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def stage_peaks(tmp_path_factory):
    """tracemalloc peaks of each stage at P = 128, W = 64 (the symm-d4-w64 grid), in movies."""
    run = tmp_path_factory.mktemp("peaks") / "run"
    movie = 128 * 64 * 64 * 8
    peaks = {"simulate": _traced_peak(["simulate", "--out", str(run), "--P", "128", "--width",
                                       "64", "--K", "1", "--N", "3", "--d", "2"])}
    peaks["reconstruct"] = _traced_peak(["reconstruct", "--input", str(run)])
    peaks["metrics"] = _traced_peak(["metrics", "--movie", str(run / "movie.tensor"),
                                     "--benchmark", str(run / "benchmark_movie.tensor"),
                                     "--out", str(run / "metrics.csv")])
    return {stage: peak / movie for stage, peak in peaks.items()}


def test_simulate_holds_no_truth_during_the_view_loop(stage_peaks):
    """The benchmark's accumulator and tile copy are the only movie-sized arrays (measured 1.69).

    The truth is streamed to its file and read back in chunks, and the
    benchmark is written from the accumulator in chunks (3.1 movies when
    the truth was held through the view loop).
    """
    assert stage_peaks["simulate"] < 2.4, stage_peaks["simulate"]


def test_reconstruct_holds_no_movie(stage_peaks):
    """movie.tensor is written a chunk of frames at a time (measured 0.28 movies; 1.2 when the
    movie was formed whole)."""
    assert stage_peaks["reconstruct"] < 0.6, stage_peaks["reconstruct"]


def test_metrics_holds_a_few_frames(stage_peaks):
    """Each file is read a chunk (4 frames) at a time, and SSIM's frame-sized arrays live for
    one frame pair: measured 0.17 movies = 22 frames, where two whole movies were held
    before."""
    assert stage_peaks["metrics"] < 0.3, stage_peaks["metrics"]


# ------------------------------------------------------------- fbp angle count

def test_null_fbp_angles_count_resolves_to_min_of_P_and_4W():
    """min(P, 4W): the default config and both image workloads keep P, p1024-symm gets 256."""
    def resolved(**kwargs):
        cfg = load_config(**kwargs)
        _resolve_nulls(cfg)
        return cfg["fbp_angles_count"]

    assert resolved() == 256  # P = 256, W = 64
    symm_d4_w64 = {"P": 128, "grid": {"width": 64}, "model": {"K": 3, "N": 24, "d": 4}}
    lifted_d6_w32 = {"P": 128, "grid": {"width": 32}, "model": {"K": 3, "N": 12, "d": 6}}
    assert resolved(overrides=symm_d4_w64) == 128
    assert resolved(overrides=lifted_d6_w32) == 128
    assert resolved(preset="p512-symm") == 256
    assert resolved(preset="p1024-symm") == 256
    assert resolved(preset="p1024-symm", overrides={"fbp_angles_count": 1024}) == 1024
