"""Outside-in spans around prosep's public functions.

The tracer replaces each target function, by name, with a wrapper that
records a span (name, start, end, parent) and optional work counts.  The
wrapper is installed at every import site inside the ``prosep`` package
(every module attribute that is the original function object), so calls
made through ``from .radon import fbp`` are seen too.  Nothing under
``src/`` changes.  A target name that no longer exists is listed as absent
instead of failing, so a later change may delete a traced function.

Spans live in memory and are written as JSON when the traced command ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _project_work(args, kwargs, result):
    frame = _arg(args, kwargs, 0, "frame")
    J, A = result.values.shape
    return {"angles": A, "msamples": J * (2 * frame.width + 1) * A / 1e6}


def _fbp_work(args, kwargs, result):
    return {"angles": _arg(args, kwargs, 0, "sinogram").angles.size}


def _write_work(args, kwargs, result):
    return {"mb": np.asarray(_arg(args, kwargs, 1, "array")).size * 8 / 1e6}


def _read_work(args, kwargs, result):
    return {"mb": result.nbytes / 1e6}


# span name -> (candidate "module:qualname" targets, work counter or None).
# Several candidates share one span when they are alternative entry points
# to the same work; any of them may be absent.
TARGETS = {
    "radon.project": (["prosep.radon:radon_project"], _project_work),
    "radon.fbp": (["prosep.radon:fbp"], _fbp_work),
    "phantom.render_frame": (["prosep.phantom:render_frame"], None),
    "phantom.benchmark_movie": (["prosep.phantom:benchmark_movie"], None),
    "phantom.simulate_acquisition": (["prosep.phantom:simulate_acquisition"], None),
    "solver.solve": (["prosep.solver:solve"], None),
    "solver.objective_grad": ([
        "prosep.solver:VarproProblem.objective_and_gradient_from_data",
        "prosep.solver:VarproProblem.objective_and_gradient",
        "prosep.solver:VarproProblem.objective",
    ], None),
    "solver.inner_beta": (["prosep.solver:inner_beta"], None),
    "psmodel.face_split": (["prosep.psmodel:face_split"], None),
    "recon.reconstruct_movie": (["prosep.recon:reconstruct_movie"], None),
    "recon.synthesize": (["prosep.recon:synthesize_sinogram"], None),
    "recon.movie_metrics": (["prosep.recon:movie_metrics"], None),
    "tensorio.write": (["prosep.tensorio:write_tensor"], _write_work),
    "tensorio.read": (["prosep.tensorio:read_tensor"], _read_work),
    "analysis.cond_L1": (["prosep.analysis:cond_L1"], None),
    "analysis.cond_L2": (["prosep.analysis:cond_L2"], None),
    "analysis.table1": (["prosep.analysis:table1"], None),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    work: dict = field(default_factory=dict)


class Tracer:
    """Collects spans from wrapped functions; one instance per traced process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.work_errors = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._patches: list = []

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, work=None):
        """Return ``fn`` wrapped so that each call records a span ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # spans started on a worker thread hang off the root span
            parent = stack[-1] if stack else self._root
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(span_id, name, start, end, parent)
            if work is not None:
                try:
                    span.work = work(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.work_errors += 1
            self.spans.append(span)
            return result

        return wrapper

    def root(self, name, fn, *args):
        """Call ``fn(*args)`` as the root span that every other span nests in."""
        self._root = next(self._ids)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append(Span(self._root, name, start, time.perf_counter(), None))

    def install(self, targets=TARGETS) -> None:
        """Wrap every present target at all of its import sites in ``prosep``."""
        importlib.import_module("prosep")
        for name, (candidates, work) in targets.items():
            for target in candidates:
                module_name, qualname = target.split(":")
                try:
                    owner = importlib.import_module(module_name)
                    *path, attr = qualname.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.append(target)
                    continue
                wrapped = self.wrap(name, original, work)
                if path:  # a method: patch it on its class
                    self._patch(owner, attr, original, wrapped)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "prosep" or mod_name.startswith("prosep.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": [asdict(s) for s in self.spans], "absent": self.absent,
                       "work_errors": self.work_errors}, f)


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval its children cover.

    Children may overlap when they run on worker threads, so the covered
    part is the length of the union of their intervals, clipped to the
    parent's interval.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(s.id, [])):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds ``s``, ``self_s`` and summed work."""
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        agg = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += s.end - s.start
        agg["self_s"] += selfs[s.id]
        for key, val in s.work.items():
            agg[key] = agg.get(key, 0) + val
    return out


def load_spans(path):
    """Read a file written by ``Tracer.dump``: (spans, absent targets, work errors)."""
    with open(path) as f:
        raw = json.load(f)
    return [Span(**s) for s in raw["spans"]], raw["absent"], raw["work_errors"]
