"""Span tracing of lvlm from outside its source.

`installed(tracer)` replaces, for the duration of a `with` block, the
functions each lvlm module binds (its own and the ones it imported, such
as `lvlm.discrete.sweep_signatures` or `lvlm.cli.learn_real`) with
wrappers that record one span per call. Nothing under `src/` changes.
`layer_metrics` turns the spans of one workload cycle into the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from contextlib import contextmanager

import numpy as np


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent):
        self.name, self.parent, self.attrs = name, parent, {}
        self.start = self.end = 0.0

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Keeps spans in memory. A span's parent is the innermost open span of
    its thread; a span opened by a worker thread with none open (lvlm's
    classify thread pool) takes the innermost open span of the main thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._lock = threading.Lock()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        parents = stack or self._main_stack
        s = Span(name, parents[-1] if parents else None)
        with self._lock:
            self.spans.append(s)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name, count=None):
        """`fn` recording a span `name`; `count(result, *args, **kwargs)` adds
        attributes after the call, inside a `trace.bookkeeping` span so that
        its cost is charged to no layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                with self.span("trace.bookkeeping"):
                    s.attrs.update(count(result, *args, **kwargs))
            return result

        return traced


# -- what is wrapped, and what each wrapper counts -------------------------------

def _sweep_count(result, lattice, w):
    return {"nodes": lattice.shape.node_count}


def _pnn_count(result, points, n_clusters, **_):
    codebook, assignment = result[:2]
    points = np.asarray(points, dtype=np.float64)
    sq = ((points - codebook.centroids[assignment]) ** 2).sum()
    return {"points": len(points), "unique": len(np.unique(points, axis=0)), "sq_err": float(sq)}


def _gibbs_count(result, config):
    return {"node_updates": config.shape.node_count * config.sweeps}


def _file_count(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


# layer entry points: (home module, function, span name, counter)
_LAYER_FUNCS = [
    ("lvlm.lattice", "sweep_signatures", "lattice.sweep", _sweep_count),
    ("lvlm.vq", "pnn_quantize", "vq.pnn", _pnn_count),
    ("lvlm.discrete", "learn_discrete", "discrete.learn", None),
    ("lvlm.discrete", "decode_discrete", "discrete.decode", None),
    ("lvlm.discrete", "evaluate_discrete", "discrete.evaluate", None),
    ("lvlm.real", "learn_real", "real.learn", None),
    ("lvlm.real", "decode_real", "real.decode", None),
    ("lvlm.real", "evaluate_real", "real.evaluate", None),
    ("lvlm.indices", "inertia_index", "indices.inertia", None),
    ("lvlm.synth", "gibbs_sample", "synth.gibbs", _gibbs_count),
    ("lvlm.synth", "emit_observations", "synth.emit", None),
    ("lvlm.classify", "classify_image", "classify", None),
    ("lvlm.io", "read_lattice", "io.read_lattice", _file_count),
    ("lvlm.io", "write_lattice", "io.write_lattice", _file_count),
    ("lvlm.io", "read_model", "io.read_model", None),
    ("lvlm.io", "write_model", "io.write_model", None),
]

# every module whose namespace may hold one of the functions above; lvlm.cli
# reaches lvlm.io through the module object, so wrapping lvlm.io covers it
_BINDING_MODULES = ["lvlm.lattice", "lvlm.vq", "lvlm.discrete", "lvlm.real", "lvlm.indices",
                    "lvlm.synth", "lvlm.classify", "lvlm.io", "lvlm.cli"]


@contextmanager
def installed(tracer):
    """Wrap every binding of every layer entry point; restore them on exit."""
    saved = []
    try:
        for home, attr, name, count in _LAYER_FUNCS:
            fn = getattr(importlib.import_module(home), attr)
            traced = tracer.wrap(fn, name, count)
            for mod_name in _BINDING_MODULES:
                mod = importlib.import_module(mod_name)
                if getattr(mod, attr, None) is fn:
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, traced)
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# -- per-layer metrics ----------------------------------------------------------------

def _covered(intervals):
    total, end = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def self_times(spans):
    """Span -> its duration minus the part of it that its children cover."""
    children = {}
    for s in spans:
        children.setdefault(id(s.parent), []).append((s.start, s.end))
    return {id(s): s.seconds - _covered(children.get(id(s), [])) for s in spans}


def _under(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


CLI_COMMANDS = ("synth", "learn", "decode", "evaluate", "index", "classify")

# (metric, unit) in the order BENCHMARK.json lists them
METRICS = [
    ("lattice.sweep.s", "s"), ("lattice.sweep.calls", "count"),
    ("lattice.sweep.nodes", "count"), ("lattice.sweep.share", "frac"),
    ("vq.pnn.s", "s"), ("vq.pnn.points", "count"),
    ("vq.pnn.unique_frac", "frac"), ("vq.pnn.distortion", "sq"),
    *[(f"{v}.{op}.self_s", "s") for v in ("discrete", "real") for op in ("learn", "decode", "evaluate")],
    ("indices.inertia.self_s", "s"),
    ("synth.gibbs.s", "s"), ("synth.gibbs.node_updates", "count"), ("synth.emit.s", "s"),
    ("classify.s", "s"), ("classify.evaluate_busy_s", "s"), ("classify.sweep_calls_per_image", "count"),
    ("io.read_lattice.s", "s"), ("io.read_lattice.MB_per_s", "MB/s"),
    ("io.write_lattice.s", "s"), ("io.write_lattice.MB_per_s", "MB/s"),
    ("io.read_model.s", "s"), ("io.write_model.s", "s"),
    *[(f"cli.{cmd}.self_s", "s") for cmd in CLI_COMMANDS],
    ("trace.overhead", "frac"),
]


def layer_metrics(spans):
    """Per-layer metrics of one cycle of operations (spans named `op.*` are the
    operations). Times are seconds per cycle, summed over threads (busy time);
    `lattice.sweep.share` is the part of the operations' wall time during which
    some sweep ran. Layers the cycle never entered read 0. `trace.overhead` is
    filled in by the caller."""
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def secs(name):
        return sum(s.seconds for s in named(name))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    def ratio(a, b):
        return a / b if b else 0.0

    wall = sum(s.seconds for s in spans if s.name.startswith("op."))
    points = attr("vq.pnn", "points")
    classify_calls = len(named("classify"))
    out = {
        "lattice.sweep.s": secs("lattice.sweep"),
        "lattice.sweep.calls": len(named("lattice.sweep")),
        "lattice.sweep.nodes": attr("lattice.sweep", "nodes"),
        "lattice.sweep.share": ratio(_covered([(s.start, s.end) for s in named("lattice.sweep")]), wall),
        "vq.pnn.s": secs("vq.pnn"),
        "vq.pnn.points": points,
        "vq.pnn.unique_frac": ratio(attr("vq.pnn", "unique"), points),
        "vq.pnn.distortion": ratio(attr("vq.pnn", "sq_err"), points),
        "synth.gibbs.s": secs("synth.gibbs"),
        "synth.gibbs.node_updates": attr("synth.gibbs", "node_updates"),
        "synth.emit.s": secs("synth.emit"),
        "classify.s": secs("classify"),
        "classify.evaluate_busy_s": sum(
            s.seconds for s in spans if s.name.endswith(".evaluate") and _under(s, "classify")),
        "classify.sweep_calls_per_image": ratio(
            sum(1 for s in named("lattice.sweep") if _under(s, "classify")), classify_calls),
        "io.read_model.s": secs("io.read_model"),
        "io.write_model.s": secs("io.write_model"),
        "trace.overhead": 0.0,
    }
    for name in ("discrete.learn", "discrete.decode", "discrete.evaluate",
                 "real.learn", "real.decode", "real.evaluate", "indices.inertia",
                 *(f"cli.{cmd}" for cmd in CLI_COMMANDS)):
        out[f"{name}.self_s"] = sum(selfs[id(s)] for s in named(name))
    for name in ("io.read_lattice", "io.write_lattice"):
        out[f"{name}.s"] = secs(name)
        out[f"{name}.MB_per_s"] = ratio(attr(name, "bytes") / 1e6, secs(name))
    return out
