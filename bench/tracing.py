"""Span tracing of the harmonicmaps layers, installed from outside the package.

A :class:`Tracer` wraps every public function (and every public plain method
of a public class) defined in the layer modules, and installs each wrapper on
every binding of the original function object in the ``harmonicmaps.*``
modules.  Bindings matter because modules import names by value:
``cli.injectivity_scan`` and ``oracle.injectivity_scan`` are two bindings of
one function, and both must point at the wrapper for the CLI's calls to be
seen.

Only calls that cross a module-level name are visible.  Private helpers,
closures and lambdas are not wrapped.  So the Newton iterations, and the
evaluations inside ``herglotz._newton_sweep`` that call ``f.h.eval`` and
``f.g.eval`` directly, cannot be seen from here: they show only as self time
of ``herglotz.invert``.  Seeing them needs spans inside the library.

Spans are kept in memory while a pass runs and written out by the caller at
the end.  Each span records its name, start, end, parent span, job id, and
the counts its layer reports (points evaluated, pairs scanned, bytes, ...).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "jsonio", "gallery", "mappings", "criteria", "herglotz",
          "distortion", "construct", "oracle", "render")

# Functions whose peak traced allocation is recorded with tracemalloc.
PEAK_BYTES = ("oracle.curve_simplicity", "distortion.check_pairwise_bound")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _report_pairs(result):
    n = int(result.grid["n"])
    return {"pairs": n * (n - 1) // 2}


def _segment_pairs(result):
    # Non-adjacent pairs of a closed polyline with m segments: m(m-3)/2.
    m = int(result.meta.get("segments", 0))
    return {"segment_pairs": m * (m - 3) // 2 if m > 3 else 0}


def _inconclusive(result):
    return {"inconclusive": int(result.verdict == "inconclusive")}


# Counts each layer reports, from a call's arguments and result.  A counter
# receives (args, kwargs, result, error) and returns a dict of integers.
COUNTERS = {
    "herglotz.invert": lambda a, k, r, e: {
        "targets": int(np.size(_arg(a, k, 1, "w"))),
        "failed": int(e == "InversionError")},
    "mappings.eval_map": lambda a, k, r, e: {
        "points": int(np.size(_arg(a, k, 1, "z")))},
    "mappings.composed_wirtinger": lambda a, k, r, e: {
        "points": int(np.size(_arg(a, k, 2, "z")))},
    "mappings.GridSpec.points": lambda a, k, r, e: {
        "points": 0 if e else int(np.size(r))},
    "oracle.injectivity_scan": lambda a, k, r, e: {} if e else _report_pairs(r),
    "distortion.check_pairwise_bound": lambda a, k, r, e: {} if e else _report_pairs(r),
    "oracle.curve_simplicity": lambda a, k, r, e: {} if e else _segment_pairs(r),
    "render.svg_document": lambda a, k, r, e: {} if e else {"bytes": len(r.encode())},
    "jsonio.dumps": lambda a, k, r, e: {} if e else {"bytes": len(r.encode())},
}
for _check in ("theorem1", "corollary1", "theoremA", "theoremB", "philike"):
    COUNTERS[f"criteria.check_{_check}"] = \
        lambda a, k, r, e: {} if e else _inconclusive(r)


class Tracer:
    """Records spans of the wrapped layer functions while a job is set.

    ``job`` is the id of the running job; with ``job`` set to None the
    installed wrappers call straight through and record nothing.
    """

    def __init__(self):
        self.job = None
        self.spans = []
        self._stack = []
        self._installed = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        peak = name in PEAK_BYTES
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(sid)
            result = error = None
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                counts = {}
                if peak:
                    counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._stack.pop()
                if counter is not None:
                    counts.update(counter(args, kwargs, result, error))
                tracer.spans[sid] = (name, start, end, parent, tracer.job,
                                     error, counts)

        return wrapper

    def install(self):
        """Wrap every public function of the layers on all its bindings."""
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"harmonicmaps.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    targets[obj] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            wrapped = self._wrap(f"{layer}.{attr}.{meth}", fn)
                            setattr(obj, meth, wrapped)
                            self._installed.append((obj, meth, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "harmonicmaps" and not modname.startswith("harmonicmaps."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    setattr(mod, attr, targets[obj])
                    self._installed.append((mod, attr, obj))

    def uninstall(self):
        """Restore every binding replaced by :meth:`install`."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


def layer_metrics(spans, factors):
    """Per-layer numbers of one traced pass, keyed by metric name.

    Times are scaled to the reference speed with ``factors``, the scale
    factor of each job id (see ``calibrate.py``).

    For every wrapped function: ``.calls``, ``.total_s``, ``.self_s`` and the
    sum of each count its spans carry (``peak_bytes`` takes the maximum).
    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the worker runs one thread.
    Per layer: ``layer.<module>.self_s``.  Derived: ``criteria.inconclusive``
    and ``herglotz.invert.targets_per_point``, the points inverted inside
    ``composed_wirtinger`` per point of a composition that inverted.
    """
    child_s = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent is not None:
            child_s[parent] += end - start
    out = defaultdict(float)
    for sid, (name, start, end, parent, job, error, counts) in enumerate(spans):
        self_s = (end - start - child_s[sid]) * factors[job]
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += (end - start) * factors[job]
        out[f"{name}.self_s"] += self_s
        out[f"layer.{name.split('.')[0]}.self_s"] += self_s
        for key, value in counts.items():
            if key == "peak_bytes":
                out[f"{name}.{key}"] = max(out[f"{name}.{key}"], value)
            elif key == "inconclusive":
                out["criteria.inconclusive"] += value
            else:
                out[f"{name}.{key}"] += value
    inverted, composed = 0, set()
    for name, _s, _e, parent, _j, _err, counts in spans:
        if name != "herglotz.invert":
            continue
        while parent is not None and spans[parent][0] != "mappings.composed_wirtinger":
            parent = spans[parent][3]
        if parent is not None:
            inverted += counts["targets"]
            composed.add(parent)
    points = sum(spans[sid][6]["points"] for sid in composed)
    out["herglotz.invert.targets_per_point"] = inverted / points if points else 0.0
    return dict(out)
