"""Outside-in layer tracing for one ``secrecylab`` CLI process.

The tracer replaces the public names that ``secrecylab.cli`` and
``secrecylab.harness`` call with wrappers, at those call sites, so no
library code changes.  Each call becomes a span ``(id, parent, name, start,
end, counts)`` kept in memory and written out when the process ends; the
counts come from the call's inputs and outputs, so they repeat exactly.

A layer's self time is its span's duration minus its child spans'; the
benchmark reports it for ``cli.main`` (minus load, run and emit) and for
``harness.run`` (minus the library layers it calls).
"""

import inspect
import math
import os
import time


def _grid_points(args, result):
    nx = args["ch"].num_inputs
    return {"grid_points": math.comb(int(round(1.0 / args["grid_step"])) + nx - 1, nx - 1)}


#: (module whose call site is wrapped, layer, public name, counts from (args, result)).
WRAPPED = (
    ("cli", "scenario", "load_scenario", lambda a, r: {"channels": len(r.channels)}),
    ("cli", "harness", "run", None),
    ("cli", "scenario", "emit", lambda a, r: {"bytes": os.path.getsize(a["path"])}),
    ("harness", "allocation", "calibrate_fading_lambda", lambda a, r: {"samples": a["samples"]}),
    ("harness", "allocation", "ergodic_secrecy_capacity", lambda a, r: {"samples": a["samples"]}),
    ("harness", "allocation", "awgn_waterfill", lambda a, r: {"channels": len(a["channels"])}),
    ("harness", "channels", "gaussian_secrecy_rate", None),
    ("harness", "cooperation", "classify", None),
    ("harness", "cooperation", "feasible_set", lambda a, r: {"members": len(r)}),
    ("harness", "cooperation", "greedy_pairing",
     lambda a, r: {"agents": len(a["disqualified"]), "paired": 2 * len(r.pairs)}),
    ("harness", "discrete", "max_secrecy_rate_grid", _grid_points),
)

#: Spans whose self time the benchmark reports, by span name.
SELF_TIMES = {"cli.main": "cli.self_s", "harness.run": "harness.self_s"}


class TraceSetupError(RuntimeError):
    """A name the tracer must wrap is missing from its call site."""


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = [0]
        self._next_id = 1

    def _call(self, name, fn, counter, signature, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1]
        self._open.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append([sid, parent, name, start, end, None])
        if counter is not None:
            self.spans[-1][5] = counter(signature.bind(*args, **kwargs).arguments, result)
        return result

    def wrap(self, name, fn, counter=None):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            return self._call(name, fn, counter, signature, args, kwargs)
        return traced

    def install(self, modules):
        """Wrap every :data:`WRAPPED` name in ``modules`` (call-site name -> module)."""
        for site, layer, name, counter in WRAPPED:
            fn = getattr(modules[site], name, None)
            if not callable(fn):
                raise TraceSetupError(f"secrecylab.{site} has no callable {name!r} to trace")
            setattr(modules[site], name, self.wrap(f"{layer}.{name}", fn, counter))


def aggregate(span_lists):
    """Per-name busy time, calls and counts, plus self times, over many processes."""
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for spans in span_lists:
        child_time = {}
        for sid, parent, name, start, end, counts in spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for sid, parent, name, start, end, counts in spans:
            add(f"{name}.busy_s", end - start)
            add(f"{name}.calls", 1)
            for key, value in (counts or {}).items():
                add(f"{name}.{key}", value)
            if name in SELF_TIMES:
                add(SELF_TIMES[name], end - start - child_time.get(sid, 0.0))
    return totals
