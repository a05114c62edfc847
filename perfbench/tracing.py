"""Per-layer tracing of banachlab from outside the package.

Tracer.install() replaces chosen package functions with wrappers.  The
package binds names such as ``norm_batch`` into several modules with
``from .norms import ...``, so every loaded ``banachlab`` module that holds
the original function gets the wrapper, not only the module defining it.

Two kinds of wrapper:

- spans, for stages, estimators, certificates and hypo functions: name,
  start, end and parent, kept in memory and written out by ``write``;
- counters, for primitives called up to millions of times: exact call
  counts, and busy time of the outermost call where the metric needs it.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) -> span name
SPANS = {
    ("banachlab.cli", "cmd_moduli"): "cli.cmd_moduli",
    ("banachlab.cli", "cmd_sets"): "cli.cmd_sets",
    ("banachlab.cli", "cmd_hypo"): "cli.cmd_hypo",
    ("banachlab.moduli", "delta_estimate"): "moduli.delta_estimate",
    ("banachlab.moduli", "rho_estimate"): "moduli.rho_estimate",
    ("banachlab.moduli", "supporting_modulus_estimate"): "moduli.supporting_modulus_estimate",
    ("banachlab.sets", "prox_smooth_certificate"): "sets.prox_smooth_certificate",
    ("banachlab.sets", "rolling_ball_check_projection"): "sets.rolling_ball_check_projection",
    ("banachlab.sets", "rolling_ball_check_normal"): "sets.rolling_ball_check_normal",
    ("banachlab.hypo", "hypo_check"): "hypo.hypo_check",
    ("banachlab.hypo", "section_bound_check"): "hypo.section_bound_check",
    ("banachlab.hypo", "touching_point_search"): "hypo.touching_point_search",
    ("banachlab.hypo", "gamma_estimate"): "hypo.gamma_estimate",
}

# (module, function) -> (counter name, time it?)
COUNTERS = {
    ("banachlab.norms", "norm_batch"): ("norms.norm_batch", True),
    ("banachlab.norms", "norm_eval"): ("norms.norm_eval", False),
    ("banachlab.norms", "support_point"): ("norms.support_point", True),
    ("banachlab.norms", "subdifferential_extremes"): ("norms.subdifferential_extremes", False),
    ("banachlab.sets", "contains"): ("sets.contains", False),
    ("banachlab.sets", "distance"): ("sets.distance", False),
    ("banachlab.sets", "project"): ("sets.project", True),
    ("banachlab.sets", "normal_cone_sample"): ("sets.normal_cone_sample", True),
}

_GRID_ARG = {"delta_estimate": "eps_grid", "rho_estimate": "tau_grid",
             "supporting_modulus_estimate": "r_grid"}


def _rows(X) -> int:
    shape = getattr(X, "shape", None)
    if shape is None:
        shape = np.shape(X)
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.stats = {}  # counter name -> [calls, rows, busy seconds, depth]
        self._timed = set()
        self.points = defaultdict(int)
        self._seen_points = set()
        self.repeat_points = 0
        self._seen_rolling = set()
        self.rolling_repeats = 0
        self.pairs_used = 0
        self.pair_budget = 0
        self._originals = []

    # -- installation -------------------------------------------------------

    def install(self):
        for (mod, fn), name in SPANS.items():
            orig = getattr(sys.modules[mod], fn)
            self._replace(orig, self._span(name, orig))
        for (mod, fn), (name, timed) in COUNTERS.items():
            orig = getattr(sys.modules[mod], fn)
            self._replace(orig, self._counter(name, orig, timed))

    def uninstall(self):
        for module, attr, orig in reversed(self._originals):
            setattr(module, attr, orig)
        self._originals.clear()

    def _replace(self, orig, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "banachlab" and not name.startswith("banachlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._originals.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _counter(self, name, fn, timed):
        stat = self.stats.setdefault(name, [0, 0, 0.0, 0])
        if timed:
            self._timed.add(name)
        clock = time.perf_counter
        if name == "norms.norm_batch":
            def wrapper(n, X):
                stat[0] += 1
                stat[1] += _rows(X)
                t0 = clock()
                try:
                    return fn(n, X)
                finally:
                    stat[2] += clock() - t0
        elif timed:
            def wrapper(*args, **kwargs):
                stat[0] += 1
                stat[3] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat[3] -= 1
                    if stat[3] == 0:
                        stat[2] += clock() - t0
        else:
            def wrapper(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _span(self, name, fn):
        sig = inspect.signature(fn)
        short = name.split(".", 1)[1]
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self._before(short, bound.arguments)
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stack.pop()
                spans[idx][2] = clock()
                if short == "hypo_check" and result is not None:
                    self.pairs_used += int(result.pairs_used)

        wrapper.__wrapped__ = fn
        return wrapper

    def _before(self, short, a):
        if short in _GRID_ARG:
            grid = np.asarray(a[_GRID_ARG[short]], dtype=float).ravel()
            self.points[short] += grid.size
            which = a.get("which", "")
            for v in grid:
                key = (short, which, a["n"], round(float(v), 12), a["budget"])
                if key in self._seen_points:
                    self.repeat_points += 1
                else:
                    self._seen_points.add(key)
        elif short == "rolling_ball_check_normal":
            key = (a["A"], a["n"], float(a["R"]), int(a["sample_count"]), int(a["seed"]))
            if key in self._seen_rolling:
                self.rolling_repeats += 1
            else:
                self._seen_rolling.add(key)
        elif short == "hypo_check":
            self.pair_budget += int(a["pair_budget"])

    # -- results ------------------------------------------------------------

    def span_totals(self):
        """name -> [calls, inclusive seconds, self seconds].

        Inclusive time counts only spans with no ancestor of the same name,
        so a recursive call is not counted twice.  Self time is a span's
        duration minus the part its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            tot = totals[name]
            tot[0] += 1
            tot[2] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                tot[1] += t1 - t0
        return totals

    def metrics(self) -> dict:
        out = {}
        for name, (calls, incl, _) in self.span_totals().items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
        for name, (calls, rows, busy, _) in self.stats.items():
            out[f"{name}.calls"] = calls
            if name in self._timed:
                out[f"{name}.s"] = busy
            if name == "norms.norm_batch":
                out[f"{name}.rows"] = rows
                out[f"{name}.rows_per_call"] = rows / calls if calls else 0.0
        for short, pts in self.points.items():
            out[f"moduli.{short}.points"] = pts
        out["moduli.repeat_points"] = self.repeat_points
        out["sets.rolling_ball_check_normal.repeat_calls"] = self.rolling_repeats
        out["hypo.hypo_check.pair_yield"] = (
            self.pairs_used / self.pair_budget if self.pair_budget else 0.0)
        return out

    def write(self, path):
        """Write the spans, their per-name totals and the metrics as JSON."""
        totals = self.span_totals()
        payload = {
            "spans": [{"name": n, "start": t0, "end": t1, "parent": p}
                      for n, t0, t1, p in self.spans],
            "totals": {n: {"calls": c, "inclusive_s": i, "self_s": s}
                       for n, (c, i, s) in sorted(totals.items())},
            "metrics": self.metrics(),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
