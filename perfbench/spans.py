"""Span tracing of normlab's layers from outside the package.

`Tracer.install` replaces a layer's public functions with wrappers that
record one span (name, start, end, parent, work count) per call.  The
wrapped binding is the module attribute the caller looks up at call
time: where a module imports a function by name (``norms`` imports
``fourier_transform_batch`` from ``fourier``), that module's own binding
is wrapped as well, so a call made from inside the package is seen.
Methods are wrapped on their class.  Spans stay in memory and are
written out at the end; a layer's self time is its spans' durations
minus the durations of their direct child spans.
"""

from __future__ import annotations

import json
import time

import numpy as np


def _size(args, kwargs, pos, key):
    val = kwargs.get(key, args[pos] if len(args) > pos else None)
    return int(np.size(val))


def _xis(args, kwargs, out):
    return _size(args, kwargs, 1, "xis")


def _expint_evals(args, kwargs, out):
    return max(_size(args, kwargs, 0, "s"), _size(args, kwargs, 1, "z"))


def _n_xi(args, kwargs, out):
    return int(out.meta.get("n_xi", 0))


def _points(args, kwargs, out):
    return _size(args, kwargs, 2, "x")


def _anodes(args, kwargs, out):
    # args[0] is the WhittakerModel: a-nodes x coefficients^2 pair terms
    n = _size(args, kwargs, 1, "avals")
    return n, n * len(args[0].ns) ** 2


# (layer, module, attribute, work counter).  Every binding of a function
# that callers can reach by name gets the same layer.
BINDINGS = [
    ("fourier", "fourier", "fourier_transform_batch", _xis),
    ("fourier", "norms", "fourier_transform_batch", _xis),
    ("fourier", "siegel", "fourier_transform_batch", _xis),
    ("fourier", "automorphic", "fourier_transform_batch", _xis),
    ("quadrature.expint", "quadrature", "expint", _expint_evals),
    ("quadrature.expint", "fourier", "expint", _expint_evals),
    ("norms.comp_norm", "norms", "comp_norm", _n_xi),
    ("norms.intertwine_apply", "norms", "intertwine_apply", _points),
    ("siegel.cell_integral", "siegel.WhittakerModel", "cell_integral",
     _anodes),
    ("siegel.region", "siegel", "region_norm_minus", None),
    ("siegel.region", "siegel", "floor_sandwich", None),
    ("siegel.region", "siegel", "region_norm_full", None),
    ("siegel.region", "siegel", "region_norm_plus_weyl_exact", None),
    ("siegel.region", "siegel", "region_norm_plus_direct", None),
    ("siegel.region", "siegel", "main_bound_check", None),
    ("automorphic.p0_weighted_norm", "automorphic", "p0_weighted_norm",
     None),
    ("group", "group", "decompose_kan", None),
    ("group", "group", "decompose_kna", None),
    ("group", "group", "weyl_flip", None),
    ("coeffs.generate", "coeffs", "generate", None),
]

# layers each workload must reach; a traced run that records no call to
# one of them fails, so that a refactor cannot bypass a wrapper silently
EXPECTED = {
    "kspectrum": ["fourier", "quadrature.expint", "norms.comp_norm"],
    "region": ["fourier", "quadrature.expint", "siegel.cell_integral",
               "siegel.region", "automorphic.p0_weighted_norm",
               "coeffs.generate"],
    "operators": ["norms.intertwine_apply", "group"],
}


class Tracer:
    """In-memory span recorder; single-threaded, like the program."""

    def __init__(self):
        self.spans = []      # [layer, start, end, parent, count, count2]
        self.stack = []
        self.active = False
        self.absent = set()  # bindings in BINDINGS the program lacks
        self._saved = []

    def install(self, nl):
        """Wrap every binding in BINDINGS on the freshly imported package
        namespace ``nl`` (attribute access by submodule name).  A binding
        the program no longer has is noted in ``absent``; if that leaves a
        layer unreached, the guard in run.py reports it."""
        for layer, owner_path, attr, counter in BINDINGS:
            owner = nl
            for part in owner_path.split("."):
                owner = getattr(owner, part, None)
            fn = None if owner is None else owner.__dict__.get(attr)
            if fn is None:
                self.absent.add(f"{owner_path}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer, fn, counter))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    def _wrap(self, layer, fn, counter):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                n = counter(args, kwargs, out)
                rec[4], rec[5] = n if isinstance(n, tuple) else (n, 0)
            return out

        traced.__wrapped__ = fn
        return traced

    def clear(self):
        del self.spans[:]

    def layers(self):
        """Per-layer totals: calls, outermost calls, duration, self time
        and work counts, over the spans recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {}
        for i, rec in enumerate(spans):
            agg = out.setdefault(rec[0], {"calls": 0, "outer_calls": 0,
                                          "outer_s": 0.0, "self_s": 0.0,
                                          "count": 0, "count2": 0})
            dur = rec[2] - rec[1]
            agg["calls"] += 1
            agg["self_s"] += dur - child[i]
            agg["count"] += rec[4]
            agg["count2"] += rec[5]
            if rec[3] < 0 or spans[rec[3]][0] != rec[0]:
                agg["outer_calls"] += 1
                agg["outer_s"] += dur
        return out

    def write(self, path):
        """Spans as JSON: one [layer, start, end, parent, count, count2]
        row each, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[r[0], round(r[1] - t0, 9), round(r[2] - t0, 9), r[3],
                 r[4], r[5]] for r in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "start_s", "end_s", "parent",
                                  "count", "count2"], "spans": rows}, fh)


def per_layer_metrics(layers, rounds, scale, generate_s):
    """The per-layer metrics, per traced round.  Times are multiplied by
    ``scale`` (measured seconds to seconds at reference speed, as for the
    end-to-end metrics); ``generate_s`` comes scaled from set-up."""
    empty = {"calls": 0, "outer_calls": 0, "outer_s": 0.0, "self_s": 0.0,
             "count": 0, "count2": 0}
    fo, ex, cn, ia, ci, gr, rg, p0 = (layers.get(name, empty) for name in (
        "fourier", "quadrature.expint", "norms.comp_norm",
        "norms.intertwine_apply", "siegel.cell_integral", "group",
        "siegel.region", "automorphic.p0_weighted_norm"))

    def per_round(n):
        return n / rounds

    def seconds(agg):
        return agg["self_s"] * scale / rounds

    def ratio(num, den, unit=1.0):
        return unit * num / den if den else 0.0

    return {
        "fourier.freqs": (per_round(fo["count"]), "count"),
        "fourier.self_s": (seconds(fo), "s"),
        "fourier.us_per_freq":
            (ratio(fo["self_s"] * scale, fo["count"], 1e6), "us"),
        "quadrature.expint.evals": (per_round(ex["count"]), "count"),
        "quadrature.expint.self_s": (seconds(ex), "s"),
        "norms.comp_norm.calls": (per_round(cn["calls"]), "count"),
        "norms.comp_norm.n_xi": (per_round(cn["count"]), "count"),
        "norms.comp_norm.self_s": (seconds(cn), "s"),
        "norms.intertwine_apply.points": (per_round(ia["count"]), "count"),
        "norms.intertwine_apply.self_s": (seconds(ia), "s"),
        "norms.intertwine_apply.ms_per_point":
            (ratio(ia["self_s"] * scale, ia["count"], 1e3), "ms"),
        "siegel.cell_integral.calls": (per_round(ci["calls"]), "count"),
        "siegel.cell_integral.anodes": (per_round(ci["count"]), "count"),
        "siegel.cell_integral.pair_terms": (per_round(ci["count2"]), "count"),
        "siegel.cell_integral.self_s": (seconds(ci), "s"),
        "siegel.region.self_s": (seconds(rg), "s"),
        "automorphic.p0_weighted_norm.self_s": (seconds(p0), "s"),
        "group.decompositions": (per_round(gr["outer_calls"]), "count"),
        "group.decomp_per_s":
            (ratio(gr["outer_calls"], gr["outer_s"] * scale), "1/s"),
        "coeffs.generate_s": (generate_s, "s"),
    }
