"""Spans around the public functions of each homlie module, for the traced run.

`install()` wraps every function in LAYERS and rebinds the wrapper under
every name that holds the original in any homlie module (including names
imported with `from .x import y`), and wraps methods on their classes, so
calls made inside the library are seen too.  Each call records a span
(name, start, end, parent) in flat arrays; self time is derived at the end as
a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from math import comb

# Layers are named after the modules; functions as `name` or `Class.method`.
LAYERS = {
    "linalg": ("rref", "kernel_basis", "solve", "span_rank", "quotient_dimension",
               "determinant_of", "Matrix.__matmul__"),
    "cochains": ("hom_cochain_basis", "exterior_power_matrix", "Cochain.evaluate",
                 "nr_diamond", "nr_bracket", "is_mc_pair"),
    "cohomology": ("cohomology_dimensions", "ce_coboundary", "compatible_coboundary",
                   "derivation_space", "class_coordinates"),
    "algebra": ("verify_structure", "verify_operator", "adjoint_representation",
                "induced_bracket"),
    "documents": ("parse",),
    "deformations": ("verify_order_p", "obstruction", "is_extensible",
                     "check_linear_generator", "infinitesimal_class"),
    "extensions": ("build_extension", "extract_cocycle", "ext_class", "check_equivalence"),
    "cli": ("main",),
}

# Extra per-layer metrics: name -> unit.  Counts are per traced pass.
EXTRAS = {
    "linalg.rref.cells": "count",
    "linalg.rref.nonzero_ratio": "ratio",
    "cochains.hom_cochain_basis.unknowns": "count",
    "cochains.nr_bracket.distinct_ratio": "ratio",
    "cohomology.compatible_coboundary.zero_component_ratio": "ratio",
    "documents.parse.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for layer, functions in LAYERS.items():
        for qual in functions:
            out[f"{layer}.{qual}.calls"] = "count"
            out[f"{layer}.{qual}.self_s"] = "s"
            out[f"{layer}.{qual}.incl_s"] = "s"
    out.update(EXTRAS)
    return out


# Probes see a call's arguments before the span opens and add to counters.

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _probe_rref(counts, args, kwargs):
    m = _arg(args, kwargs, 0, "m")
    counts["rref.cells"] += m.rows * m.cols
    counts["rref.nonzero"] += sum(1 for x in m.entries if x)


def _probe_basis(counts, args, kwargs):
    alpha, beta, n = (_arg(args, kwargs, i, k) for i, k in enumerate(("alpha", "beta", "n")))
    counts["hom_cochain_basis.unknowns"] += beta.rows * (comb(alpha.rows, n) if n else 1)


def _probe_nr(counts, args, kwargs):
    p, q, alpha = (_arg(args, kwargs, i, k) for i, k in enumerate(("p", "q", "alpha")))
    counts.seen_nr.add(hash((p.arity, p.coeffs.entries, q.arity, q.coeffs.entries,
                             alpha.entries)))


def _probe_coboundary(counts, args, kwargs):
    f = _arg(args, kwargs, 2, "f")
    comps = f.components if f.degree else ()
    counts["compatible_coboundary.components"] += len(comps)
    counts["compatible_coboundary.zero_components"] += sum(1 for c in comps if c.is_zero())


def _probe_parse(counts, args, kwargs):
    counts["parse.bytes"] += len(_arg(args, kwargs, 0, "text").encode("utf-8"))


PROBES = {
    "linalg.rref": _probe_rref,
    "cochains.hom_cochain_basis": _probe_basis,
    "cochains.nr_bracket": _probe_nr,
    "cohomology.compatible_coboundary": _probe_coboundary,
    "documents.parse": _probe_parse,
}


class Counts(dict):
    """Counters for the probes; `seen_nr` holds the nr_bracket argument
    hashes of the current pass."""

    def __init__(self):
        super().__init__()
        self.seen_nr = set()

    def __missing__(self, key):
        return 0


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")  # 1 when an enclosing span has the same name
        self.stack = []
        self.active = []
        self.counts = Counts()

    def wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        self.active.append(0)
        probe = PROBES.get(name)
        clock = time.perf_counter
        stack, active, counts = self.stack, self.active, self.counts
        span_name, parent, start, end, nested = (
            self.span_name, self.parent, self.start, self.end, self.nested)

        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(counts, args, kwargs)
            span = len(start)
            span_name.append(index)
            parent.append(stack[-1] if stack else -1)
            nested.append(1 if active[index] else 0)
            end.append(0.0)
            stack.append(span)
            active[index] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                active[index] -= 1
                stack.pop()

        return functools.wraps(fn)(wrapper)

    def install(self):
        import homlie  # noqa: F401  (loads the package modules)
        import homlie.cli  # noqa: F401
        import homlie.documents  # noqa: F401

        modules = [m for key, m in sys.modules.items()
                   if key == "homlie" or key.startswith("homlie.")]
        for layer, functions in LAYERS.items():
            module = sys.modules[f"homlie.{layer}"]
            for qual in functions:
                name = f"{layer}.{qual}"
                if "." in qual:
                    cls_name, method = qual.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, method, self.wrap(name, cls.__dict__[method]))
                    continue
                original = getattr(module, qual)
                wrapper = self.wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def end_pass(self):
        self.counts["nr_bracket.distinct"] += len(self.counts.seen_nr)
        self.counts.seen_nr.clear()

    def metrics(self, passes: int):
        """Per-layer metrics per traced pass, from the recorded spans."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                child[p] += self.end[s] - self.start[s]
        k = len(self.names)
        calls, own, incl = [0] * k, [0.0] * k, [0.0] * k
        for s in range(n):
            i = self.span_name[s]
            duration = self.end[s] - self.start[s]
            calls[i] += 1
            own[i] += duration - child[s]
            if not self.nested[s]:
                incl[i] += duration
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / passes
            out[f"{name}.self_s"] = own[i] / passes
            out[f"{name}.incl_s"] = incl[i] / passes
        c = self.counts
        nr_calls = calls[self.names.index("cochains.nr_bracket")]
        out["linalg.rref.cells"] = c["rref.cells"] / passes
        out["linalg.rref.nonzero_ratio"] = _ratio(c["rref.nonzero"], c["rref.cells"])
        out["cochains.hom_cochain_basis.unknowns"] = c["hom_cochain_basis.unknowns"] / passes
        out["cochains.nr_bracket.distinct_ratio"] = _ratio(c["nr_bracket.distinct"], nr_calls)
        out["cohomology.compatible_coboundary.zero_component_ratio"] = _ratio(
            c["compatible_coboundary.zero_components"], c["compatible_coboundary.components"])
        out["documents.parse.bytes"] = c["parse.bytes"] / passes
        return out

    def write(self, path: str):
        """All spans as columns (name index, parent span, start and end in
        microseconds from the first span), gzip-compressed JSON."""
        t0 = self.start[0] if len(self.start) else 0.0
        data = {
            "names": self.names,
            "name": list(self.span_name),
            "parent": list(self.parent),
            "start_us": [round((t - t0) * 1e6) for t in self.start],
            "end_us": [round((t - t0) * 1e6) for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(data, handle, separators=(",", ":"))


def _ratio(num, den):
    return num / den if den else 0.0
