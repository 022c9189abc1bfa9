"""Per-layer tracing from outside the program.

A layer is one module of the package: core, constraints, families, spectra
and cli.  `Tracer.install` replaces every public function of those modules
with a wrapper that records one span (name, start, end, parent) per call,
under every name that refers to the function, so the copy that `families`
imports from `core` (is_hadamard) and the one `constraints` imports from
`spectra` (poly_roots) are traced too.  Calls made through references the
program stored elsewhere (the FAMILY_BUILDERS table) are not seen.

Spans are kept in memory in flat arrays and written once, at the end, by
`write`; `layer_metrics` derives counts and self times from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("core", "constraints", "families", "spectra", "cli")


def _multiset_result(result):
    return {"true": int(bool(result))}


def _solve_result(report):
    return {
        "converged": report.converged,
        "no_convergence": report.no_convergence,
        "rejected_degenerate": report.rejected_degenerate,
    }


# counters read from return values, at the same boundary as the span
_RESULT_COUNTERS = {
    "spectra.multiset_match": _multiset_result,
    "constraints.c8_numeric_solve": _solve_result,
}


class Tracer:
    def __init__(self):
        self.package = importlib.import_module("hadamard_forge")
        self.modules = [importlib.import_module(f"hadamard_forge.{m}") for m in LAYERS]
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[str, str], int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- patching

    def install(self):
        originals = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[fn] = self._wrap(f"{layer}.{attr}", fn)
        for mod in (self.package, *self.modules):
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(value) if inspect.isfunction(value) else None
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        on_result = _RESULT_COUNTERS.get(name)
        stack, ids, parents = self._stack, self.name_id, self.parent
        starts, ends, counters = self.start, self.end, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                key = (name, "raised." + type(exc).__name__)
                counters[key] = counters.get(key, 0) + 1
                raise
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if on_result is not None:
                for counter, n in on_result(result).items():
                    counters[(name, counter)] = counters.get((name, counter), 0) + n
            return result

        return traced

    # ----------------------------------------------------------- results

    def self_times(self):
        """Per-name call counts and self seconds (duration minus children)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(ids))
        own = dur - child
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        self_s = np.bincount(ids, weights=own, minlength=n)
        return ({name: int(calls[i]) for i, name in enumerate(self.names)},
                {name: float(self_s[i]) for i, name in enumerate(self.names)})

    def counter(self, name, counter):
        return self.counters.get((name, counter), 0)

    def write(self, path):
        """Write all spans to an .npz file (replaced atomically)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp.npz"
        np.savez(
            tmp,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
        os.replace(tmp, path)


# (metric suffix, unit, better) of the per-layer metrics; BENCHMARK.json
# lists the same names
CALLS = ("calls", "count/op", "lower")
SELF = ("self_ms", "ms/op", "lower")

LAYER_METRICS = [
    ("spectra.multiset_match", [CALLS, SELF, ("match_ratio", "ratio", "higher")]),
    ("spectra.spectrum", [CALLS, SELF]),
    ("spectra.char_poly", [SELF]),
    ("spectra.poly_roots", [CALLS, SELF]),
    ("spectra.is_reciprocal", [SELF]),
    ("spectra.reduce_reciprocal", [SELF]),
    ("spectra.unitary_equivalent", [SELF]),
    ("constraints.c8_numeric_solve", [SELF, ("converged", "count/op", "higher"),
                                      ("no_convergence", "count/op", "lower"),
                                      ("rejected_degenerate", "count/op", "lower")]),
    ("constraints.c8_residuals", [CALLS, SELF]),
    ("constraints.c6_solve_quadratic", [CALLS, SELF, ("singular", "count/op", "lower")]),
    ("constraints.c6_solve_f", [SELF]),
    ("families.m6_from_branches", [SELF]),
    ("families.double", [SELF]),
    ("core.assemble_sylvester", [SELF]),
    ("core.is_hadamard", [CALLS, SELF]),
    ("core.orthogonality_residual", [CALLS, SELF]),
    ("cli.build_parser", [SELF]),
    ("cli.parse_matrix", [SELF]),
    ("cli.serialize_matrix", [SELF]),
]

_FROM_COUNTERS = {
    "converged": "converged",
    "no_convergence": "no_convergence",
    "rejected_degenerate": "rejected_degenerate",
    "singular": "raised.SingularBranch",
}


def metric_specs():
    """All per-layer metrics as (name, unit, better)."""
    specs = [(f"{fn}.{suffix}", unit, better)
             for fn, parts in LAYER_METRICS for suffix, unit, better in parts]
    specs += [(f"layer.{layer}.self_ms", "ms/op", "lower") for layer in LAYERS]
    specs += [("trace.spans_per_op", "count/op", "lower"),
              ("trace.overhead_ms", "ms/op", "lower"),
              ("trace.overhead_pct", "%", "lower")]
    return specs


def layer_metrics(tracer: Tracer, ops: int, traced_s: float, untraced_s_per_op: float):
    """Per-layer metrics per operation, from the spans of `ops` traced ops."""
    calls, self_s = tracer.self_times()
    values = {}
    for fn, parts in LAYER_METRICS:
        for suffix, _, _ in parts:
            if suffix == "calls":
                v = calls.get(fn, 0) / ops
            elif suffix == "self_ms":
                v = 1e3 * self_s.get(fn, 0.0) / ops
            elif suffix == "match_ratio":
                n = calls.get(fn, 0)
                v = tracer.counter(fn, "true") / n if n else 0.0
            else:
                v = tracer.counter(fn, _FROM_COUNTERS[suffix]) / ops
            values[f"{fn}.{suffix}"] = v
    for layer in LAYERS:
        total = sum(s for name, s in self_s.items() if name.startswith(layer + "."))
        values[f"layer.{layer}.self_ms"] = 1e3 * total / ops
    values["trace.spans_per_op"] = len(tracer.name_id) / ops
    values["trace.overhead_ms"] = 1e3 * (traced_s / ops - untraced_s_per_op)
    values["trace.overhead_pct"] = 100.0 * (traced_s / ops / untraced_s_per_op - 1.0)
    return values
