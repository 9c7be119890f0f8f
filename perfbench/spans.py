"""Span recorder for the traced run.

Wrappers are installed from the benchmark's side, around the public
functions at each layer boundary of `dgh`; nothing inside the program
changes.  Because `dgh` modules import functions by name, a wrapper has to
replace every binding of the function: in the module that defines it (for
callers inside that module) and in every module that imported it.

A span is (id, name, start, end, parent id, job id).  Spans stay in memory
and are written out once, when the run ends.  A layer's self time is the
sum over its spans of duration minus the time its direct child spans cover.
A call made from inside the same layer (invariant_factors calling
smith_normal_form) opens no span and is not counted again, so counts are
calls into the layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

_BOOKKEEPING = "trace"


class Recorder:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._next_id = 0

    def current(self):
        return self._stack[-1][1] if self._stack else None

    def open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        return parent, perf_counter()

    def close(self, token):
        end = perf_counter()
        sid, name = self._stack.pop()
        parent, start = token
        self.spans.append((sid, name, start, end, parent, self.job))

    def count(self, counter, *args):
        """Run `counter(counts, *args)` inside a bookkeeping span, so that
        counting is charged to the tracer and not to the calling layer."""
        token = self.open(_BOOKKEEPING)
        counter(self.counts, *args)
        self.close(token)

    def self_times(self):
        covered = defaultdict(float)
        for _sid, _name, start, end, parent, _job in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _parent, _job in self.spans:
            out[name] += end - start - covered[sid]
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            for sid, name, start, end, parent, job in self.spans:
                fh.write(f"{sid}\t{name}\t{start!r}\t{end!r}\t"
                         f"{'' if parent is None else parent}\t{job}\n")


# -- counters: (counts, args, kwargs, result) -> None, run at layer entry -------


def _count_maps(counts, args, kwargs, result):
    counts["digraph.maps"] += len(result)


def _count_maps_list(counts, args, kwargs, result):
    counts["homotopy.maps"] += len(result.maps)
    counts["homotopy.edges"] += len(result.edges)


def _count_nerve(counts, args, kwargs, result):
    counts["nerve.cubes"] += sum(map(len, result.cubes))
    counts["nerve.nondegenerate"] += sum(map(sum, result.nondegenerate))


def _count_validate(counts, args, kwargs, result):
    counts["nerve.validate_calls"] += 1


def _count_matrix(counts, args, kwargs, result):
    a = args[0]
    rows = len(a)
    cols = len(a[0]) if a else 0
    counts["linalg.elim_calls"] += 1
    counts["linalg.dense_slots"] += rows * cols
    counts["linalg.nnz"] += sum(len(row) - row.count(0) for row in a)
    counts["linalg.max_cols"] = max(counts["linalg.max_cols"], cols)


def _count_solve(counts, args, kwargs, result):
    _count_matrix(counts, args, kwargs, result)
    counts["linalg.solve_calls"] += 1


def _count_simplices(counts, args, kwargs, result):
    counts["triangulation.simplices"] += sum(map(len, result.simplices))


def _count_squares(counts, args, kwargs, result):
    counts["coverings.squares"] += result["squares"]


# (defining module, qualified name, span name, counter at layer entry)
LAYERS = (
    ("dgh.cli", "main", "cli", None),
    ("dgh.digraph", "enumerate_digraph_maps", "digraph.enumerate", _count_maps),
    ("dgh.nerve", "nerve_levels", "nerve.tables", _count_nerve),
    ("dgh.nerve", "nerve_functor_map", "nerve.functor", None),
    ("dgh.nerve", "TruncatedCubicalSet.identity_violations", "nerve.validate",
     _count_validate),
    ("dgh.nerve", "CubicalMap.naturality_violations", "nerve.naturality", None),
    ("dgh.homology", "homology_summary", "homology.complex", None),
    ("dgh.homology", "homology", "homology.complex", None),
    ("dgh.homology", "normalized_chain_complex", "homology.complex", None),
    ("dgh.homology", "chain_map_matrices", "homology.complex", None),
    ("dgh.homology", "induced_homology_map", "homology.coords", None),
    ("dgh.linalg", "smith_normal_form", "linalg.elim", _count_matrix),
    ("dgh.linalg", "invariant_factors", "linalg.elim", _count_matrix),
    ("dgh.linalg", "matrix_rank", "linalg.elim", _count_matrix),
    ("dgh.linalg", "kernel_basis", "linalg.elim", _count_matrix),
    ("dgh.linalg", "unimodular_inverse", "linalg.elim", _count_matrix),
    ("dgh.linalg", "solve_integer", "linalg.elim", _count_solve),
    ("dgh.linalg", "matmul", "linalg.matmul", None),
    ("dgh.triangulation", "triangulate", "triangulation.build", _count_simplices),
    ("dgh.triangulation", "Triangulation.chain_complex", "triangulation.build", None),
    ("dgh.triangulation", "Triangulation.homology", "triangulation.build", None),
    ("dgh.homotopy", "homotopy_classes", "homotopy.classes", _count_maps_list),
    ("dgh.homotopy", "an_tower", "homotopy.tower", None),
    ("dgh.coverings", "check_unique_lifting", "coverings.lift", _count_squares),
)

#: bindings that keep the unwrapped function, so that the call is charged to
#: the caller's layer: Triangulation.homology runs homology() on its own
#: simplicial chain complex, which is triangulation.build work
UNWRAPPED = {("dgh.triangulation", "homology")}


def _wrap_call(recorder, fn, name, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if recorder.current() == name:
            return fn(*args, **kwargs)
        token = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(token)
        if counter is not None:
            recorder.count(counter, args, kwargs, result)
        return result

    return traced


def _resolve(module_name, qualname):
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder):
    """Replace every binding of each layer function with a traced wrapper.
    The worker process that calls this ends with its run, so nothing is
    put back."""

    for module_name, qualname, name, counter in LAYERS:
        owner, attr = _resolve(module_name, qualname)
        original = getattr(owner, attr)
        wrapper = _wrap_call(recorder, original, name, counter)
        if owner is not sys.modules[module_name]:  # a method: one binding
            setattr(owner, attr, wrapper)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name.split(".")[0] == "dgh" and (mod_name, attr) not in UNWRAPPED
                    and getattr(mod, attr, None) is original):
                setattr(mod, attr, wrapper)


#: per-layer metrics: (metric, unit); every name is reported, zero when the
#: workload never enters that layer.  A time metric is the self time of the
#: span named by the metric without "_s" ("cli" for cli.self_s).
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("digraph.enumerate_s", "s"),
    ("digraph.maps", "count"),
    ("nerve.tables_s", "s"),
    ("nerve.cubes", "count"),
    ("nerve.nondeg_frac", "ratio"),
    ("nerve.validate_s", "s"),
    ("nerve.validate_calls", "count"),
    ("nerve.functor_s", "s"),
    ("nerve.naturality_s", "s"),
    ("homology.complex_s", "s"),
    ("homology.coords_s", "s"),
    ("linalg.elim_s", "s"),
    ("linalg.elim_calls", "count"),
    ("linalg.solve_calls", "count"),
    ("linalg.dense_slots", "count"),
    ("linalg.nnz", "count"),
    ("linalg.fill", "ratio"),
    ("linalg.max_cols", "count"),
    ("linalg.matmul_s", "s"),
    ("triangulation.build_s", "s"),
    ("triangulation.simplices", "count"),
    ("homotopy.classes_s", "s"),
    ("homotopy.maps", "count"),
    ("homotopy.edges", "count"),
    ("homotopy.tower_s", "s"),
    ("coverings.lift_s", "s"),
    ("coverings.squares", "count"),
)


def layer_values(recorder):
    """Every LAYER_METRICS value, plus the tracer's own bookkeeping time
    under `trace.self_s`."""
    self_times = recorder.self_times()
    counts = recorder.counts
    out = {}
    for metric, unit in LAYER_METRICS:
        if unit == "s":
            span = "cli" if metric == "cli.self_s" else metric[: -len("_s")]
            out[metric] = self_times.get(span, 0.0)
        else:
            out[metric] = counts.get(metric, 0)
    cubes, slots = counts.get("nerve.cubes", 0), counts.get("linalg.dense_slots", 0)
    out["nerve.nondeg_frac"] = counts.get("nerve.nondegenerate", 0) / cubes if cubes else 0.0
    out["linalg.fill"] = counts.get("linalg.nnz", 0) / slots if slots else 0.0
    out["trace.self_s"] = self_times.get(_BOOKKEEPING, 0.0)
    return out
