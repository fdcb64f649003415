"""Spans around the calls ``cutdg.experiments`` makes into the other layers.

Inside ``with tracing(tracer):`` every function that ``cutdg.experiments``
imports from a layer module is replaced, in the ``cutdg.experiments``
namespace only, by a wrapper that records one span per call. Two names
outside that namespace are wrapped as well: ``cutdg.solver.pcg``, because
``solve`` discards the iteration count and converged flag it returns, and
``cutdg.space.interpolate_pair``, which the assembly workload calls. No
source file changes, and the originals are put back when the block ends.

A span is a dict with id, name, layer, start, end (``perf_counter``
seconds), parent span id, run id (one per study call) and the counts read
from the call's return value. A layer's self time is the duration of its
spans minus the part covered by their child spans; calls are sequential,
so the children of a span never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import time
from collections import defaultdict

LAYERS = ("mesh", "levelset", "space", "forms", "solver", "manufactured")
EXTRA_TARGETS = (("cutdg.solver", "pcg"), ("cutdg.space", "interpolate_pair"))

# inclusive time of these calls, summed per study call
TIME_BUCKETS = {
    "forms.system_s": ("assemble_system",),
    "forms.sweep_s": ("assemble_bulk_form", "assemble_surface_form",
                      "assemble_coupling_form", "ghost_penalty_pieces"),
    "forms.gram_s": ("energy_gram", "gradient_gram",
                     "surface_element_mass_gram", "surface_tangential_gram",
                     "surface_trace_load"),
    "solver.solve_s": ("solve",),
    "solver.cond_s": ("rescaled_matrix", "condition_number"),
    "solver.geneig_s": ("deflated_generalized_extremes",),
    "manufactured.errors_s": ("compute_errors",),
}
COUNTS = ("mesh.refinements", "mesh.elements", "levelset.cut_elements",
          "levelset.segments", "space.ndof", "forms.nnz", "solver.pcg_iters",
          "solver.dense_fallbacks", "solver.cond_calls", "solver.geneig_calls")


def _nnz(out) -> int:
    """Stored entries of the sparse matrices a forms call returned."""
    if isinstance(out, dict):
        return sum(_nnz(v) for v in out.values())
    if hasattr(out, "matrix"):  # AssembledSystem
        return int(out.matrix.nnz)
    return int(getattr(out, "nnz", 0))


def _counts(name: str, layer: str, out) -> dict:
    """Work counts read from the return value of one traced call."""
    if name == "refine_uniform":
        return {"mesh.refinements": 1, "mesh.elements": out.n_elements}
    if name == "build_structured_mesh":
        return {"mesh.elements": out.n_elements}
    if name == "build_cut_topology":
        segments = 0 if out.surface is None else out.surface.n_segments
        return {"levelset.cut_elements": int(out.active_surface.size),
                "levelset.segments": segments}
    if name == "build_spaces":
        return {"space.ndof": out.ndof}
    if name == "pcg":
        _, iterations, converged = out
        # solve takes its dense route (or raises) whenever pcg stops short
        return {"solver.pcg_iters": int(iterations),
                "solver.dense_fallbacks": int(not converged)}
    if name == "condition_number":
        return {"solver.cond_calls": 1}
    if name == "deflated_generalized_extremes":
        return {"solver.geneig_calls": 1}
    if layer == "forms":
        return {"forms.nnz": _nnz(out)}
    return {}


class Tracer:
    """In-memory span recorder; ``run`` is the id given to new spans."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "parent": self._stack[-1] if self._stack else None,
               "run": self.run, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(fn.__name__, layer) as rec:
                out = fn(*args, **kwargs)
                rec["counts"] = _counts(fn.__name__, layer, out)
            return out
        return traced


def trace_targets():
    """(module, attribute name, layer) of every call that gets a span."""
    experiments = importlib.import_module("cutdg.experiments")
    modules = {f"cutdg.{layer}": layer for layer in LAYERS}
    targets = [(experiments, name, modules[obj.__module__])
               for name, obj in sorted(vars(experiments).items())
               if inspect.isfunction(obj) and obj.__module__ in modules]
    for module_name, name in EXTRA_TARGETS:
        targets.append((importlib.import_module(module_name), name,
                        modules[module_name]))
    return targets


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Patch every trace target for the duration of the block."""
    saved = []
    try:
        for module, name, layer in trace_targets():
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, tracer.wrap(original, layer))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def _duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict:
    """Self time per layer (plus ``experiments`` for the study span
    itself) over the given spans, which must include every child."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += _duration(s)
    out = dict.fromkeys(("experiments",) + LAYERS, 0.0)
    for s in spans:
        out[s["layer"]] += _duration(s) - covered[s["id"]]
    return out


def run_metrics(spans, run: int) -> dict:
    """Per-layer metrics of one traced study call (run id ``run``)."""
    mine = [s for s in spans if s["run"] == run]
    study = [s for s in mine if s["parent"] is None]
    if len(study) != 1:
        raise ValueError(f"run {run} has {len(study)} root spans, not one")
    own = self_times(mine)
    metrics = {"study_s": _duration(study[0]),
               "mesh.time_s": own["mesh"],
               "levelset.time_s": own["levelset"],
               "space.time_s": own["space"],
               "experiments.self_s": own["experiments"]}
    for metric, names in TIME_BUCKETS.items():
        metrics[metric] = sum((_duration(s) for s in mine
                               if s["name"] in names), 0.0)
    for key in COUNTS:
        metrics[key] = sum(s["counts"].get(key, 0) for s in mine)
    cond_ms = [1e3 * _duration(s) for s in mine
               if s["name"] == "condition_number"]
    metrics["solver.cond_p90_ms"] = percentile90(cond_ms)
    return metrics


def percentile90(values) -> float:
    """90th percentile (exclusive method); 0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=10)[-1])
