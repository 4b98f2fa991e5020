"""Per-layer measurement for traced runs.

Three sources, all outside the program's hot path:

* :class:`SpanRecorder` — spans recorded by the benchmark around each
  call into a layer's public function (name, start, end, parent), kept
  in memory and written out when the run ends;
* the program's own ``tracer=`` spans (``phase:fpg``, ``phase:merge``)
  and ``perf=`` counters, read after each call;
* :class:`SolverProfile` — ``cProfile`` over the solver, whose
  per-function self time is folded into the six solver layers by a
  benchmark-side function → layer map (:func:`solver_layer`).
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: every per-layer metric the benchmark reports, with its unit
PER_LAYER: List[Tuple[str, str]] = [
    ("pta.pre.solve_s", "s"),
    ("pta.pre.iterations", "count"),
    ("pta.pre.dispatch_attempts", "count"),
    ("pta.pre.facts_propagated", "count"),
    ("pta.main.solve_s", "s"),
    ("pta.main.2obj.solve_s", "s"),
    ("pta.main.M-2obj.solve_s", "s"),
    ("pta.main.2type.solve_s", "s"),
    ("pta.main.M-2type.solve_s", "s"),
    ("pta.main.2cs.solve_s", "s"),
    ("pta.main.M-2cs.solve_s", "s"),
    ("pta.main.iterations", "count"),
    ("pta.main.dispatch_attempts", "count"),
    ("pta.main.facts_propagated", "count"),
    ("pta.main.copy_edges", "count"),
    ("pta.main.nodes", "count"),
    ("pta.main.method_contexts", "count"),
    ("pta.main.scc_passes", "count"),
    ("pta.layer.propagate_s", "s"),
    ("pta.layer.statements_s", "s"),
    ("pta.layer.dispatch_s", "s"),
    ("pta.layer.link_s", "s"),
    ("pta.layer.intern_s", "s"),
    ("pta.layer.scc_s", "s"),
    ("pta.layer.dispatch_calls", "count"),
    ("pta.layer.intern_calls", "count"),
    ("core.fpg.build_s", "s"),
    ("core.merging.merge_s", "s"),
    ("core.automata.transition_computations", "count"),
    ("core.merging.objects_after", "count"),
    ("clients.callgraph_s", "s"),
    ("clients.casts_s", "s"),
    ("clients.exceptions_s", "s"),
    ("frontend.parse_s", "s"),
    ("serve.result_cache.hits", "count"),
    ("serve.result_cache.misses", "count"),
    ("serve.result_cache.evictions", "count"),
    ("serve.artifacts.hits", "count"),
    ("serve.artifacts.misses", "count"),
    ("serve.digest_s", "s"),
    ("serve.overhead_p50_ms", "ms"),
    ("incr.diff_s", "s"),
    ("incr.prepare_s", "s"),
    ("incr.warm_updates", "count"),
    ("incr.cold_updates", "count"),
    ("incr.artifact_stores", "count"),
    ("pta.warm.iterations", "count"),
    ("pta.warm.facts_propagated", "count"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_pct", "%"),
]
UNITS: Dict[str, str] = dict(PER_LAYER)
NAMES: List[str] = [name for name, _ in PER_LAYER]

SOLVER_LAYERS = ("propagate", "statements", "dispatch", "link", "intern",
                 "scc")


# ----------------------------------------------------------------------
# Benchmark-side spans
# ----------------------------------------------------------------------
class SpanRecorder:
    """In-memory spans around the benchmark's calls into the program."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []
        self._next_id = 1
        self._epoch = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter() - self._epoch
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append({
                "id": span_id, "parent": parent, "name": name,
                "start": start, "end": time.perf_counter() - self._epoch,
                "attrs": attrs,
            })

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """name → summed self time (duration minus direct children)."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                           + s["end"] - s["start"])
        out: Dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans,
                       "self_times": self.self_times()}, handle, indent=1)


def program_span_total(sink, name: str) -> float:
    """Summed duration of the program's own ``tracer=`` spans."""
    return sum(span.duration for span in sink.find(name))


def solve_spans(sink) -> List[Tuple[str, str, float, int, int]]:
    """``(config, phase, seconds, iterations, facts)`` of every solver
    run the program's tracer saw, read from its ``analysis`` → ``solve``
    → ``stride`` spans."""
    out = []
    for root in sink.roots:
        config = str(root.attrs.get("analysis"))
        for span in root.walk():
            if span.name != "solve":
                continue
            facts = sum(int(child.attrs.get("facts", 0))
                        for child in span.children if child.name == "stride")
            out.append((config, str(span.attrs.get("phase")), span.duration,
                        int(span.attrs.get("iterations", 0)), facts))
    return out


# ----------------------------------------------------------------------
# cProfile → solver layers
# ----------------------------------------------------------------------
_SOLVER_FUNCS = {
    "propagate": {
        "solve", "_run_bits", "_run_bits_coalesce", "_run_sets",
        "_run_sets_coalesce", "_run_bits_wave", "_run_sets_wave",
        "_push_fifo", "_push_fifo_coalesce", "_push_fifo_coalesce_sets",
        "_push_wave_bits", "_push_wave_sets", "push", "_delta_ids",
        "_install_push_filter", "_apply_warm_start",
    },
    "statements": {"_add_reachable", "_process_var_delta", "_add_edge",
                   "__init__"},
    "dispatch": {"_process_virtual_dispatch", "_process_static_invoke"},
    "link": {"_link_call"},
    "intern": {"_node", "_var_node", "_exception_node", "_field_node",
               "_static_field_node", "_object", "_singleton"},
    "scc": {"_maybe_collapse", "_fifo_probe", "_collapse_cycles",
            "_collapse_cycles_impl", "_enter_wave_mode",
            "_sort_worklist_topologically"},
}
_SOLVER_FUNC_LAYER = {name: layer for layer, names in _SOLVER_FUNCS.items()
                      for name in names}
#: whole modules the solver calls into, by the layer they serve
_MODULE_LAYER = (
    (os.path.join("repro", "pta", "bitset.py"), "propagate"),
    (os.path.join("repro", "pta", "context.py"), "dispatch"),
    (os.path.join("repro", "ir", "program.py"), "dispatch"),
    (os.path.join("repro", "ir", "types.py"), "dispatch"),
    (os.path.join("repro", "pta", "heapmodel.py"), "intern"),
    (os.path.join("repro", "pta", "numbering.py"), "intern"),
    (os.path.join("repro", "pta", "scc.py"), "scc"),
    (os.path.join("repro", "core", "disjoint_sets.py"), "scc"),
)
_SOLVER_FILE = os.path.join("repro", "pta", "solver.py")
_INTERN_COUNTED = ("_var_node", "_exception_node", "_field_node",
                   "_static_field_node", "_object")


def solver_layer(key: Tuple[str, int, str]) -> Optional[str]:
    """The solver layer a profiled function belongs to, or ``None``."""
    filename, _line, name = key
    if filename.endswith(_SOLVER_FILE):
        return _SOLVER_FUNC_LAYER.get(name)
    for suffix, layer in _MODULE_LAYER:
        if filename.endswith(suffix):
            return layer
    return None


class SolverProfile:
    """Accumulates ``cProfile`` runs and folds them into solver layers.

    A built-in (or any unmapped function) called directly from a mapped
    function is charged to the caller's layer, so ``dict.get`` inside
    ``_var_node`` counts as interning.
    """

    def __init__(self) -> None:
        self._profiler = cProfile.Profile()
        self._runs = 0

    @contextmanager
    def profiling(self) -> Iterator[None]:
        self._profiler.enable()
        try:
            yield
        finally:
            self._profiler.disable()
            self._runs += 1

    def layer_metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {f"pta.layer.{layer}_s": 0.0
                                 for layer in SOLVER_LAYERS}
        out["pta.layer.dispatch_calls"] = 0
        out["pta.layer.intern_calls"] = 0
        if not self._runs:
            return out
        stats = pstats.Stats(self._profiler).stats  # type: ignore
        for key, (_cc, calls, tottime, _ct, callers) in stats.items():
            layer = solver_layer(key)
            if layer is not None:
                out[f"pta.layer.{layer}_s"] += tottime
            elif not key[0].endswith(".py") or key[0] == "~":
                # a built-in: charge each calling edge to its caller
                for caller, edge in callers.items():
                    caller_layer = solver_layer(caller)
                    if caller_layer is not None:
                        out[f"pta.layer.{caller_layer}_s"] += edge[2]
            if key[0].endswith(_SOLVER_FILE):
                if key[2] == "_process_virtual_dispatch":
                    out["pta.layer.dispatch_calls"] += calls
                elif key[2] in _INTERN_COUNTED:
                    out["pta.layer.intern_calls"] += calls
        return out


def overhead_metrics(untraced: float, traced: float) -> Dict[str, float]:
    return {
        "trace.untraced_s": untraced,
        "trace.traced_s": traced,
        "trace.overhead_pct": ((traced - untraced) / untraced * 100.0
                               if untraced > 0 else 0.0),
    }
