"""Output checks against ground truth computed apart from the code
being measured.

Every check returns a list of human-readable violations (empty = pass)
so a run can report them all and the benchmark's tests can plant a
wrong answer and see the check name it.  The checks never compare
against stored numbers, and none of them asserts that MAHJONG is
faster: they check properties a correct analysis must have.

* :func:`soundness_violations` — every fact of a concrete execution
  (:func:`repro.interp.interpret`) is contained in a result;
* :func:`edge_subset_violations` — call-graph containment between two
  results (kA ⊆ M-kA, kA ⊆ ci, anything ⊆ CHA);
* :func:`merge_violations` — every merged object is type-consistent
  with its representative by Definition 2.1, checked literally over
  bounded field strings (:func:`repro.core.pathcheck`);
* :func:`digest_violations` — two digests of the same program ×
  configuration agree (served ≡ direct, warm ≡ cold).
"""

from __future__ import annotations

import os
import pickle
from typing import Iterable, List, Mapping, Set, Tuple

#: depth bound for the field-string enumeration of the merge check
MERGE_PATH_DEPTH = 3
#: step bound of the concrete interpreter behind the soundness check (a
#: bounded run stops cleanly and its trace stays valid)
INTERP_STEPS = 50_000
#: at most this many violations are spelled out per check
_SHOW = 5


def _capped(items: List[str]) -> List[str]:
    if len(items) <= _SHOW:
        return items
    return items[:_SHOW] + [f"... and {len(items) - _SHOW} more"]


def soundness_violations(label: str, trace, result) -> List[str]:
    """Facts of ``trace`` (an :class:`repro.interp.ExecutionTrace`)
    missing from ``result`` (a :class:`repro.pta.results.PointsToResult`
    or anything with the same accessors)."""
    from repro.clients import check_casts

    bad: List[str] = []
    for (method, var), sites in sorted(trace.var_bindings.items()):
        analysed: Set[int] = set()
        for obj in result.var_points_to_ids(method, var):
            analysed |= result.object_sites(obj)
        missing = sites - analysed
        if missing:
            bad.append(f"{label}: {method}.{var} misses sites "
                       f"{sorted(missing)}")
    edges = result.call_graph_edges()
    for edge in sorted(trace.call_edges - set(edges)):
        bad.append(f"{label}: call edge {edge} executed but not in result")
    reachable = set(result.reachable_methods())
    for method in sorted(trace.executed_methods - reachable):
        bad.append(f"{label}: {method} executed but not reachable")
    if trace.heap_stores:
        heap: Set[Tuple[int, str, int]] = set()
        for base, field_name, value in result.field_points_to():
            for base_site in result.object_sites(base):
                for value_site in result.object_sites(value):
                    heap.add((base_site, field_name, value_site))
        for store in sorted(trace.heap_stores - heap):
            bad.append(f"{label}: heap store {store} not in result")
    may_fail = check_casts(result).may_fail_sites
    for site in sorted(trace.failed_casts - set(may_fail)):
        bad.append(f"{label}: cast {site} failed but is not may-fail")
    for method, sites in sorted(trace.exceptions.items()):
        analysed = set()
        for obj in result.exception_points_to(method):
            analysed |= result.object_sites(obj)
        missing = sites - analysed
        if missing:
            bad.append(f"{label}: exceptions {sorted(missing)} escape "
                       f"{method} but not in result")
    return _capped(bad)


def edge_subset_violations(label: str, smaller: Iterable[Tuple[int, str]],
                           larger: Iterable[Tuple[int, str]]) -> List[str]:
    """Edges of ``smaller`` missing from ``larger``."""
    missing = set(smaller) - set(larger)
    return _capped([f"{label}: edge {edge} missing"
                    for edge in sorted(missing)])


def merge_violations(label: str, fpg, mom: Mapping[int, int],
                     depth: int = MERGE_PATH_DEPTH) -> List[str]:
    """Merged objects that are not type-consistent with their
    representative (Definition 2.1 over field strings up to ``depth``).

    ``mom`` is the merged object map (object → representative).
    """
    from repro.core.pathcheck import type_consistent_by_paths

    bad = []
    for obj, rep in sorted(mom.items()):
        if obj == rep:
            continue
        if not type_consistent_by_paths(fpg, obj, rep, depth):
            bad.append(f"{label}: object {obj} ({fpg.type_of(obj)}) merged "
                       f"into {rep} ({fpg.type_of(rep)}) but not "
                       f"type-consistent")
    return _capped(bad)


def digest_violations(label: str, observed: Mapping[str, str],
                      expected: Mapping[str, str]) -> List[str]:
    """Keys whose ``observed`` digest differs from the ``expected`` one
    (a key missing from ``expected`` counts as a violation)."""
    bad = []
    for key in sorted(observed):
        if observed[key] != expected.get(key):
            bad.append(f"{label}: {key} digest {observed[key][:12]} != "
                       f"{str(expected.get(key))[:12]}")
    return _capped(bad)


def answer_violations(label: str, observed: Mapping[str, object],
                      expected: Mapping[str, object]) -> List[str]:
    """Query answers that differ from the expected ones."""
    bad = []
    for key in sorted(observed):
        if observed[key] != expected.get(key):
            bad.append(f"{label}: answer for {key} differs from a direct "
                       f"analysis")
    return _capped(bad)


def cha_edges(program) -> Set[Tuple[int, str]]:
    from repro.clients.cha import build_cha_call_graph

    return set(build_cha_call_graph(program).edges)


def result_edges(result) -> Set[Tuple[int, str]]:
    return set(result.call_graph_edges())


def dump(value, path: str) -> None:
    """Pickle ``value`` to ``path`` (whole or not at all)."""
    partial = f"{path}.{os.getpid()}.part"
    with open(partial, "wb") as handle:
        pickle.dump(value, handle)
    os.replace(partial, path)


def load(path: str):
    with open(path, "rb") as handle:
        return pickle.load(handle)


def cached_trace(program, path: str):
    """The bounded interpreter trace of ``program``, kept in the file
    ``path`` so that checks run in separate child processes compute it
    once."""
    if os.path.exists(path):
        return load(path)
    from repro.interp import interpret

    trace = interpret(program, max_steps=INTERP_STEPS)
    dump(trace, path)
    return trace
