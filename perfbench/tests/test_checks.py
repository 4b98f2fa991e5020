"""Each output check must fail on a planted wrong answer.

Run with ``python3 -m pytest perfbench/tests`` from the repository
root.
"""

import itertools

import pytest

from perfbench import checks

from repro.analysis.pipeline import run_analysis, run_pre_analysis
from repro.core.pathcheck import type_consistent_by_paths
from repro.interp import interpret
from repro.serve.protocol import result_digest
from repro.workloads import TINY, generate


@pytest.fixture(scope="module")
def program():
    return generate(TINY)


@pytest.fixture(scope="module")
def trace(program):
    return interpret(program)


class _DroppedEdge:
    """A result with one call edge removed."""

    def __init__(self, result, edge):
        self._result = result
        self._edge = edge

    def call_graph_edges(self):
        return set(self._result.call_graph_edges()) - {self._edge}

    def __getattr__(self, name):
        return getattr(self._result, name)


def test_correct_results_pass(program, trace):
    result = run_analysis(program, "2obj").result
    merged = run_analysis(program, "M-2obj").result
    assert checks.soundness_violations("2obj", trace, result) == []
    assert checks.edge_subset_violations(
        "2obj ⊆ M-2obj", checks.result_edges(result),
        checks.result_edges(merged)) == []
    assert checks.edge_subset_violations(
        "2obj ⊆ CHA", checks.result_edges(result),
        checks.cha_edges(program)) == []


def test_dropped_call_edge_fails_soundness(program, trace):
    result = run_analysis(program, "2obj").result
    edge = sorted(trace.call_edges)[0]
    planted = _DroppedEdge(result, edge)
    violations = checks.soundness_violations("2obj", trace, planted)
    assert any("call edge" in line and str(edge) in line
               for line in violations)


def test_dropped_call_edge_fails_containment(program):
    base = run_analysis(program, "2obj").result
    merged = run_analysis(program, "M-2obj").result
    edge = sorted(checks.result_edges(base))[0]
    planted = checks.result_edges(merged) - {edge}
    violations = checks.edge_subset_violations(
        "2obj ⊆ M-2obj", checks.result_edges(base), planted)
    assert violations and str(edge) in violations[0]


def _inconsistent_pair(fpg):
    """Two objects that Definition 2.1 keeps apart, preferring a pair of
    the same type."""
    by_type = {}
    for obj in fpg.objects():
        by_type.setdefault(fpg.type_of(obj), []).append(obj)
    for objs in by_type.values():
        for a, b in itertools.combinations(sorted(objs), 2):
            if not type_consistent_by_paths(fpg, a, b,
                                             checks.MERGE_PATH_DEPTH):
                return a, b
    types = sorted(by_type)
    return by_type[types[0]][0], by_type[types[1]][0]


def test_inconsistent_merge_fails(program):
    pre = run_pre_analysis(program)
    assert checks.merge_violations("merge", pre.fpg, pre.merge.mom) == []
    a, b = _inconsistent_pair(pre.fpg)
    mom = dict(pre.merge.mom)
    mom[a] = b
    violations = checks.merge_violations("merge", pre.fpg, mom)
    assert violations and f"object {a}" in violations[0]


def test_tampered_digest_fails(program):
    digest = result_digest(run_analysis(program, "ci").result)
    assert checks.digest_violations("d", {"k": digest}, {"k": digest}) == []
    tampered = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert checks.digest_violations("d", {"k": tampered}, {"k": digest})


def test_serve_check_catches_tampered_digest():
    from perfbench import w_serve

    sources = w_serve.make_sources("smoke")
    label = sorted(sources)[0]
    served = w_serve._Served()
    key = (label, "ci")
    served.requests.append((key, "analyze", False))
    served.digests[key] = {"0" * 64}
    violations = w_serve.check_served(sources, served)
    assert any("served ≡ direct" in line for line in violations)


def test_serve_check_catches_wrong_answer():
    from perfbench import w_serve

    sources = w_serve.make_sources("smoke")
    label = sorted(sources)[0]
    served = w_serve._Served()
    key = (label, "ci")
    served.requests.append((key, "casts", False))
    served.answers[(label, "ci", "casts")] = {'{"may_fail": -1, "safe": 0}'}
    violations = w_serve.check_served(sources, served)
    assert any("answer" in line for line in violations)


def _edit_checker(tmp_path):
    from perfbench import w_edit

    stream = w_edit._Stream("smoke", str(tmp_path / "artifacts"))
    return w_edit._Checker(stream, str(tmp_path))


def test_edit_check_tolerates_only_listed_warm_faults(tmp_path):
    """A listed warm update that disagrees with a cold solve is the known
    warm-start fault (the update is marked failed); an unlisted warm
    update or a cold-path update that disagrees is a wrong answer."""
    from perfbench.common import Op

    checker = _edit_checker(tmp_path)
    checker.known_faults = frozenset({(0, "ci")})
    listed = Op(0, (0, "ci"), 0.1, 0.1, hit=True, mahjong=False)
    unlisted = Op(0, (0, "2obj"), 0.1, 0.1, hit=True, mahjong=False)
    cold = Op(0, (0, "M-2obj"), 0.1, 0.1, hit=False, mahjong=True)
    checker.updates[(0, "ci")] = [(listed, True, "0" * 64)]
    checker.updates[(0, "2obj")] = [(unlisted, True, "0" * 64)]
    checker.updates[(0, "M-2obj")] = [(cold, False, "0" * 64)]
    violations = checker.finish()
    assert listed.failed
    assert not unlisted.failed and not cold.failed
    assert any("edit 0/2obj" in line and "warm" in line
               for line in violations)
    assert any("edit 0/M-2obj" in line and "cold-path" in line
               for line in violations)
    assert not any("edit 0/ci" in line for line in violations)


def test_edit_check_reports_unsound_update(tmp_path):
    """A round-0 update that drops a call edge the edited program
    executes fails the soundness check, whatever its digest."""
    from types import SimpleNamespace

    from perfbench.common import Op

    checker = _edit_checker(tmp_path)
    program = checker.stream.edits[0]
    run = run_analysis(program, "ci")
    edge = sorted(interpret(program, max_steps=checks.INTERP_STEPS)
                  .call_edges)[0]
    planted = SimpleNamespace(result=_DroppedEdge(run.result, edge),
                              incr={"mode": "warm"})
    op = Op(0, (0, "ci"), 0.1, 0.1, hit=True, mahjong=False)
    checker.after(0, 0, "ci", planted, op)
    assert any("call edge" in line and str(edge) in line
               for line in checker.violations)
