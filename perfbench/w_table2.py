"""Workload ``table2``: the paper's own experiment (Table 2).

One round runs, for each of four programs, one pre-analysis (ci solve,
FPG, merge — :func:`run_pre_analysis`) and then the main analyses kA
and M-kA for k ∈ {2obj, 2type, 2cs}, each followed by
``AnalysisRun.metrics()`` (the paper's client metrics).  The M-kA
cells share the program's pre-analysis, as Table 2 accounts them.  The
seed orders the programs of a round; the programs are fixed, so every
round does the same work.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import replace
from typing import Dict, List, Tuple

from perfbench import checks
from perfbench.common import (CheckError, Deadline, Op, RunLog, attempt,
                              failed_run, in_child, peak_rss_mb,
                              remove_work_dir, settle, work_dir)
from perfbench.layers import SolverProfile, SpanRecorder, program_span_total

#: (label, profile, scale, spec overrides) — one or two programs per
#: tier of the paper: tier 1 (3obj scalable), tier 2 (M-3obj rescues
#: it), tier 3 (poly payloads: MAHJONG cannot shrink the kernel).  The
#: dispatch kernels of chart and eclipse are cut to one instance so a
#: round fits a few seconds.
PROGRAMS: Dict[str, Tuple[Tuple[str, str, float, Dict[str, int]], ...]] = {
    "full": (
        ("luindex", "luindex", 1.0, {}),
        ("antlr", "antlr", 0.3, {}),
        ("chart", "chart", 0.3, {"kernel_count": 1, "kernel_fanout": 12}),
        ("eclipse", "eclipse", 0.3, {"kernel_count": 1, "kernel_fanout": 10}),
    ),
    "smoke": (
        ("luindex", "luindex", 0.2, {}),
        ("eclipse", "eclipse", 0.1, {"kernel_count": 1, "kernel_fanout": 3}),
    ),
}
CONFIGS = ("2obj", "M-2obj", "2type", "M-2type", "2cs", "M-2cs")
#: the set-up takes well under 0.1 s, so its median needs more repeats
#: than the other workloads' to be steady
SETUP_REPEATS = 15


def make_programs(size: str):
    from repro.workloads.generator import generate
    from repro.workloads.profiles import profile_spec

    return {label: generate(replace(profile_spec(name, scale), **over))
            for label, name, scale, over in PROGRAMS[size]}


def schedule(seed: int, labels: List[str]) -> List[Tuple[str, str]]:
    """A round's operations: per program its pre-analysis, then the six
    main cells in a fixed order; the programs in a seeded order (the
    same in every round of a run).

    Each operation runs with the same live data whatever the seed: only
    the current program's pre-analysis is held, and the cells follow it
    in the same order.
    """
    order = list(labels)
    random.Random(f"table2:{seed}").shuffle(order)
    ops: List[Tuple[str, str]] = []
    for label in order:
        ops.append((label, "pre"))
        ops.extend((label, cell) for cell in CONFIGS)
    return ops


class _Checker:
    """Checks on round 0's live results, each run in a child process
    (:func:`in_child`) so that this process's peak RSS is the
    operations' alone; later rounds must repeat round 0's client
    metrics exactly.  Call-graph edges and interpreter traces pass
    between the children through files in ``directory``."""

    def __init__(self, programs, directory: str) -> None:
        self.programs = programs
        self.directory = directory
        self.metrics: Dict[Tuple[str, str], Dict] = {}
        self.violations: List[str] = []

    def _path(self, kind: str, label: str, config: str = "") -> str:
        return os.path.join(self.directory, f"{kind}-{label}-{config}.pkl")

    def _check_result(self, label: str, config: str, result,
                      more=lambda: []) -> None:
        name = f"{label}/{config}"
        program = self.programs[label]

        def check() -> List[str]:
            trace = checks.cached_trace(program, self._path("trace", label))
            edges = checks.result_edges(result)
            checks.dump(edges, self._path("edges", label, config))
            return (checks.soundness_violations(name, trace, result)
                    + checks.edge_subset_violations(
                        f"{name} ⊆ CHA", edges, checks.cha_edges(program))
                    + more())

        try:
            self.violations += in_child(check)
        except CheckError as exc:
            self.violations.append(f"{name}: the checks did not run: {exc}")

    def after_pre(self, round_index: int, label: str, pre) -> None:
        if round_index or pre is None:
            return
        self._check_result(label, "ci", pre.result, lambda: (
            checks.merge_violations(f"{label}/merge", pre.fpg,
                                    pre.merge.mom)))

    def after_main(self, round_index: int, label: str, config: str,
                   run) -> None:
        if run is None or run.result is None:
            return
        metrics = {key: value for key, value in run.metrics().items()
                   if key not in ("main_seconds", "pre_seconds")}
        first = self.metrics.setdefault((label, config), metrics)
        if first != metrics:
            self.violations.append(
                f"{label}/{config}: round {round_index} client metrics "
                f"differ from round 0")
        if round_index == 0:
            self._check_result(label, config, run.result)

    def _edges(self, label: str, config: str):
        path = self._path("edges", label, config)
        return checks.load(path) if os.path.exists(path) else None

    def finish(self) -> List[str]:
        for label in self.programs:
            ci = self._edges(label, "ci")
            for config in CONFIGS:
                if config.startswith("M-"):
                    continue
                base = self._edges(label, config)
                merged = self._edges(label, f"M-{config}")
                if base is None or merged is None or ci is None:
                    continue
                self.violations += checks.edge_subset_violations(
                    f"{label}: {config} ⊆ M-{config}", base, merged)
                self.violations += checks.edge_subset_violations(
                    f"{label}: {config} ⊆ ci", base, ci)
        return self.violations


def _cell(program, config: str, pre):
    """One main cell: the solve and the paper's client metrics."""
    from repro.analysis.pipeline import run_analysis

    run = run_analysis(program, config, pre=pre)
    run.metrics()
    return run


def _run_round(programs, ops, round_index: int, log: RunLog,
               checker: _Checker) -> None:
    from repro.analysis.pipeline import run_pre_analysis

    pre = None
    for label, op in ops:
        program = programs[label]
        if op == "pre":
            pre = None  # the previous program's cells are done
            settle()
            pre, wall, cpu = attempt(lambda: run_pre_analysis(program))
            log.add(Op(round_index, (label, op), wall, cpu, hit=False,
                       mahjong=True, failed=pre is None))
            checker.after_pre(round_index, label, pre)
            settle()
            continue
        mahjong = op.startswith("M-")
        run, wall, cpu = attempt(
            lambda: _cell(program, op, pre if mahjong else None))
        log.add(Op(round_index, (label, op), wall, cpu, hit=mahjong,
                   mahjong=mahjong, failed=failed_run(run)))
        checker.after_main(round_index, label, op, run)
        del run
        settle()
    pre = None
    settle()


def setup(size: str, repeats: int = SETUP_REPEATS):
    """Generate the programs and run one untimed warm-up analysis;
    repeated ``repeats`` times, returning the last programs and every
    set-up time."""
    from repro.analysis.pipeline import run_analysis

    times = []
    programs = None
    for _ in range(repeats):
        programs = None
        settle()
        start = time.perf_counter()
        programs = make_programs(size)
        first = PROGRAMS[size][0][0]
        run_analysis(programs[first], "2type").metrics()
        times.append(time.perf_counter() - start)
    settle()
    return programs, times


def run(seed: int, seconds: float, size: str, hard_cap: float):
    """Untraced run: returns ``(log, peak RSS in MB, violations)``."""
    programs, setup_times = setup(size)
    log = RunLog(setup_seconds=setup_times)
    directory = work_dir("table2")
    try:
        checker = _Checker(programs, directory)
        deadline = Deadline(seconds, hard_cap)
        ops = schedule(seed, list(programs))
        round_index = 0
        while True:
            _run_round(programs, ops, round_index, log, checker)
            round_index += 1
            if deadline.reached(log):
                break
        peak = peak_rss_mb()
        violations = checker.finish()
    finally:
        remove_work_dir(directory)
    return log, peak, violations


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _add_perf(values: Dict[str, float], prefix: str, perf) -> float:
    """Fold one solve's recorder into ``values``; returns its solve
    seconds."""
    solve = perf.timers.get("pta.solve", 0.0)
    values[f"{prefix}.solve_s"] = values.get(f"{prefix}.solve_s", 0.0) + solve
    counters = ["iterations", "dispatch_attempts", "facts_propagated"]
    if prefix == "pta.main":
        counters += ["copy_edges", "scc_passes"]
    for name in counters:
        key = f"{prefix}.{name}"
        values[key] = values.get(key, 0) + perf.counters.get(f"pta.{name}", 0)
    if prefix == "pta.main":
        values["pta.main.nodes"] = (values.get("pta.main.nodes", 0)
                                    + int(perf.gauges.get("pta.nodes", 0)))
    return solve


def traced(seed: int, size: str):
    """Traced run: one untraced reference round, the same round with
    spans, perf recorders and the program's tracer, and the same round
    under the solver profiler.  Returns ``(log, values, spans,
    violations)``."""
    from repro import obs
    from repro.analysis.pipeline import run_analysis, run_pre_analysis
    from repro.clients import (analyze_exceptions, build_call_graph,
                               check_casts, devirtualize)
    from repro.perf import PerfRecorder

    programs, setup_times = setup(size)
    log = RunLog(setup_seconds=setup_times)
    ops = schedule(seed, list(programs))
    directory = work_dir("table2-traced")
    try:
        checker = _Checker(programs, directory)
        _run_round(programs, ops, 0, log, checker)
        violations = checker.finish()
    finally:
        remove_work_dir(directory)
    untraced = log.measured_seconds

    values: Dict[str, float] = {}
    spans = SpanRecorder()
    sink = obs.InMemorySink()
    tracer = obs.Tracer(sinks=(sink,))
    pre = None
    with spans.span("round", workload="table2", seed=seed):
        for label, op in ops:
            program = programs[label]
            if op == "pre":
                pre = None
                settle()
                perf = PerfRecorder()
                with spans.span("op", kind="pre", program=label):
                    pre = run_pre_analysis(program, perf=perf, tracer=tracer)
                _add_perf(values, "pta.pre", perf)
                values["core.automata.transition_computations"] = (
                    values.get("core.automata.transition_computations", 0)
                    + perf.counters.get("automata.transition_computations", 0))
                values["core.merging.objects_after"] = (
                    values.get("core.merging.objects_after", 0)
                    + pre.merge.object_count_after)
                settle()
                continue
            perf = PerfRecorder()
            mahjong = op.startswith("M-")
            with spans.span("op", kind="main", program=label, config=op):
                with spans.span("pipeline.run_analysis"):
                    run = run_analysis(program, op,
                                       pre=pre if mahjong else None,
                                       perf=perf, tracer=tracer)
                result = run.result
                with spans.span("clients.build_call_graph"):
                    graph = build_call_graph(result)
                with spans.span("clients.devirtualize"):
                    devirtualize(graph)
                with spans.span("clients.check_casts"):
                    check_casts(result)
                with spans.span("clients.analyze_exceptions"):
                    analyze_exceptions(result)
            solve = _add_perf(values, "pta.main", perf)
            key = f"pta.main.{op}.solve_s"
            values[key] = values.get(key, 0.0) + solve
            values["pta.main.method_contexts"] = (
                values.get("pta.main.method_contexts", 0)
                + result.total_context_count())
            del run, result, graph
            settle()
    pre = None
    tracer.close()
    values["core.fpg.build_s"] = program_span_total(sink, "phase:fpg")
    values["core.merging.merge_s"] = program_span_total(sink, "phase:merge")
    values["clients.callgraph_s"] = spans.total("clients.build_call_graph")
    values["clients.casts_s"] = spans.total("clients.check_casts")
    values["clients.exceptions_s"] = spans.total("clients.analyze_exceptions")
    values["trace.traced_s"] = spans.total("op")
    values["trace.untraced_s"] = untraced
    settle()

    profile = SolverProfile()
    with spans.span("profiled-round", workload="table2"):
        for label, op in ops:
            program = programs[label]
            with spans.span("op", kind=op, program=label, profiled=True):
                if op == "pre":
                    pre = None
                    settle()
                    with profile.profiling():
                        pre = run_pre_analysis(program)
                    continue
                with profile.profiling():
                    run = run_analysis(
                        program, op, pre=pre if op.startswith("M-") else None)
                run.metrics()
                del run
                settle()
    pre = None
    values.update(profile.layer_metrics())
    return log, values, spans, violations
