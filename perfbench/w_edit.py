"""Workload ``edit-replay``: an IDE-style stream of single-method edits.

A round replays a fixed list of single-method edits of one base
program (:func:`pick_editable_method` picks the method,
:func:`perturb_method` applies one of add-alloc, add-copy or
drop-stmt).  Each edited program is re-analysed through
:meth:`IncrementalSession.update` under three configurations: ``ci``
and ``2obj`` take the warm-start path from the base program's result,
``M-2obj`` is solved cold and writes fresh FPG/merge artifacts to the
shared :class:`ArtifactCache` (emptied at the start of every round, so
every edit writes).  Every edit starts from the base, as an edit that
is undone before the next one, so rounds repeat exactly.  The seed
orders the edits of each round.  No client metrics are computed.

A warm result whose digest differs from a cold solve of the same
program is a fault of the warm-start engine (see ``CHANGES.md``).  The
updates listed in :data:`KNOWN_WARM_FAULTS` show it; they are counted
as failed operations, and because the edit list does not depend on the
seed, the same updates fail in every round.  Any other update whose
result differs from a cold solve makes the run incorrect.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Tuple

from perfbench import checks
from perfbench.common import (SETUP_REPEATS, CheckError, Deadline, Op,
                              RunLog, attempt, failed_run, in_child,
                              peak_rss_mb, remove_work_dir, settle, work_dir)
from perfbench.layers import (SolverProfile, SpanRecorder,
                              program_span_total, solve_spans)

#: the base program (profile, scale) and how many edits a round holds
BASE = {"full": ("luindex", 0.8), "smoke": ("luindex", 0.2)}
EDITS = {"full": 16, "smoke": 3}
CONFIGS = ("ci", "2obj", "M-2obj")
WARM_CONFIGS = ("ci", "2obj")
#: the (edit seed, configuration) warm updates whose result differs
#: from a cold solve of the same edited program, by size: both add an
#: allocation (to ``Factory176.create2`` and ``PolyModule177.poly3``),
#: and their results still contain every fact of the edited program's
#: interpreter trace.  Only these may fail, and only by a digest that
#: differs from the cold solve's.
KNOWN_WARM_FAULTS = {
    "full": frozenset({(14, "ci"), (14, "2obj"), (15, "ci"), (15, "2obj")}),
    "smoke": frozenset(),
}


def make_edits(base, count: int):
    """The round's edited programs: edit ``i`` perturbs the base with
    edit seed ``i``."""
    from repro.incr import perturb_method, pick_editable_method

    edits = []
    for index in range(count):
        qualname = pick_editable_method(base, seed=index, exclude_entry=True)
        edits.append(perturb_method(base, qualname, seed=index))
    return edits


def schedule(seed: int, edits: int) -> List[Tuple[int, str]]:
    """A round's updates: the edits in a seeded order (the same in every
    round of a run), each under the three configurations in a fixed
    order."""
    order = list(range(edits))
    random.Random(f"edit-replay:{seed}").shuffle(order)
    return [(index, config) for index in order for config in CONFIGS]


def _warm(run) -> bool:
    return bool(run is not None and run.incr
                and run.incr.get("mode") == "warm")


class _Stream:
    """The base program, its edits, and one session per configuration
    sharing one artifact cache."""

    def __init__(self, size: str, cache_dir: str) -> None:
        from repro.incr import ArtifactCache, IncrementalSession
        from repro.workloads import load_profile

        self.size = size
        self.base = load_profile(*BASE[size])
        self.edits = make_edits(self.base, EDITS[size])
        self.cache_dir = cache_dir
        self.cache = ArtifactCache(cache_dir)
        self.sessions = {
            config: IncrementalSession(self.base, config,
                                       artifact_cache=self.cache)
            for config in CONFIGS
        }
        self.base_runs: Dict[str, object] = {}

    def warm_up(self) -> None:
        """Cold-solve the base under every configuration (the warm
        starts' base results)."""
        for config, session in self.sessions.items():
            self.base_runs[config] = session.analyze()

    def new_round(self) -> None:
        for name in os.listdir(self.cache_dir):
            os.unlink(os.path.join(self.cache_dir, name))

    def update(self, index: int, config: str):
        """Re-analyse edit ``index`` from the base; returns
        ``(run, wall, cpu)``."""
        session = self.sessions[config]
        session.program = self.base
        session.run = self.base_runs[config]
        program = self.edits[index]
        return attempt(lambda: session.update(program))

    def release(self, config: str) -> None:
        session = self.sessions[config]
        session.program = self.base
        session.run = self.base_runs[config]


def _setup(size: str, repeats: int = SETUP_REPEATS):
    times = []
    stream = None
    directory = None
    for _ in range(repeats):
        stream = None
        if directory is not None:
            remove_work_dir(directory)
        settle()
        start = time.perf_counter()
        directory = work_dir("edit-replay")
        stream = _Stream(size, os.path.join(directory, "artifacts"))
        stream.warm_up()
        times.append(time.perf_counter() - start)
    settle()
    return stream, directory, times


class _Checker:
    """Checks every update's live result in a child process
    (:func:`in_child`), so that this process's peak RSS is the
    updates' alone: its digest, and in round 0 its soundness against
    the edited program's interpreter trace (kept in a file of
    ``directory``).  After the timed section every digest is compared
    with a cold solve of the same edited program, which also checks
    that later rounds repeat round 0."""

    def __init__(self, stream: _Stream, directory: str) -> None:
        self.stream = stream
        self.directory = directory
        self.known_faults = KNOWN_WARM_FAULTS[stream.size]
        #: (edit, config) -> (op, warm, digest) of every update
        self.updates: Dict[Tuple[int, str], List[Tuple[Op, bool, str]]] = {}
        self.violations: List[str] = []

    def after(self, round_index: int, index: int, config: str, run,
              op: Op) -> None:
        from repro.serve.protocol import result_digest

        if run is None or run.result is None:
            return
        name = f"edit {index}/{config}"
        result = run.result
        program = self.stream.edits[index]
        trace_path = os.path.join(self.directory, f"trace-{index}.pkl")

        def check():
            unsound: List[str] = []
            if round_index == 0:
                trace = checks.cached_trace(program, trace_path)
                unsound = checks.soundness_violations(name, trace, result)
            return result_digest(result), unsound

        try:
            digest, unsound = in_child(check)
        except CheckError as exc:
            self.violations.append(f"{name}: the checks did not run: {exc}")
            return
        self.violations += unsound
        self.updates.setdefault((index, config), []).append(
            (op, _warm(run), digest))

    def finish(self) -> List[str]:
        """Solve every edit cold and compare.  A listed warm update
        that differs is the known warm-start fault: its operations are
        marked failed.  Any other difference is a wrong answer."""
        from repro.analysis.pipeline import run_analysis
        from repro.serve.protocol import result_digest

        for key, updates in sorted(self.updates.items()):
            index, config = key
            cold = result_digest(
                run_analysis(self.stream.edits[index], config).result)
            for op, warm, digest in updates:
                if digest == cold:
                    continue
                if warm and key in self.known_faults:
                    op.failed = True
                else:
                    path = "warm" if warm else "cold-path"
                    self.violations.append(
                        f"edit {index}/{config}: round {op.round} {path} "
                        f"result differs from a cold run_analysis")
        return self.violations


def _run_round(stream: _Stream, ops, round_index: int, log: RunLog,
               checker: _Checker) -> None:
    stream.new_round()
    for index, config in ops:
        run_, wall, cpu = stream.update(index, config)
        op = Op(round_index, (index, config), wall, cpu, hit=_warm(run_),
                mahjong=config.startswith("M-"), failed=failed_run(run_))
        log.add(op)
        checker.after(round_index, index, config, run_, op)
        del run_
        stream.release(config)
        settle()


def run(seed: int, seconds: float, size: str, hard_cap: float):
    """Untraced run: returns ``(log, peak RSS in MB, violations)``."""
    stream, directory, setup_times = _setup(size)
    log = RunLog(setup_seconds=setup_times)
    deadline = Deadline(seconds, hard_cap)
    checker = _Checker(stream, directory)
    ops = schedule(seed, EDITS[size])
    try:
        round_index = 0
        while True:
            _run_round(stream, ops, round_index, log, checker)
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
def traced(seed: int, size: str):
    """Traced run: one untraced reference round, the same round with
    spans, perf recorders and the program's tracer, and the same round
    under the solver profiler."""
    from repro import obs
    from repro.incr import diff_programs, prepare_warm_start
    from repro.perf import PerfRecorder

    stream, directory, setup_times = _setup(size)
    log = RunLog(setup_seconds=setup_times)
    checker = _Checker(stream, directory)
    ops = schedule(seed, EDITS[size])
    values: Dict[str, float] = {}
    spans = SpanRecorder()
    sink = obs.InMemorySink()
    tracer = obs.Tracer(sinks=(sink,))

    def add(name: str, amount) -> None:
        values[name] = values.get(name, 0) + amount

    try:
        _run_round(stream, ops, 0, log, checker)
        values["trace.untraced_s"] = log.measured_seconds

        stream.new_round()
        stores_before = stream.cache.stats()["stores"]
        with spans.span("round", workload="edit-replay", seed=seed):
            for index, config in ops:
                session = stream.sessions[config]
                perf = PerfRecorder()
                session.run_kwargs.update(perf=perf, tracer=tracer)
                program = stream.edits[index]
                with spans.span("op", kind="update", config=config,
                                edit=index):
                    if config in WARM_CONFIGS:
                        with spans.span("incr.diff_programs"):
                            delta = diff_programs(stream.base, program)
                        with spans.span("incr.prepare_warm_start"):
                            prepare_warm_start(
                                stream.base_runs[config].result, program,
                                delta)
                    with spans.span("incr.update"):
                        run_, _, _ = stream.update(index, config)
                session.run_kwargs.clear()
                add("incr.warm_updates" if _warm(run_)
                    else "incr.cold_updates", 1)
                if run_ is not None and run_.result is not None:
                    add("pta.main.method_contexts",
                        run_.result.total_context_count())
                if config in WARM_CONFIGS:
                    # no pre-analysis on these: the recorder holds the
                    # main solve alone
                    for name in ("dispatch_attempts", "copy_edges",
                                 "scc_passes"):
                        add(f"pta.main.{name}",
                            perf.counters.get(f"pta.{name}", 0))
                    add("pta.main.nodes", int(perf.gauges.get("pta.nodes", 0)))
                    if _warm(run_):
                        add("pta.warm.iterations",
                            perf.counters.get("pta.iterations", 0))
                        add("pta.warm.facts_propagated",
                            perf.counters.get("pta.facts_propagated", 0))
                del run_
                stream.release(config)
                settle()
        tracer.close()
        values["incr.artifact_stores"] = (stream.cache.stats()["stores"]
                                          - stores_before)
        for config, phase, seconds, iterations, facts in solve_spans(sink):
            prefix = "pta.pre" if phase == "pre" else "pta.main"
            add(f"{prefix}.solve_s", seconds)
            add(f"{prefix}.iterations", iterations)
            add(f"{prefix}.facts_propagated", facts)
            if phase != "pre" and config in ("2obj", "M-2obj"):
                add(f"pta.main.{config}.solve_s", seconds)
        values["core.fpg.build_s"] = program_span_total(sink, "phase:fpg")
        values["core.merging.merge_s"] = program_span_total(sink,
                                                            "phase:merge")
        values["incr.diff_s"] = spans.total("incr.diff_programs")
        values["incr.prepare_s"] = spans.total("incr.prepare_warm_start")
        # the update calls alone: the diff and prepare calls beside them
        # are the benchmark's own measurement
        values["trace.traced_s"] = spans.total("incr.update")
        settle()

        profile = SolverProfile()
        stream.new_round()
        with spans.span("profiled-round", workload="edit-replay"):
            for index, config in ops:
                with spans.span("op", kind="update", config=config,
                                profiled=True):
                    with profile.profiling():
                        run_, _, _ = stream.update(index, config)
                del run_
                stream.release(config)
                settle()
        values.update(profile.layer_metrics())
    finally:
        remove_work_dir(directory)
    return log, values, spans, checker.finish()
