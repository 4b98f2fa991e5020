"""Shared plumbing: paths, clocks, statistics and the result line.

Every workload records its timed operations into a :class:`RunLog`;
:func:`end_to_end_metrics` turns the log into the end-to-end metrics
that ``BENCHMARK.json`` lists, and :func:`result_line` prints the one
JSON object the benchmark ends with.
"""

from __future__ import annotations

import gc
import json
import math
import os
import pickle
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: scratch space for artifact caches and server files, removed per run
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: where traced runs leave their span files
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

#: how many times a run repeats its set-up to report a median ``setup_s``
SETUP_REPEATS = 7


def import_program() -> None:
    """Make ``repro`` importable from the checkout's ``src`` directory.

    Raises :class:`ImportError` when the checkout does not hold the
    program, so the benchmark fails instead of printing a result.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro  # noqa: F401


def work_dir(name: str) -> str:
    """A fresh per-process directory under :data:`WORK_ROOT`."""
    path = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_work_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:
        pass  # another run still uses it, or it was never created


def settle() -> None:
    """Run between operations, outside the clock: the previous result
    has been released by the caller; collect it now so its teardown is
    not charged to the next operation."""
    gc.collect()


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CheckError(RuntimeError):
    """A check could not run to its end."""


def in_child(fn):
    """Return ``fn()``, computed in a forked child process.

    The output checks of the in-process workloads run this way, so the
    memory they use is never part of this process's peak resident set
    (:func:`peak_rss_mb` counts this process alone), and nothing they
    compute stays behind to change the next operation's heap.  The
    value must pickle.  Raises :class:`CheckError` when ``fn`` raises
    or the child dies.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never returns
        try:
            os.close(read_fd)
            try:
                data = pickle.dumps(("ok", fn()))
            except BaseException as exc:  # noqa: BLE001 - sent back
                data = pickle.dumps(("error", f"{type(exc).__name__}: {exc}"))
            with os.fdopen(write_fd, "wb") as out:
                out.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as handle:
        data = handle.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise CheckError(f"check process ended with status {status}")
    outcome, value = pickle.loads(data)
    if outcome != "ok":
        raise CheckError(value)
    return value


# ----------------------------------------------------------------------
# The operation log
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One timed operation.

    Every round of a run repeats the same operations; ``key`` names the
    operation within its round, so its repeats can be compared.
    """

    round: int
    key: object
    wall: float
    cpu: float
    #: True when the operation reused a result an earlier operation
    #: computed (result-cache hit, warm start, shared pre-analysis)
    hit: bool
    #: True when the operation ran a MAHJONG configuration or its
    #: pre-analysis
    mahjong: bool
    failed: bool = False
    #: operations of a run that do the same work share a ``work`` (by
    #: default their ``key``): their repeats are pooled for the median
    work: object = None

    @property
    def same_work(self) -> object:
        return self.key if self.work is None else self.work


@dataclass
class RunLog:
    ops: List[Op] = field(default_factory=list)
    #: extra CPU charged to a round outside this process (the server)
    round_extra_cpu: Dict[int, float] = field(default_factory=dict)
    setup_seconds: List[float] = field(default_factory=list)
    #: rounds before this one only fill caches and are left out of the
    #: timing statistics (when the run has later rounds)
    steady_from: int = 0

    def add(self, op: Op) -> None:
        self.ops.append(op)

    @property
    def rounds(self) -> List[int]:
        return sorted({op.round for op in self.ops})

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failed)

    @property
    def measured_seconds(self) -> float:
        """Timed seconds of the steady rounds (the rounds before
        :attr:`steady_from` only fill caches)."""
        return sum(op.wall for op in self.ops if op.round >= self.steady_from)


def attempt(fn):
    """Call ``fn`` and return ``(value, wall seconds, cpu seconds)``.

    An exception is a failed operation: its value is ``None`` and the
    time it took still counts.
    """
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    try:
        value = fn()
    except Exception:  # noqa: BLE001 - counted as a failed operation
        value = None
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return value, wall, cpu


def failed_run(run) -> bool:
    """Whether an :class:`AnalysisRun` counts as a failed operation: an
    exception (no run), a timeout, or a degraded rung."""
    return (run is None or run.timed_out or run.result is None
            or run.degraded_from is not None)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def steady_ops(log: RunLog) -> List[Op]:
    """Every operation of the run's steady rounds (all rounds when the
    run has none after :attr:`RunLog.steady_from`)."""
    rounds = log.rounds
    first = log.steady_from if rounds and rounds[-1] >= log.steady_from else 0
    return [op for op in log.ops if op.round >= first]


def median_of_rounds(log: RunLog) -> List[Op]:
    """One round of operations, each at its median: the median
    wall-clock time (and, separately, the median CPU time) of the
    repeats of its work (:attr:`Op.same_work`) over the run's steady
    rounds.

    On a shared machine a repeat's time is the operation's cost times
    how much of the CPU the neighbours left it.  That share swings by
    tens of percent within a second, and the moments at which an
    operation runs at full speed are rare and come in some runs but not
    in others, so the fastest repeat varies from run to run more than
    the typical one: over five runs of table2 on a 2-vCPU VM, the sum of
    the fastest repeats spread 0.07 and their miss latency 0.22 of
    their medians, the sum of the median repeats 0.04 and 0.03.
    """
    steady = steady_ops(log)
    repeats: Dict[object, List[Op]] = {}
    first: Dict[object, Op] = {}
    for op in steady:
        repeats.setdefault(op.same_work, []).append(op)
        first.setdefault(op.key, op)
    medians = {work: (statistics.median(op.wall for op in ops),
                      statistics.median(op.cpu for op in ops))
               for work, ops in repeats.items()}
    return [replace(op, wall=medians[op.same_work][0],
                    cpu=medians[op.same_work][1])
            for op in first.values()]


def end_to_end_metrics(log: RunLog, peak_mb: float) -> Dict[str, Dict]:
    """The end-to-end metrics of one untraced run, over one round of
    operations at their median repeat (:func:`median_of_rounds`).

    ``wall_s``/``cpu_s`` are the round's summed operation time,
    ``mahjong_s``/``baseline_s`` its MAHJONG and non-MAHJONG parts;
    the medians are over the round's operations.  ``op_p90_ms`` alone
    is over every repeat of the steady rounds, so that at least a tenth
    of a hundred or more samples lies beyond it (a round holds 28–48
    operations).
    """
    ops = median_of_rounds(log)
    samples = [op.wall for op in steady_ops(log)]
    walls = [op.wall for op in ops]
    hits = [op.wall for op in ops if op.hit]
    misses = [op.wall for op in ops if not op.hit]
    extra = [cpu for r, cpu in log.round_extra_cpu.items()
             if r >= log.steady_from] or list(log.round_extra_cpu.values())
    wall = sum(walls)
    metrics = {
        "setup_s": (_median(log.setup_seconds), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (sum(op.cpu for op in ops) + _median(extra), "s"),
        "ops_per_s": (len(walls) / wall, "1/s"),
        "op_p50_ms": (_median(walls) * 1000.0, "ms"),
        "op_p90_ms": (percentile(samples, 0.9) * 1000.0, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "mahjong_s": (sum(op.wall for op in ops if op.mahjong), "s"),
        "baseline_s": (sum(op.wall for op in ops if not op.mahjong), "s"),
        "hit_p50_ms": (_median(hits) * 1000.0, "ms"),
        "miss_p50_ms": (_median(misses) * 1000.0, "ms"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def result_line(correct: bool, log: RunLog, metrics: Dict[str, Dict]) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }, sort_keys=True)


def layer_metrics(values: Dict[str, float], units: Dict[str, str],
                  names: Sequence[str]) -> Dict[str, Dict]:
    """Every per-layer metric in ``names``; a layer the workload does
    not reach reads 0."""
    return {name: {"value": values.get(name, 0), "unit": units[name]}
            for name in names}


class Deadline:
    """Stops a run once its timed operations have summed to ``seconds``.

    Only clocked time counts, so checks done between operations do not
    shorten the measurement; a hard wall-clock cap keeps every run
    inside its exit budget.
    """

    def __init__(self, seconds: float, hard_cap: Optional[float] = None):
        self.seconds = seconds
        self.started = time.monotonic()
        self.hard_cap = hard_cap

    def reached(self, log: RunLog) -> bool:
        if log.measured_seconds >= self.seconds:
            return True
        return (self.hard_cap is not None
                and time.monotonic() - self.started >= self.hard_cap)
