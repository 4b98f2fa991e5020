"""Workload ``serve-zipf``: one closed-loop client against ``repro serve``.

The benchmark boots the daemon as a subprocess with a resident-result
cache smaller than the key space and a shared ``--artifact-cache-dir``,
then sends ``analyze`` and ``query`` requests over one keep-alive
loopback connection, each after the previous reply.  Programs travel as
``source`` text.  The key space is every (program, configuration)
pair; a round holds a fixed Zipf-proportioned multiset of keys and of
request kinds, shuffled by the seed, so hot keys hit the cache and the
tail misses it.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import checks
from perfbench.common import (ROOT, SETUP_REPEATS, SRC, Deadline, Op, RunLog,
                              remove_work_dir, settle, work_dir)
from perfbench.layers import SpanRecorder

#: (label, profile, scale) of the served programs, scaled to source
#: texts of about 20 KB each so a hit costs about the same whichever
#: program it serves
PROGRAMS = {
    "full": (("luindex", "luindex", 0.3), ("antlr", "antlr", 0.12),
             ("fop", "fop", 0.14), ("pmd", "pmd", 0.1)),
    "smoke": (("luindex", "luindex", 0.15), ("pmd", "pmd", 0.1)),
}
#: configurations whose solves cost about the same at these sizes, so a
#: miss costs about the same whichever key it is
CONFIGS = ("ci", "2type", "M-2obj", "M-2type")
#: resident-result cache capacity, below the key-space size
CACHE_SIZE = {"full": 8, "smoke": 3}
ZIPF_EXPONENT = 1.2
ROUND_REQUESTS = {"full": 40, "smoke": 12}
#: request kinds in a round, as shares of ``ROUND_REQUESTS``
KIND_SHARES = (("analyze", 0.5), ("casts", 0.5))
_BOOT_TIMEOUT = 60.0


def key_space(size: str, seed: int) -> List[Tuple[str, str]]:
    """Every (program, configuration) key, in the seed's popularity
    order (rank 1 first): a fixed order of the keys whose programs the
    seed permutes, so each rank keeps its configuration."""
    labels = [label for label, _, _ in PROGRAMS[size]]
    keys = [(label, config) for label in labels for config in CONFIGS]
    random.Random("serve-zipf:keys").shuffle(keys)
    permuted = list(labels)
    random.Random(f"serve-zipf:programs:{seed}").shuffle(permuted)
    relabel = dict(zip(labels, permuted))
    return [(relabel[label], config) for label, config in keys]


def _apportion(total: int, weights: List[float]) -> List[int]:
    """Largest-remainder rounding of ``weights`` to counts summing to
    ``total``."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(weights)), key=lambda i: exact[i] - counts[i],
                   reverse=True)
    for i in order[:total - sum(counts)]:
        counts[i] += 1
    return counts


def round_requests(size: str,
                   seed: int) -> List[Tuple[Tuple[str, str], str]]:
    """A round's ``(key, kind)`` requests.

    The sequence of popularity ranks is a fixed shuffle of
    Zipf-proportioned counts; the seed decides which program holds
    which rank (:func:`key_space`) and which requests are queries.  The
    cache's hits and misses depend only on the rank sequence, so every
    seed sees the same hit pattern over a different assignment of
    programs.
    Every round of a run sends the same sequence, so from the second
    round on the cache holds the same entries at the same point of
    every round.
    """
    keys = key_space(size, seed)
    total = ROUND_REQUESTS[size]
    counts = _apportion(total, [1.0 / (rank ** ZIPF_EXPONENT)
                                for rank in range(1, len(keys) + 1)])
    ranks = [rank for rank, count in enumerate(counts) for _ in range(count)]
    random.Random("serve-zipf:ranks").shuffle(ranks)
    kind_counts = _apportion(total, [share for _, share in KIND_SHARES])
    kinds = [kind for (kind, _), count in zip(KIND_SHARES, kind_counts)
             for _ in range(count)]
    random.Random(f"serve-zipf:kinds:{seed}").shuffle(kinds)
    return [(keys[rank], kind) for rank, kind in zip(ranks, kinds)]


def make_sources(size: str) -> Dict[str, str]:
    from repro.ir.printer import print_program
    from repro.workloads import load_profile

    return {label: print_program(load_profile(name, scale))
            for label, name, scale in PROGRAMS[size]}


# ----------------------------------------------------------------------
# The daemon and the client
# ----------------------------------------------------------------------
class Daemon:
    """A ``repro serve`` subprocess and one keep-alive connection."""

    def __init__(self, size: str, directory: str,
                 trace_dir: Optional[str] = None) -> None:
        args = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--cache-size", str(CACHE_SIZE[size]),
                "--artifact-cache-dir", os.path.join(directory, "artifacts")]
        if trace_dir is not None:
            args += ["--trace-dir", trace_dir]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(args, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        self.conn: Optional[http.client.HTTPConnection] = None
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        _BOOT_TIMEOUT)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on http://" not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
            host, port = line.strip().rsplit("/", 1)[-1].split(":")
            self.conn = http.client.HTTPConnection(host, int(port),
                                                   timeout=120)
        except BaseException:
            self.stop()
            raise

    def call(self, method: str, path: str,
             body: Optional[Dict] = None) -> Tuple[int, Dict]:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        self.conn.request(method, path, body=data, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))

    def cpu_seconds(self) -> float:
        """The daemon's user + system CPU so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> Optional[int]:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode


def request_body(source: str, config: str, kind: str,
                 trace: bool = False) -> Tuple[str, Dict]:
    body: Dict = {"program": {"kind": "source", "text": source},
                  "config": config}
    if trace:
        body["trace"] = True
    if kind == "analyze":
        return "/v1/analyze", body
    body["query"] = {"kind": kind}
    return "/v1/query", body


@dataclass
class _Served:
    """What the client saw, for the checks."""

    digests: Dict[Tuple[str, str], set] = field(default_factory=dict)
    answers: Dict[Tuple[str, str, str], set] = field(default_factory=dict)
    #: per analyze response: client latency minus analysis.seconds
    overheads: List[float] = field(default_factory=list)
    #: per request: (key, kind, hit)
    requests: List[Tuple[Tuple[str, str], str, bool]] = field(
        default_factory=list)

    def record(self, key, kind: str, status: int, body: Dict,
               wall: float) -> bool:
        """Record one response; returns whether it failed."""
        if status != 200 or not body.get("ok"):
            return True
        self.requests.append((key, kind, bool(body.get("cached"))))
        if kind == "analyze":
            analysis = body["analysis"]
            self.digests.setdefault(key, set()).add(
                analysis["result"]["digest"])
            self.overheads.append(wall - float(analysis["seconds"]))
            return analysis["status"] != "ok"
        self.answers.setdefault((key[0], key[1], kind), set()).add(
            json.dumps(body["answer"], sort_keys=True))
        return False


def _run_round(daemon: Daemon, sources: Dict[str, str], size: str, seed: int,
               round_index: int, log: RunLog, served: _Served,
               trace: bool = False) -> None:
    cpu_before = daemon.cpu_seconds()
    for position, (key, kind) in enumerate(round_requests(size, seed)):
        label, config = key
        path, body = request_body(sources[label], config, kind, trace)
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            status, reply = daemon.call("POST", path, body)
        except (OSError, http.client.HTTPException, ValueError):
            status, reply = 0, {}
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        failed = served.record(key, kind, status, reply, wall)
        hit = bool(reply.get("cached"))
        # a request's work is its key, kind and whether it hits
        log.add(Op(round_index, position, wall, cpu, hit=hit,
                   mahjong=config.startswith("M-"), failed=failed,
                   work=(key, kind, hit)))
        del reply, body
    log.round_extra_cpu[round_index] = daemon.cpu_seconds() - cpu_before
    settle()


def _boot(size: str, directory: str, trace_dir: Optional[str] = None):
    """Boot a daemon and send one untimed warm-up request (a corpus
    program outside the key space)."""
    daemon = Daemon(size, directory, trace_dir)
    try:
        status, body = daemon.call("POST", "/v1/analyze", {
            "program": {"kind": "corpus", "name": "cache"}, "config": "ci"})
        if status != 200 or not body.get("ok"):
            raise RuntimeError(f"warm-up request failed: {status} {body}")
    except BaseException:
        daemon.stop()
        raise
    return daemon


def _setup(size: str, directory: str, repeats: int = SETUP_REPEATS):
    """Generate the source texts, boot the daemon and warm it up;
    repeated ``repeats`` times, keeping the last daemon."""
    times = []
    daemon = None
    sources = None
    for attempt_index in range(repeats):
        if daemon is not None:
            daemon.stop()
            daemon = None
        settle()
        start = time.perf_counter()
        sources = make_sources(size)
        daemon = _boot(size, os.path.join(directory, f"setup{attempt_index}"))
        times.append(time.perf_counter() - start)
    return daemon, sources, times


def run(seed: int, seconds: float, size: str, hard_cap: float):
    """Untraced run: returns ``(log, daemon peak RSS in MB,
    violations)``."""
    directory = work_dir("serve-zipf")
    daemon = None
    violations: List[str] = []
    try:
        daemon, sources, setup_times = _setup(size, directory)
        log = RunLog(setup_seconds=setup_times, steady_from=1)
        served = _Served()
        deadline = Deadline(seconds, hard_cap)
        round_index = 0
        while True:
            _run_round(daemon, sources, size, seed, round_index, log, served)
            round_index += 1
            if deadline.reached(log):
                break
        peak = daemon.peak_rss_mb()
        code = daemon.stop()
        daemon = None
        if code != 0:
            violations.append(f"repro serve exited {code} on SIGTERM")
    finally:
        if daemon is not None:
            daemon.stop()
        remove_work_dir(directory)
    violations += check_served(sources, served)
    return log, peak, violations


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _direct(sources: Dict[str, str], keys):
    """Yield ``(key, program, run)``: a direct ``run_analysis`` of every
    key's program, parsed from the same text, one at a time to bound
    memory."""
    from repro.analysis.pipeline import run_analysis
    from repro.frontend import parse_program

    programs = {label: parse_program(text) for label, text in sources.items()}
    for key in keys:
        label, config = key
        yield key, programs[label], run_analysis(programs[label], config)


def _casts_answer(result) -> str:
    """The ``casts`` query answer, computed by the client directly."""
    from repro.clients import check_casts

    report = check_casts(result)
    return json.dumps({"may_fail": report.may_fail_count,
                       "safe": report.safe_count}, sort_keys=True)


def check_served(sources: Dict[str, str], served: _Served) -> List[str]:
    """Every served digest and query answer must equal a direct
    analysis of the same program × configuration, and every direct
    result must pass the soundness and call-graph checks."""
    from repro.interp import interpret
    from repro.serve.protocol import result_digest

    violations: List[str] = []
    keys = sorted({key for key, _, _ in served.requests})
    traces: Dict[str, object] = {}
    cha: Dict[str, set] = {}
    edges: Dict[Tuple[str, str], set] = {}
    for key, program, run in _direct(sources, keys):
        label, config = key
        name = f"{label}/{config}"
        result = run.result
        expected = result_digest(result)
        for digest in sorted(served.digests.get(key, ())):
            violations += checks.digest_violations(
                "served ≡ direct", {name: digest}, {name: expected})
        answers = served.answers.get((label, config, "casts"), set())
        if answers:
            expected_answer = _casts_answer(result)
            for answer in sorted(answers):
                violations += checks.answer_violations(
                    "served ≡ direct", {f"{name}/casts": answer},
                    {f"{name}/casts": expected_answer})
        if label not in traces:
            traces[label] = interpret(program, max_steps=checks.INTERP_STEPS)
            cha[label] = checks.cha_edges(program)
        violations += checks.soundness_violations(name, traces[label], result)
        edges[key] = checks.result_edges(result)
        violations += checks.edge_subset_violations(
            f"{name} ⊆ CHA", edges[key], cha[label])
        del run, result
    for (label, config), base in sorted(edges.items()):
        if config == "2type":
            merged = edges.get((label, "M-2type"))
            if merged is not None:
                violations += checks.edge_subset_violations(
                    f"{label}: 2type ⊆ M-2type", base, merged)
        if config != "ci" and (label, "ci") in edges:
            violations += checks.edge_subset_violations(
                f"{label}: {config} ⊆ ci", base, edges[(label, "ci")])
    return violations


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def _chrome_solves(path: str):
    """The configuration of one request's Chrome trace, ``(phase,
    seconds, iterations, facts)`` of each solve in it, and its FPG and
    merge phase seconds."""
    with open(path, encoding="utf-8") as handle:
        events = json.load(handle)
    if isinstance(events, dict):
        events = events.get("traceEvents", [])
    solves = []
    phases = {"phase:fpg": 0.0, "phase:merge": 0.0}
    windows = []
    config = None
    for event in events:
        if event.get("ph") != "X":
            continue
        name = event.get("name")
        seconds = float(event.get("dur", 0)) / 1e6
        args = event.get("args", {})
        if name == "analysis":
            config = args.get("analysis")
        elif name == "solve":
            start = float(event["ts"])
            solves.append([args.get("phase"), seconds,
                           int(args.get("iterations", 0)), 0,
                           start, start + float(event["dur"])])
        elif name == "stride":
            windows.append((float(event["ts"]), int(args.get("facts", 0))))
        elif name in phases:
            phases[name] += seconds
    for ts, facts in windows:
        for solve in solves:
            if solve[4] <= ts <= solve[5]:
                solve[3] += facts
                break
    return config, [tuple(s[:4]) for s in solves], phases


def traced(seed: int, size: str):
    """Traced run: one untraced reference round on a fresh daemon, the
    same round on a second fresh daemon with per-request program traces,
    and the parse and digest costs of that round measured in-process on
    the same texts and results."""
    from repro.frontend import parse_program
    from repro.serve.protocol import result_digest

    directory = work_dir("serve-zipf-traced")
    values: Dict[str, float] = {}
    spans = SpanRecorder()
    daemon = None
    try:
        daemon, sources, setup_times = _setup(size, directory)
        log = RunLog(setup_seconds=setup_times)
        reference = _Served()
        with spans.span("reference-round", workload="serve-zipf"):
            _run_round(daemon, sources, size, seed, 0, log, reference)
        daemon.stop()
        values["trace.untraced_s"] = log.measured_seconds
        values["serve.overhead_p50_ms"] = (
            sorted(reference.overheads)[len(reference.overheads) // 2] * 1000.0
            if reference.overheads else 0.0)

        trace_dir = os.path.join(directory, "traces")
        daemon = _boot(size, os.path.join(directory, "traced"), trace_dir)
        _, before = daemon.call("GET", "/v1/stats")
        traced_log = RunLog()
        served = _Served()
        with spans.span("round", workload="serve-zipf", seed=seed):
            _run_round(daemon, sources, size, seed, 0, traced_log, served,
                       trace=True)
        _, after = daemon.call("GET", "/v1/stats")
        daemon.stop()
        daemon = None
        values["trace.traced_s"] = traced_log.measured_seconds
        for name in ("hits", "misses", "evictions"):
            values[f"serve.result_cache.{name}"] = (
                after["cache"][name] - before["cache"][name])
        for name in ("hits", "misses"):
            values[f"serve.artifacts.{name}"] = (
                after["artifacts"][name] - before["artifacts"][name])
        for name in sorted(os.listdir(trace_dir)):
            config, solves, phases = _chrome_solves(
                os.path.join(trace_dir, name))
            for phase, seconds, iterations, facts in solves:
                prefix = "pta.pre" if phase == "pre" else "pta.main"
                for metric, amount in (("solve_s", seconds),
                                       ("iterations", iterations),
                                       ("facts_propagated", facts)):
                    values[f"{prefix}.{metric}"] = (
                        values.get(f"{prefix}.{metric}", 0) + amount)
                if phase != "pre" and config in ("M-2obj", "2type", "M-2type"):
                    name = f"pta.main.{config}.solve_s"
                    values[name] = values.get(name, 0.0) + seconds
            values["core.fpg.build_s"] = (values.get("core.fpg.build_s", 0.0)
                                          + phases["phase:fpg"])
            values["core.merging.merge_s"] = (
                values.get("core.merging.merge_s", 0.0)
                + phases["phase:merge"])

        # the texts' parse cost: once per request for the cache key,
        # once more on a miss
        parse_seconds: Dict[str, float] = {}
        for label, text in sources.items():
            with spans.span("frontend.parse_program", program=label):
                start = time.perf_counter()
                parse_program(text)
                parse_seconds[label] = time.perf_counter() - start
        digest_seconds: Dict[Tuple[str, str], float] = {}
        for key, _, run in _direct(sources,
                                   sorted({k for k, _, _ in served.requests})):
            with spans.span("serve.result_digest", key="/".join(key)):
                start = time.perf_counter()
                result_digest(run.result)
                digest_seconds[key] = time.perf_counter() - start
            del run
        values["frontend.parse_s"] = sum(
            parse_seconds[key[0]] * (1 if hit else 2)
            for key, _, hit in served.requests)
        values["serve.digest_s"] = sum(digest_seconds[key]
                                       for key, _, _ in served.requests)
        violations = check_served(sources, reference)
    finally:
        if daemon is not None:
            daemon.stop()
        remove_work_dir(directory)
    return log, values, spans, violations
