"""Timed loops, correctness checks and tracing for the benchmark.

This module imports :mod:`permlcp`; ``run.py`` puts the checkout's ``src``
on the path first.  Everything is timed from outside, around calls into
public functions, by one closed-loop client in one process; CLI calls are
subprocesses run one after another.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import workloads as W
from permlcp import decomposition
from permlcp import (
    DpTable,
    decomposition_tree,
    expand_tree,
    lcp,
    lcp_plan,
    normalize,
    parse_permutation,
    tree_to_dict,
    tree_to_dot,
    tree_to_permutation,
    tree_to_text,
)
from permlcp.oracle import MAX_ORACLE_SIZE, oracle_lcp

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
OUT = BENCH / "out"

CLI = [sys.executable, "-c", "from permlcp.cli import entry; entry()"]
SETUP = [sys.executable, "-c", "import permlcp.cli"]
# A timed run makes round(seconds / CYCLE_SECONDS) cycles of eight passes
# over its pool, at least one; the pools are sized so that a cycle takes
# about CYCLE_SECONDS with the seed code on a 2-core x86-64 box.  After
# every pass come one round of CLI calls and SETUP_PER_PASS interpreter
# starts, so that each metric samples the whole run rather than one stretch
# of it: the speed of a shared machine drifts by +-15% over seconds.
CYCLE_SECONDS = 20.0
SETUP_PER_PASS = 2
TRACE_ROUNDS = 2
# The host's speed jumps between levels up to 2x apart every few seconds,
# separately on each CPU, so runs of one program minutes apart disagree
# however long each is.  A timed run therefore pins itself, and so the CLI
# subprocesses it starts, to one CPU (``pin_to_one_cpu``), and it times a
# fixed pure-Python kernel (``Pace``) between operations: each operation's
# wall time is multiplied by (PACE_REF_S / k) ** PACE_EXPONENT, where k is
# the mean kernel time just before and just after it.  The end-to-end times
# are thus "reference-pace" times: the wall time on a CPU that runs the
# kernel in PACE_REF_S, about its median on the 2-core x86-64 machine the
# benchmark was tuned on.  The exponent is below 1 because the program's
# time swings less than the kernel's: over a minute of one fixed query,
# log(query time) against log(kernel time) had slope 0.79-0.87, and on five
# seeds per workload the exponent 0.8 gave smaller run-to-run spreads than
# 1 or 0.5-0.7 on most metrics.  The notes also give the unscaled wall times.
PACE_REF_S = 1.3e-3
PACE_EXPONENT = 0.8
PACE_REPS = 3

# Layers whose self times the traced run reports, in pipeline order.
LAYERS = (
    "perms.parse",
    "decomposition.tree",
    "decomposition.expand",
    "decomposition.export",
    "lcp.plan_self",
    "lcp.table_init",
    "lcp.fill",
    "lcp.reconstruct",
)


class CheckFailed(Exception):
    """An operation finished but its output is wrong."""


# -- inputs ------------------------------------------------------------------


def load_reference(workload: str, pool) -> list:
    ref = json.loads(REFERENCE.read_text())[workload]
    if ref["digest"] != W.pool_digest(pool):
        raise SystemExit(
            f"error: {REFERENCE.name} does not match the {workload} pool; "
            "regenerate it with run.py --record"
        )
    return ref["expected"]


def schedule(pool_size: int, rng: random.Random, cycles: int):
    """Passes of (pool index, symmetry) pairs for a timed run.

    Each cycle is eight passes in which every query meets each of the eight
    symmetries once.  The seed orders the queries within a pass and the
    symmetries across passes, so different seeds hand the program different
    sequences of inputs while the work per cycle stays the same.
    """
    passes = []
    for _ in range(cycles):
        syms = [rng.sample(range(8), 8) for _ in range(pool_size)]
        for p in range(8):
            order = rng.sample(range(pool_size), pool_size)
            passes.append([(qi, syms[qi][p]) for qi in order])
    return passes


def query_inputs(pool, qi: int, sym: int):
    perms = tuple(W.symmetry(p, sym) for p in pool[qi]["inputs"])
    return perms, tuple(" ".join(map(str, p)) for p in perms)


# -- checks (never timed) ----------------------------------------------------


def check_witness(host, pattern, positions) -> None:
    """``positions`` (1-based, increasing) pick out ``pattern`` in ``host``."""
    positions = list(positions)
    if len(positions) != len(pattern) or positions != sorted(set(positions)):
        raise CheckFailed("witness has the wrong size or is not increasing")
    if positions and not 1 <= positions[0] <= positions[-1] <= len(host):
        raise CheckFailed("witness leaves its host")
    if normalize([host[p - 1] for p in positions]).values != tuple(pattern):
        raise CheckFailed("witness positions do not spell the pattern")


def check_lcp(perms, expected: dict, outcome) -> None:
    pattern, occ_sigma, occ_tau = outcome
    if len(pattern) != expected["length"]:
        raise CheckFailed(f"length {len(pattern)}, reference {expected['length']}")
    check_witness(perms[0], pattern.values, occ_sigma.positions)
    check_witness(perms[1], pattern.values, occ_tau.positions)


def check_traced_lcp(perms, expected: dict, outcome, untraced) -> None:
    if outcome != untraced:
        raise CheckFailed("traced path returns something other than lcp()")
    check_lcp(perms, expected, outcome)


def check_tree(perms, expected: dict, outcome, untraced=None) -> None:
    host = perms[0]
    tree, expanded = outcome
    if tree_to_permutation(tree).values != host:
        raise CheckFailed("labeled tree does not rebuild its host")
    if tree_to_permutation(expanded).values != host:
        raise CheckFailed("expanded tree does not rebuild its host")


# -- untraced operations -----------------------------------------------------


def run_lcp(texts):
    result = lcp(parse_permutation(texts[0]), parse_permutation(texts[1]))
    return result.pattern, result.occ_sigma, result.occ_tau


def export(tree, expanded) -> None:
    tree_to_dict(tree)
    tree_to_text(tree)
    tree_to_dot(expanded)


def run_tree(texts):
    tree = decomposition_tree(parse_permutation(texts[0]))
    expanded = expand_tree(tree)
    export(tree, expanded)
    return tree, expanded


# -- tracing -----------------------------------------------------------------


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, query id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.qid = -1

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None, self._open[-1] if self._open else None, self.qid]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the part its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[k]
        return out

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _, _ in self.spans if n == name)


def cell_counts(table) -> dict[str, int] | None:
    """Cells materialized per node kind, read from the table's memo.

    All leaves share one memo, so each memo is counted once.  Returns None
    when the memo no longer has the shape this reads (node -> dict).
    """
    memos = getattr(table, "_tables", None)
    if not isinstance(memos, dict):
        return None
    counts = {"leaf": 0, "linear": 0, "prime": 0}
    seen: set[int] = set()
    for node, memo in memos.items():
        kind = getattr(node, "kind", None)
        if kind not in counts or not isinstance(memo, dict):
            return None
        if id(memo) not in seen:
            seen.add(id(memo))
            counts[kind] += len(memo)
    return counts


def tree_depth(tree) -> int:
    depth = 0
    stack = [(tree.root, 0)]
    while stack:
        node, d = stack.pop()
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in node.children)
    return depth


class IntervalCounter:
    """Counts the common intervals that permlcp.decomposition enumerates.

    While entered, it wraps the module's ``common_intervals`` and adds the
    size of each result to ``total``.  ``present`` is False when the module
    no longer has that function; the count is then reported as absent.
    """

    def __init__(self) -> None:
        self.total = 0
        self.original = getattr(decomposition, "common_intervals", None)
        self.present = callable(self.original)

    def _counted(self, sigma):
        spans = self.original(sigma)
        self.total += len(spans)
        return spans

    def __enter__(self):
        if self.present:
            decomposition.common_intervals = self._counted
        return self

    def __exit__(self, *exc) -> None:
        if self.present:
            decomposition.common_intervals = self.original


def traced_lcp(tracer: Tracer, intervals: IntervalCounter, texts, stats: dict):
    """lcp() split into its public steps, each step in its own span.

    The two trees and the expansion are built by separate calls so that
    lcp_plan's own work is its span minus theirs.  The cell count is taken
    in a span of its own, which is trace overhead, and the table is freed
    inside the query span, as lcp() frees its own before it returns.
    """
    with tracer.span("query"):
        with tracer.span("perms.parse"):
            sigma = parse_permutation(texts[0])
            tau = parse_permutation(texts[1])
        before = intervals.total
        with tracer.span("decomposition.tree"):
            trees = (decomposition_tree(sigma), decomposition_tree(tau))
        stats["intervals"] += intervals.total - before
        with tracer.span("lcp.plan"):
            plan = lcp_plan(sigma, tau)
        guide = 0 if plan.guided_by == "sigma" else 1
        with tracer.span("decomposition.expand"):
            expand_tree(trees[guide])
        target = tau if guide == 0 else sigma
        with tracer.span("lcp.table_init"):
            table = DpTable(plan.tree, target)
        with tracer.span("lcp.fill"):
            table.root_cell()
        with tracer.span("lcp.reconstruct"):
            pattern, occ_guide, occ_target = table.reconstruct()
        with tracer.span("trace.count"):
            counts = cell_counts(table)
        del table
    stats["depth"] = max(stats["depth"], *(tree_depth(t) for t in trees))
    if sigma.n != tau.n and (sigma, tau)[guide].n < target.n:
        stats["guided_by_shorter"] += 1
    if counts is None:
        stats["cells"] = None
    elif stats["cells"] is not None:
        for kind, c in counts.items():
            stats["cells"][kind] += c
    occs = (occ_guide, occ_target) if guide == 0 else (occ_target, occ_guide)
    return pattern, occs[0], occs[1]


def traced_tree(tracer: Tracer, intervals: IntervalCounter, texts, stats: dict):
    with tracer.span("query"):
        with tracer.span("perms.parse"):
            host = parse_permutation(texts[0])
        before = intervals.total
        try:
            with tracer.span("decomposition.tree"):
                tree = decomposition_tree(host)
        finally:
            stats["intervals"] += intervals.total - before
        with tracer.span("decomposition.expand"):
            expanded = expand_tree(tree)
        with tracer.span("decomposition.export"):
            export(tree, expanded)
    stats["depth"] = max(stats["depth"], tree_depth(tree))
    return tree, expanded


# -- subprocess probes -------------------------------------------------------


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_call(argv, env) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    return time.perf_counter() - start, proc


def time_setup(env) -> float:
    """Wall time of a fresh interpreter that imports permlcp.cli and exits."""
    elapsed, proc = timed_call(SETUP, env)
    if proc.returncode != 0:
        raise SystemExit(f"error: importing permlcp.cli failed:\n{proc.stderr}")
    return elapsed


def cli_calls(pool, expected):
    """(argv tail, checker) for each CLI call the pool asks for, in pool order."""
    calls = []
    for qi, query in enumerate(pool):
        perms = query["inputs"]
        texts = [" ".join(map(str, p)) for p in perms]
        for command in query.get("cli", ()):
            if command == "lcp":
                calls.append((["lcp", *texts, "-o", "json"], _lcp_cli_checker(perms, expected[qi])))
            elif command == "tree":
                calls.append((["tree", texts[0], "--format", "json"], _tree_cli_checker(perms[0])))
            else:
                want = 0 if expected[qi]["separable"] else 1
                calls.append((["check", texts[0], "--separable", "-o", "json"], _check_cli_checker(want)))
    return calls


def _lcp_cli_checker(perms, expected):
    def check(proc):
        if proc.returncode != 0:
            raise CheckFailed(f"lcp exited {proc.returncode}")
        out = json.loads(proc.stdout)
        if out["length"] != expected["length"] or len(out["pattern"]) != out["length"]:
            raise CheckFailed(f"lcp length {out['length']}, reference {expected['length']}")
        check_witness(perms[0], out["pattern"], out["occ_sigma"])
        check_witness(perms[1], out["pattern"], out["occ_tau"])

    return check


def _tree_cli_checker(host):
    def check(proc):
        if proc.returncode != 0:
            raise CheckFailed(f"tree exited {proc.returncode}")
        out = json.loads(proc.stdout)
        if out["size"] != len(host) or out["root"]["span"] != [1, len(host)]:
            raise CheckFailed("tree output does not cover its host")

    return check


def _check_cli_checker(want: int):
    def check(proc):
        if proc.returncode != want:
            raise CheckFailed(f"check --separable exited {proc.returncode}, expected {want}")
        if json.loads(proc.stdout)["value"] != (want == 0):
            raise CheckFailed("check --separable printed the wrong value")

    return check


# -- host pace ---------------------------------------------------------------


def pace_kernel() -> int:
    """Fill a tuple-keyed dict, then probe it: the pattern of DpTable's memo.

    Of the kernels tried, this one's time tracked the DP's under the host's
    speed swings most closely (query time ~ kernel time ** 0.8-0.9).
    """
    memo = {}
    for i in range(3000):
        memo[i, i * 7 % 13] = i
    best = 0
    get = memo.get
    for (i, j), v in memo.items():
        if get((i - 1, j), 0) > best:
            best = v
    return best


def time_pace_kernel() -> float:
    """Mean seconds of PACE_REPS kernel runs after one untimed run, with the
    garbage collector off so that objects the program left alive cannot
    slow the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        pace_kernel()
        start = time.perf_counter()
        for _ in range(PACE_REPS):
            pace_kernel()
        return (time.perf_counter() - start) / PACE_REPS
    finally:
        if enabled:
            gc.enable()


class Pace:
    """Scales wall times by the host's pace, read between operations."""

    def __init__(self) -> None:
        self.last = time_pace_kernel()
        self.kernel_s: list[float] = [self.last]

    def scale(self) -> float:
        """Factor for the operation that just ended, from the kernel times
        before and after it.  Call it once after every operation."""
        now = time_pace_kernel()
        self.kernel_s.append(now)
        factor = (2 * PACE_REF_S / (self.last + now)) ** PACE_EXPONENT
        self.last = now
        return factor


def pin_to_one_cpu() -> int:
    """Bind this process, and the processes it starts, to its lowest allowed CPU.

    The load is one client with no threads, so one CPU is all it uses; the
    pace kernel then reads the speed of the CPU the measured work runs on.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# -- statistics --------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest order statistic with ten samples above it.

    With ten samples or fewer none qualifies, and the maximum is reported
    as the 100th percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


class Ledger:
    """Operations attempted and failed, with the first few failure messages.

    A failure is expected only when the reference names its exception for
    that query (the deep chain's RecursionError); any other failure, and
    every wrong output, makes the run incorrect.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.messages: list[str] = []

    @property
    def correct(self) -> bool:
        return self.unexpected == 0

    def record(self, what: str, exc: BaseException | None, expected: dict | None = None) -> None:
        """Count one operation; ``expected`` is its reference entry, if it has one."""
        self.attempted += 1
        if exc is None:
            return
        self.failed += 1
        known = expected is not None and type(exc).__name__ == expected.get("known_error")
        self.unexpected += not known
        if len(self.messages) < 10:
            tag = "known failure" if known else "FAILED"
            self.messages.append(f"{what}: {tag}: {type(exc).__name__}: {str(exc)[:200]}")


def call(fn, *args):
    """(result, None) from fn(*args), or (None, exception) if it raised."""
    try:
        return fn(*args), None
    except Exception as exc:  # a failed operation counts, the run goes on
        return None, exc


def attempt(ledger: Ledger, what: str, check, *args) -> None:
    """Run a correctness check outside any timed region and log its outcome.

    The checks read only program output, so any error while reading it (bad
    JSON, a missing key, a position off the host) means the output is wrong.
    """
    try:
        check(*args)
    except Exception as exc:  # a wrong output counts, the run goes on
        ledger.record(what, exc)
    else:
        ledger.record(what, None)


# -- runs --------------------------------------------------------------------


def run_timed(workload: str, seed: int, seconds: float) -> tuple[dict, Ledger, list[str]]:
    """End-to-end metrics with tracing off, in reference-pace time (see Pace).

    Only operations that return count in the query samples: the time of one
    that raises is not the time of an answer.
    """
    pool = W.make_pool(workload)
    expected = load_reference(workload, pool)
    is_lcp = len(pool[0]["inputs"]) == 2
    op, checker = (run_lcp, check_lcp) if is_lcp else (run_tree, check_tree)
    rng = random.Random(seed)
    ledger = Ledger()
    env = subprocess_env()
    calls = cli_calls(pool, expected)
    # (wall seconds, pace factor) per answered query, CLI call and start-up.
    samples: list[tuple[float, float]] = []
    cli_times: list[tuple[float, float]] = []
    setup_times: list[tuple[float, float]] = []
    time_setup(env)  # warm-up: the first start also writes the bytecode cache
    passes = schedule(len(pool), rng, max(1, round(seconds / CYCLE_SECONDS)))
    pace = Pace()
    for queries in passes:
        for qi, sym in queries:
            perms, texts = query_inputs(pool, qi, sym)
            what = f"{workload}[{qi}] sym {sym}"
            start = time.perf_counter()
            try:
                outcome = op(texts)
            except Exception as exc:  # a failed operation counts, the run goes on
                pace.scale()
                ledger.record(what, exc, expected[qi])
                continue
            samples.append((time.perf_counter() - start, pace.scale()))
            attempt(ledger, what, checker, perms, expected[qi], outcome)
        for argv, check in calls:
            elapsed, proc = timed_call(CLI + argv, env)
            cli_times.append((elapsed, pace.scale()))
            attempt(ledger, f"permlcp {argv[0]}", check, proc)
        for _ in range(SETUP_PER_PASS):
            setup_times.append((time_setup(env), pace.scale()))
    # Subprocesses count in RUSAGE_CHILDREN, so this is the query loop's peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not samples:
        raise SystemExit(f"error: every {workload} query failed:\n" + "\n".join(ledger.messages))

    def summary(scaled: bool):
        """Time metrics from reference-pace times, or from the wall times."""
        query, cli, setup = ([w * f if scaled else w for w, f in xs] for xs in (samples, cli_times, setup_times))
        pct, tail_s = tail(query)
        return {
            "queries_per_s": (len(query) / sum(query), "1/s"),
            "query_p50_ms": (statistics.median(query) * 1e3, "ms"),
            "query_tail_ms": (tail_s * 1e3, "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "cli_p50_ms": (statistics.median(cli) * 1e3, "ms"),
        }, pct

    metrics, pct = summary(scaled=True)
    wall, _ = summary(scaled=False)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    kernel_ms = [k * 1e3 for k in pace.kernel_s]
    notes = [
        f"{len(samples)} queries answered: {len(passes)} passes over a pool of {len(pool)}, "
        "each query in all eight symmetries",
        f"query_p50_ms over {len(samples)} samples; query_tail_ms is p{pct:.1f} "
        f"({min(10, len(samples) - 1)} samples above it)",
        f"cli_p50_ms over {len(cli_times)} calls; setup_s median of {len(setup_times)} starts",
        f"times are at reference pace: each wall time is scaled by ({PACE_REF_S * 1e3:g} ms over the "
        f"pace kernel's mean time around it) ** {PACE_EXPONENT:g} ({len(kernel_ms)} kernel readings, "
        f"median {statistics.median(kernel_ms):.3f} ms, range {min(kernel_ms):.3f}-{max(kernel_ms):.3f} ms)",
        "unscaled wall times: " + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in wall.items()),
        f"ops_failed_frac {ledger.failed / ledger.attempted:.4f} ({ledger.failed}/{ledger.attempted}, "
        f"{ledger.unexpected} unexpected)",
    ]
    return metrics, ledger, notes


def run_traced(workload: str, seed: int) -> tuple[dict, Ledger, list[str]]:
    """Per-layer metrics from the unmodified pool, each query run untraced and traced.

    The two runs of a query follow each other, in alternating order from
    round to round, so that drift in machine speed cancels out of
    trace.overhead_frac.  An untimed pass first lets the allocator and caches
    settle.  Counts come from the first round; times are summed over all.
    """
    pool = W.make_pool(workload)
    expected = load_reference(workload, pool)
    is_lcp = len(pool[0]["inputs"]) == 2
    untraced_op, traced_op = (run_lcp, traced_lcp) if is_lcp else (run_tree, traced_tree)
    checker = check_traced_lcp if is_lcp else check_tree
    order = random.Random(seed).sample(range(len(pool)), len(pool))
    ledger = Ledger()
    tracer = Tracer()
    for qi in order:
        call(untraced_op, query_inputs(pool, qi, 0)[1])
    rounds = []
    untraced_s = 0.0
    with IntervalCounter() as intervals:
        for r in range(TRACE_ROUNDS):
            stats = {"depth": 0, "guided_by_shorter": 0, "intervals": 0,
                     "cells": {"leaf": 0, "linear": 0, "prime": 0}}
            for qi in order:
                perms, texts = query_inputs(pool, qi, 0)
                tracer.qid = qi
                for traced in (r % 2 == 1, r % 2 == 0):
                    if traced:
                        outcome, exc = call(traced_op, tracer, intervals, texts, stats)
                    else:
                        start = time.perf_counter()
                        untraced, _ = call(untraced_op, texts)
                        untraced_s += time.perf_counter() - start
                if exc is not None:
                    ledger.record(f"traced [{qi}]", exc, expected[qi])
                else:
                    attempt(ledger, f"traced [{qi}]", checker, perms, expected[qi], outcome, untraced)
            rounds.append(stats)
    stats = rounds[0]

    queries = len(order) * TRACE_ROUNDS
    self_s = tracer.self_times()
    traced_s = tracer.total("query")
    layer_s = {name: self_s.get(name, 0.0) for name in LAYERS}
    # Trace work inside the query spans, not part of a query: the cell count
    # and, for lcp queries, the trees and expansion that lcp_plan builds
    # again inside its own span.
    overhead_s = self_s.get("trace.count", 0.0)
    if is_lcp:
        duplicate_s = layer_s["decomposition.tree"] + layer_s["decomposition.expand"]
        layer_s["lcp.plan_self"] = tracer.total("lcp.plan") - duplicate_s
        overhead_s += duplicate_s
    query_s = traced_s - overhead_s
    accounted = sum(layer_s.values()) / query_s
    metrics = {f"{name}_ms": (s * 1e3 / queries, "ms") for name, s in layer_s.items()}
    metrics.update(
        {
            "decomposition.max_depth": (stats["depth"], "count"),
            "lcp.guided_by_shorter": (stats["guided_by_shorter"], "count"),
            "trace.overhead_frac": (traced_s / untraced_s - 1, "ratio"),
            "trace.accounted_frac": (accounted, "ratio"),
            "ops_failed_frac": (ledger.failed / ledger.attempted, "ratio"),
        }
    )
    if intervals.present:
        metrics["decomposition.intervals"] = (stats["intervals"], "count")
    cells = stats["cells"]
    if cells is not None:
        total_cells = sum(cells.values())
        metrics["lcp.cells"] = (total_cells, "count")
        for kind, c in cells.items():
            metrics[f"lcp.cells_{kind}"] = (c, "count")
        fill_us = layer_s["lcp.fill"] / TRACE_ROUNDS * 1e6
        metrics["lcp.fill_us_per_cell"] = (fill_us / total_cells if total_cells else 0.0, "us")

    shares = {name: s / query_s for name, s in layer_s.items()}
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "fields": ["name", "start", "end", "parent", "query"],
                "spans": tracer.spans,
                "layer_share": shares,
            }
        )
    )
    notes = [
        f"{queries} queries traced in {TRACE_ROUNDS} rounds; layer self times cover "
        f"{accounted:.1%} of traced query time",
        "layer share: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items() if v),
        "trace.overhead_frac and lcp.plan_self_ms are differences of separately timed "
        "runs: read a value smaller than the run-to-run spread of the query times "
        "(about 10% on a shared 2-core x86-64 machine) as zero within noise",
        f"spans written to {trace_file.relative_to(ROOT)}",
    ]
    if not intervals.present:
        notes.append("decomposition.intervals absent: permlcp.decomposition has no common_intervals")
    if cells is None:
        notes.append("cell counts absent: DpTable's memo has an unexpected shape")
    return metrics, ledger, notes


def record_reference() -> dict:
    """Reference outputs for every pool, cross-checked with the oracle where it can run.

    A tree query may fail only with RecursionError, the known defect of the
    recursive tree builder on deep chains; the entry then names it, and
    runs count that failure as expected.  Any other exception stops here.
    """
    reference = {}
    for workload in W.POOLS:
        pool = W.make_pool(workload)
        expected = []
        for qi in range(len(pool)):
            perms, texts = query_inputs(pool, qi, 0)
            if len(perms) == 1:
                entry = {"separable": W.is_separable(perms[0]), "size": len(perms[0])}
                try:
                    check_tree(perms, entry, run_tree(texts))
                except RecursionError:
                    entry["known_error"] = "RecursionError"
            else:
                outcome = run_lcp(texts)
                entry = {"length": len(outcome[0])}
                check_lcp(perms, entry, outcome)
                if min(map(len, perms)) <= MAX_ORACLE_SIZE:
                    oracle = oracle_lcp(*map(parse_permutation, texts))
                    if len(oracle) != entry["length"]:
                        raise SystemExit(f"error: {workload}[{qi}]: lcp {entry}, oracle {len(oracle)}")
                    entry["oracle"] = True
            expected.append(entry)
            print(f"{workload}[{qi}] {entry}", file=sys.stderr, flush=True)
        reference[workload] = {"digest": W.pool_digest(pool), "expected": expected}
    return reference
