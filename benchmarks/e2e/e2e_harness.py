"""Closed-loop measurement, verification and metrics of one workload run.

A run sets the workload up several times (``setup_s`` is the median),
warms it until the cache tiers its stream reuses are at capacity, then
measures a fixed window with one client in a closed loop: it sends its
next request when the previous one has returned. The untraced run
reports the end-to-end metrics. The traced run measures half its window
untraced and half traced, and reports the per-layer metrics plus the
tracing overhead between the halves. Afterwards a seeded sample of the
requests is replayed on fresh ``cache=False`` tuple-kernel sessions and
the answers compared; a mismatch counts as a failed request.
"""

from __future__ import annotations

import gc
import itertools
import math
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro import SessionPool, connect

from e2e_trace import Tracer
from e2e_workloads import Request, Workload, open_session, run_request

#: Set-up runs at least SETUPS times, and a fast one repeats (up to
#: MAX_SETUPS times) until the repetitions took SETUP_SECONDS in all, so
#: its median is not a handful of timer ticks.
SETUPS = 3
MAX_SETUPS = 25
SETUP_SECONDS = 0.3
WARMUP_SECONDS = 3.0
#: Warm-up gives up (and the run fails) if the reused cache tiers are
#: still not at capacity after this many times its planned length.
WARMUP_LIMIT = 5
#: Representation rows may drift this much over a run (stationarity).
ROW_DRIFT = 0.05
TIERS = ("parses", "plans", "memo")
#: Kernel ops whose input rows the traced run reports one by one.
OPS = (
    "select", "project", "join_on", "semijoin", "antijoin", "product",
    "union", "difference", "intersection", "divide", "aggregate_by",
    "extend", "left_outer_join_padded", "mask", "scatter_update",
    "append", "masked_assign", "dml_scan",
)
_NO_SPAN = nullcontext()


# -- statistics --------------------------------------------------------------------


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def supported_tail(n: int) -> float | None:
    """The highest percentile with at least ten of *n* samples beyond it."""
    for q in (0.999, 0.99, 0.9, 0.5):
        if n - math.ceil(q * n) >= 10:
            return q
    return None


# -- the closed loop ---------------------------------------------------------------


@dataclass
class Window:
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    fallbacks: int = 0
    errors: list[str] = field(default_factory=list)


@dataclass
class Log:
    """What verification needs: sampled answers and every published write."""

    #: (request, answer, published version the request saw)
    samples: list = field(default_factory=list)
    #: (version, request) for every write, warm-up included
    writes: list = field(default_factory=list)


def execute(pool: SessionPool, request: Request):
    """One request as one pooled unit of work: (answer, route, version)."""
    with pool.connection() as connection:
        answer, route = run_request(connection, request)
        return answer, route, connection.version


def measure(pools, stream, seconds: float, log: Log, tracer: Tracer | None = None) -> Window:
    """Send *stream*'s requests closed-loop for *seconds*.

    One client: each request goes out when the previous one has
    returned. Failures are counted and the loop goes on.
    """
    window = Window()
    ids = itertools.count(1)
    cpu, start = time.process_time(), time.perf_counter()
    deadline = start + seconds
    with tracer.client() if tracer else _NO_SPAN:
        while time.perf_counter() < deadline:
            request = next(stream)
            window.attempted += 1
            begin = time.perf_counter()
            try:
                with tracer.request(next(ids)) if tracer else _NO_SPAN:
                    answer, route, version = execute(pools[request.target], request)
            except Exception as error:  # counted; the loop must keep running
                window.failed += 1
                window.errors.append(f"{request.sql} {request.params}: {error!r}")
                continue
            window.latencies.append(time.perf_counter() - begin)
            window.fallbacks += route == "fallback"
            if request.check:
                log.samples.append((request, answer, version))
            if request.toggle is not None:
                log.writes.append((version, request))
    window.seconds = time.perf_counter() - start
    window.cpu_seconds = time.process_time() - cpu
    return window


# -- set-up, warm-up, guards -------------------------------------------------------


def open_pools(workload: Workload, data) -> dict[str, SessionPool]:
    return {
        target: SessionPool(
            open_session(dataset, workload.kernel, cache=True),
            size=1,
            autocommit=workload.autocommit,
        )
        for target, dataset in data.items()
    }


def close_pools(pools: dict[str, SessionPool]) -> None:
    for pool in pools.values():
        pool.close()


def statement_caches(pools) -> list:
    """Each pool's statement cache (shared by all its connections)."""
    caches = []
    for pool in pools.values():
        with pool.connection() as connection:
            caches.append(connection.session.backend.cache)
    return caches


def cache_counters(caches) -> dict[str, list[int]]:
    """``{tier: [hits, misses, evictions]}`` summed over *caches*."""
    counters = {tier: [0, 0, 0] for tier in TIERS}
    for cache in caches:
        for tier in TIERS:
            lru = getattr(cache, tier)
            entry = counters[tier]
            entry[0] += lru.hits
            entry[1] += lru.misses
            entry[2] += lru.invalidations
    return counters


def hit_rate(counters: dict, tier: str) -> float:
    hits, misses, _ = counters[tier]
    return hits / (hits + misses) if hits + misses else 0.0


def unfilled_tiers(caches, tiers) -> list[str]:
    return [
        tier
        for cache in caches
        for tier in tiers
        if len(getattr(cache, tier)) < getattr(cache, tier).maxsize
    ]


def representation_rows(pools) -> int:
    """Rows of every table in every pool's latest published state."""
    rows = 0
    for pool in pools.values():
        session, _ = pool.store.spawn_session()
        rows += sum(len(table) for _, table in session.backend.representation.tables.items())
    return rows


def drift_problem(before: int, after: int) -> str | None:
    if abs(after - before) > ROW_DRIFT * max(before, 1):
        return (
            f"not stationary: representation rows went {before} -> {after} "
            f"(more than {ROW_DRIFT:.0%})"
        )
    return None


def warm_up(pools, stream, caches, workload: Workload, log: Log, seconds: float) -> list[str]:
    """Run until *seconds* passed and the reused tiers are full; returns problems."""
    start = time.perf_counter()
    measure(pools, stream, seconds, log)
    while unfilled := unfilled_tiers(caches, workload.full_tiers):
        if time.perf_counter() - start > WARMUP_LIMIT * seconds:
            return [f"cache tiers not at capacity after warm-up: {unfilled}"]
        measure(pools, stream, seconds / 4, log)
    return []


# -- verification -----------------------------------------------------------------


def verify(workload: Workload, seed: int, scale: str, log: Log) -> tuple[int, list[str]]:
    """Replay the sampled requests on fresh tuple-kernel, cache-off sessions.

    Samples are replayed in the order of the published version they saw.
    Before each, the reference is brought to that version by replaying,
    for every toggled row, the last write published at or before it —
    the write sequence up to that version, reduced to its net effect.
    Returns (requests checked, mismatch descriptions).
    """
    connections = {
        target: connect(
            open_session(dataset, "tuple", cache=False),
            cache=False,
            autocommit=workload.autocommit,
        )
        for target, dataset in workload.data(seed, scale).items()
    }
    writes = sorted(log.writes, key=lambda entry: entry[0])
    marked: dict[int, bool] = {}
    answers: dict[tuple, object] = {}
    problems: list[str] = []
    next_write = 0
    latest: dict[int, Request] = {}
    for request, answer, version in sorted(log.samples, key=lambda sample: sample[2]):
        while next_write < len(writes) and writes[next_write][0] <= version:
            write = writes[next_write][1]
            latest[write.toggle[0]] = write
            next_write += 1
        try:
            for row, write in latest.items():
                if marked.get(row, False) != write.toggle[1]:
                    run_request(connections[write.target], write)
                    marked[row] = write.toggle[1]
            key = (request.target, request.sql, request.params, tuple(sorted(marked.items())))
            if key not in answers:
                answers[key] = run_request(connections[request.target], request)[0]
        except Exception as error:  # an unverifiable request counts as failed
            problems.append(f"reference failed on {request.sql} {request.params}: {error!r}")
            continue
        if answers[key] != answer:
            problems.append(
                f"wrong answer at version {version}: {request.sql} {request.params}"
            )
    for connection in connections.values():
        connection.close()
    return len(log.samples), problems


# -- metrics ----------------------------------------------------------------------


def end_to_end(window: Window, setup_s: float, rss_mb: float) -> dict:
    ordered = sorted(latency * 1e3 for latency in window.latencies)
    requests = max(window.attempted, 1)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (window.attempted / window.seconds, "1/s"),
        "p50_ms": (percentile(ordered, 0.5) if ordered else 0.0, "ms"),
        "p90_ms": (percentile(ordered, 0.9) if ordered else 0.0, "ms"),
        "cpu_ms_per_op": (window.cpu_seconds * 1e3 / requests, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer: Tracer, traced: Window, plain: Window, counters: dict, rows: int) -> dict:
    summary = tracer.summary()
    layers, names = summary["layers"], summary["names"]
    requests = names.get("request", [0, 0.0, 0.0])
    n = max(requests[0], 1)

    def calls(*keys: str) -> float:
        return sum(names.get(key, [0, 0.0, 0.0])[0] for key in keys) / n

    def total_ms(*keys: str) -> float:
        return sum(names.get(key, [0, 0.0, 0.0])[1] for key in keys) * 1e3 / n

    def self_ms(*keys: str) -> float:
        return sum(names.get(key, [0, 0.0, 0.0])[2] for key in keys) * 1e3 / n

    def layer_ms(layer: str) -> float:
        return layers.get(layer, 0.0) * 1e3 / n

    ops = tracer.op_counts()
    request_ms = requests[1] * 1e3 / n
    unattributed_ms = requests[2] * 1e3 / n
    metrics = {
        "service.self_ms": (layer_ms("service"), "ms"),
        "service.wait_ms": (total_ms("pool.acquire", "store.acquire_write"), "ms"),
        "service.release_ms": (total_ms("pool.release"), "ms"),
        "service.cursor_self_ms": (self_ms("cursor.execute"), "ms"),
        "service.commit_ms": (total_ms("connection.commit"), "ms"),
        "service.syncs_per_op": (calls("session.restore_snapshot"), "count"),
        "service.writer_locks_per_op": (calls("store.acquire_write"), "count"),
        "service.publishes_per_op": (calls("store.publish"), "count"),
        "service.errors": (traced.failed, "count"),
        "cache.lookup_ms": (layer_ms("cache"), "ms"),
        "cache.lookups_per_op": (calls("lru.get"), "count"),
        "cache.parse_hit_rate": (hit_rate(counters, "parses"), "ratio"),
        "cache.plan_hit_rate": (hit_rate(counters, "plans"), "ratio"),
        "cache.memo_hit_rate": (hit_rate(counters, "memo"), "ratio"),
        "cache.evictions_per_op": (sum(c[2] for c in counters.values()) / n, "count"),
        "isql.self_ms": (layer_ms("isql"), "ms"),
        "isql.parse_calls_per_op": (calls("parse_script"), "count"),
        "isql.parse_ms": (self_ms("parse_script"), "ms"),
        "isql.compile_calls_per_op": (calls("compile"), "count"),
        "isql.compile_ms": (self_ms("compile"), "ms"),
        "isql.session_self_ms": (self_ms("session.run"), "ms"),
        "optimizer.rewrite_calls_per_op": (calls("rewrite"), "count"),
        "optimizer.rewrite_ms": (layer_ms("optimizer"), "ms"),
        "backend.self_ms": (layer_ms("backend"), "ms"),
        "backend.dml_calls_per_op": (calls("backend.dml"), "count"),
        "backend.fallbacks_per_op": (traced.fallbacks / n, "count"),
        "inline.self_ms": (layer_ms("inline"), "ms"),
        "inline.evaluate_calls_per_op": (calls("evaluate_seeded"), "count"),
        "inline.evaluate_self_ms": (self_ms("evaluate_seeded"), "ms"),
        "inline.decode_ms": (total_ms("result.answers"), "ms"),
        "inline.commits_per_op": (calls("representation.replacing"), "count"),
        "inline.representation_rows": (rows, "rows"),
        "relational.convert_ms": (layer_ms("relational"), "ms"),
        "relational.convert_calls_per_op": (calls("convert"), "count"),
        "relational.ops_per_op": (sum(c for c, _ in ops.values()) / n, "count"),
        "relational.rows_in_per_op": (sum(r for _, r in ops.values()) / n, "count"),
        "trace.request_ms": (request_ms, "ms"),
        "trace.unattributed_ms": (unattributed_ms, "ms"),
        "trace.attributed_share": (1 - unattributed_ms / request_ms if request_ms else 0.0, "ratio"),
        "trace.overhead_ratio": (
            (plain.attempted / plain.seconds) / (traced.attempted / traced.seconds)
            if traced.attempted else 0.0,
            "ratio",
        ),
    }
    for op in OPS:
        metrics[f"relational.rows_in.{op}"] = (ops.get(op, [0, 0])[1] / n, "count")
    return metrics


def provenance(workload: Workload, seed: int, seconds: float, warmup: float) -> dict:
    try:
        import numpy
    except ImportError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else None,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "os_kernel": platform.release(),
        "kernel": workload.kernel,
        "seed": seed,
        "warmup_s": warmup,
        "window_s": seconds,
    }


# -- one run ----------------------------------------------------------------------


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str = "full",
    warmup: float = WARMUP_SECONDS,
    trace_path=None,
) -> dict:
    """Set up, warm, measure and verify one workload; returns the result record.

    The record holds ``metrics`` (``{name: (value, unit)}``),
    ``attempted``/``failed`` request counts, ``problems`` (guard
    failures and verification mismatches) and run details.
    """
    pools: dict[str, SessionPool] = {}
    setup_times: list[float] = []
    while len(setup_times) < SETUPS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < MAX_SETUPS
    ):
        # Each set-up starts from freshly generated relations, so no
        # kernel twin cached by the previous one is reused.
        close_pools(pools)
        data = workload.data(seed, scale)
        gc.collect()
        start = time.perf_counter()
        pools = open_pools(workload, data)
        setup_times.append(time.perf_counter() - start)
    try:
        caches = statement_caches(pools)
        stream = workload.stream(data, seed)
        log = Log()
        problems = warm_up(pools, stream, caches, workload, log, warmup)
        rows_before = representation_rows(pools)
        # What is alive after warm-up (data, representations, warm
        # caches) moves to the permanent generation, so a full
        # collection in the window walks what requests allocate, not
        # the whole data set at whatever moments it happens to trigger.
        gc.collect()
        gc.freeze()
        # A traced run measures half its window untraced: the overhead base.
        length = seconds / 2 if trace else seconds
        windows = [measure(pools, stream, length, log)] if trace else []
        tracer = Tracer() if trace else None
        before = cache_counters(caches)
        with tracer.installed() if tracer else _NO_SPAN:
            windows.append(measure(pools, stream, length, log, tracer))
        after = cache_counters(caches)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows_after = representation_rows(pools)
    finally:
        gc.unfreeze()
        close_pools(pools)
    problem = drift_problem(rows_before, rows_after)
    if problem:
        problems.append(problem)
    checked, mismatches = verify(workload, seed, scale, log)
    counters = {tier: [a - b for a, b in zip(after[tier], before[tier])] for tier in TIERS}
    if trace:
        metrics = per_layer(tracer, windows[1], windows[0], counters, rows_before)
        if trace_path is not None:
            tracer.write_jsonl(trace_path)
    else:
        metrics = end_to_end(windows[0], statistics.median(setup_times), rss_mb)
    latencies = sorted(latency for window in windows for latency in window.latencies)
    errors = [error for window in windows for error in window.errors]
    return {
        "workload": workload.name,
        "metrics": metrics,
        "attempted": sum(window.attempted for window in windows),
        "failed": sum(window.failed for window in windows) + len(mismatches),
        "problems": problems,
        "detail": {
            "provenance": provenance(workload, seed, seconds, warmup),
            "samples": len(latencies),
            "tail": supported_tail(len(latencies)),
            "setup_times_s": setup_times,
            "verified": checked,
            "cache_hit_rates": {tier: hit_rate(counters, tier) for tier in TIERS},
            "errors": (errors + mismatches)[:10],
        },
    }
