"""Spans around the library's layer entry points, recorded in memory.

The traced run wraps the entry points listed in :data:`METHODS` and
:data:`FUNCTIONS` from the benchmark's own code; the library itself
carries no span code. A span records its name, layer, start, end,
parent span, request id and thread. Open spans sit on per-thread
stacks, closed ones in per-thread lists that are written to JSONL when
the run ends. A span's self time is its duration minus the part its
child spans cover, so the self times of one request's spans sum to the
duration of its root span (layer ``client``, whose self time is the
request time no wrapped layer accounts for).

Kernel-op counts come from the per-thread
:func:`repro.relational.guards.op_hook` seam, which fires at the entry
of every kernel operation; operator *time* stays inside the inline
evaluator's self time, because the seam marks no operator exit.

Deliberately not :func:`repro.backend.instrument.collect_phases`: that
collector is process-global and leaks between pooled threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator

from repro.backend.inline import InlineBackend, InlineQueryResult
from repro.cache import LRUCache
from repro.inline.physical import evaluate_seeded
from repro.inline.representation import InlinedRepresentation
from repro.isql.compile import compile_delete, compile_query, compile_update
from repro.isql.parser import parse_script
from repro.isql.session import ISQLSession
from repro.optimizer.rewriter import optimize
from repro.relational import columnar
from repro.relational.array_kernel import as_array
from repro.relational.guards import op_hook
from repro.service.dbapi import Connection, Cursor
from repro.service.pool import SessionPool
from repro.service.snapshots import SnapshotStore

#: (class, method, layer, span name)
METHODS = (
    (SessionPool, "acquire", "service", "pool.acquire"),
    (SessionPool, "release", "service", "pool.release"),
    (Cursor, "execute", "service", "cursor.execute"),
    (Connection, "commit", "service", "connection.commit"),
    (Connection, "rollback", "service", "connection.rollback"),
    (SnapshotStore, "acquire_write", "service", "store.acquire_write"),
    (SnapshotStore, "publish", "service", "store.publish"),
    (ISQLSession, "restore_snapshot", "service", "session.restore_snapshot"),
    (LRUCache, "get", "cache", "lru.get"),
    (LRUCache, "put", "cache", "lru.put"),
    (ISQLSession, "run", "isql", "session.run"),
    (InlineBackend, "run_select", "backend", "backend.select"),
    (InlineBackend, "run_insert", "backend", "backend.dml"),
    (InlineBackend, "run_delete", "backend", "backend.dml"),
    (InlineBackend, "run_update", "backend", "backend.dml"),
    (InlineBackend, "run_dml_batch", "backend", "backend.dml"),
    (InlinedRepresentation, "replacing", "inline", "representation.replacing"),
    (InlineQueryResult, "answers", "inline", "result.answers"),
)

#: (function, layer, span name), wrapped at every module binding, since
#: callers reach them through names imported into their own modules.
FUNCTIONS = (
    (parse_script, "isql", "parse_script"),
    (compile_query, "isql", "compile"),
    (compile_delete, "isql", "compile"),
    (compile_update, "isql", "compile"),
    (optimize, "optimizer", "rewrite"),
    (evaluate_seeded, "inline", "evaluate_seeded"),
    (columnar.as_columnar, "relational", "convert"),
    (columnar.as_tuple, "relational", "convert"),
    (as_array, "relational", "convert"),
)

#: A closed span: (id, parent id, request id, thread, name, layer,
#: start, end, self seconds).
Span = tuple


class Tracer:
    """Installs the wrappers, and records spans and kernel-op counts."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: (thread ident, closed spans, {op: [calls, rows in]}) per client thread.
        self._threads: list[tuple[int, list[Span], dict]] = []

    # -- recording ------------------------------------------------------------------

    def _wrap(self, function, layer: str, name: str):
        local, ids = self._local, self._ids

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if not stack:  # outside a traced request
                return function(*args, **kwargs)
            frame = [next(ids), time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1]
                parent[2] += duration
                local.spans.append(
                    (frame[0], parent[0], local.request, local.ident, name, layer,
                     frame[1], end, duration - frame[2])
                )

        return traced

    @contextmanager
    def client(self) -> Iterator[None]:
        """Register the calling client thread and count its kernel ops."""
        local = self._local
        local.spans, local.ident = [], threading.get_ident()
        ops: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self._threads.append((local.ident, local.spans, ops))

        def count(op: str, rows: int) -> None:
            entry = ops[op]
            entry[0] += 1
            entry[1] += rows

        with op_hook(count):
            yield

    @contextmanager
    def request(self, request_id: int) -> Iterator[None]:
        """The root span of one request (layer ``client``)."""
        local = self._local
        root = [next(self._ids), time.perf_counter(), 0.0]
        local.stack, local.request = [root], request_id
        try:
            yield
        finally:
            end = time.perf_counter()
            local.stack = None
            local.spans.append(
                (root[0], None, request_id, local.ident, "request", "client",
                 root[1], end, end - root[1] - root[2])
            )

    # -- installation ---------------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Swap every entry point for its wrapper; restore on exit."""
        undo: list[tuple[object, str, object]] = []
        wrappers: dict[int, object] = {}
        for function, layer, name in FUNCTIONS:
            wrappers[id(function)] = self._wrap(function, layer, name)
        try:
            for owner, attribute, layer, name in METHODS:
                original = vars(owner)[attribute]
                undo.append((owner, attribute, original))
                setattr(owner, attribute, self._wrap(original, layer, name))
            for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "repro"]:
                for attribute, value in list(vars(module).items()):
                    # FUNCTIONS keeps the originals alive, so equal ids
                    # mean the same object.
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        undo.append((module, attribute, value))
                        setattr(module, attribute, wrapper)
            # Evaluators convert through the kernel registry's cached
            # operation tables, not through a module binding.
            registry = columnar._KERNEL_OPS
            for kernel, ops in list(registry.items()):
                wrapper = wrappers.get(id(ops.convert))
                if wrapper is not None:
                    undo.append((registry, kernel, ops))
                    registry[kernel] = ops._replace(convert=wrapper)
            yield self
        finally:
            for owner, attribute, original in reversed(undo):
                if isinstance(owner, dict):
                    owner[attribute] = original
                else:
                    setattr(owner, attribute, original)

    # -- results --------------------------------------------------------------------

    def spans(self) -> Iterator[Span]:
        for _, spans, _ in self._threads:
            yield from spans

    def op_counts(self) -> dict[str, list[int]]:
        """``{op: [calls, rows in]}`` summed over client threads."""
        total: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for _, _, ops in self._threads:
            for op, (calls, rows) in ops.items():
                total[op][0] += calls
                total[op][1] += rows
        return dict(total)

    def summary(self) -> dict:
        """Per-layer self seconds; per span name calls, total and self seconds."""
        layers: dict[str, float] = defaultdict(float)
        names: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, _, _, name, layer, start, end, self_seconds in self.spans():
            layers[layer] += self_seconds
            entry = names[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_seconds
        return {"layers": dict(layers), "names": dict(names)}

    def write_jsonl(self, path) -> None:
        fields = ("id", "parent", "request", "thread", "name", "layer", "start", "end", "self")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans():
                out.write(json.dumps(dict(zip(fields, span))) + "\n")
