"""Per-phase wall-clock accounting for statement execution.

The benchmark suite wants to know *where* a backend spends its time —
compile (parse + I-SQL → world-set algebra), rewrite (the Figure 7
pass), execute (flat-table or per-world evaluation), dml_apply (the
mask/scatter/append application of DML answers to the flat tables,
including the batched pipeline's single-pass commit), decode (explicit
world materialization), rollback (transactional state restores:
``atomic`` scripts, ``transaction()`` exits and ``rollback_to`` in
:mod:`repro.isql.session`), cache_lookup (plan-cache and result-memo
probes in the inline backend, hit or miss) — so that performance PRs
can target the right layer instead of re-measuring end-to-end numbers.

The mechanism is deliberately tiny: a caller installs a collector dict
with :func:`collect_phases`, and instrumented code brackets work in
``with phase("execute"):``. When no collector is installed the bracket
is a no-op, so code outside a collection pays one ``is None`` check,
nothing more. Phases must not nest (the accounting adds sibling
durations; instrumentation sites are chosen to be disjoint).

The installed collector is a :class:`~contextvars.ContextVar`, so each
thread (and each asyncio task) sees only the collector it installed
itself: pooled sessions running statements concurrently never time
into each other's dicts. Collections nest: on exit a collector adds
its totals into the enclosing one, which is how
:meth:`repro.isql.session.ISQLSession.run` attaches private
per-statement timings while a benchmark's outer collector still sees
every phase.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

_collector: ContextVar[dict[str, float] | None] = ContextVar(
    "phase_collector", default=None
)


@contextmanager
def collect_phases(target: dict[str, float] | None = None) -> Iterator[dict[str, float]]:
    """Install *target* (or a fresh dict) as this context's collector.

    Durations accumulate under their phase name for the duration of the
    ``with`` block. On exit the previous collector is restored and the
    block's totals are added into it, so an outer collection sees the
    phases of every collection nested inside it. Pass an empty
    *target*: everything it holds on exit counts as the block's.
    """
    collector = target if target is not None else {}
    token = _collector.set(collector)
    try:
        yield collector
    finally:
        _collector.reset(token)
        outer = _collector.get()
        if outer is not None:
            for name, seconds in collector.items():
                outer[name] = outer.get(name, 0.0) + seconds


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Bracket one phase of work; a no-op without an active collector."""
    collector = _collector.get()
    if collector is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        collector[name] = (
            collector.get(name, 0.0) + time.perf_counter() - start
        )
