"""What a warm pooled result-memo hit does, counted.

A repeated select on a pooled connection is served by one memo lookup:
it is parsed once (one parse-cache lookup), never reaches the plan tier
(no compile, no rewrite, no plan probe), is neither decoded nor sorted
again, and still meets the kernel-op seam exactly as the first
execution's decode did, so budgets, fault hooks and op counts cannot
tell a hit from a decode. The session uses the default kernel, so the
kernel matrix runs these on every kernel.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import pytest

import repro.backend.inline as inline_module
import repro.isql.session as session_module
import repro.relational.columnar as columnar_module
import repro.relational.relation as relation_module
from repro.isql import ISQLSession
from repro.relational import Relation
from repro.relational.guards import op_hook
from repro.service import SessionPool

QUERIES = (
    "select possible K from T where V = 1;",
    "select certain V from T where K != 2;",
    "select possible K, V from T choice of V;",
)


def _pool(size: int = 2) -> SessionPool:
    session = ISQLSession(backend="inline")
    session.register(
        "T", Relation(("K", "V"), [(k, k % 3) for k in range(12)])
    )
    return SessionPool(session, size=size)


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts calls of the pipeline stages a memo hit must skip, at the
    module bindings their callers use."""
    counted: Counter = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counted[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(inline_module, "compile_query")
    counting(inline_module, "rewrite_plan")
    counting(session_module, "parse_script")
    counting(relation_module, "row_sort_key")
    counting(columnar_module, "row_sort_key")
    return counted


def _execute(pool: SessionPool, query: str) -> tuple[list, list, str]:
    """Rows, the (op, rows) checkpoints fired, and the cache disposition."""
    ops: list[tuple[str, int]] = []
    with pool.connection() as connection:
        with op_hook(lambda op, rows: ops.append((op, rows))):
            cursor = connection.execute(query)
        return cursor.fetchall(), ops, cursor.cache


@pytest.mark.parametrize("query", QUERIES)
def test_a_warm_memo_hit_skips_the_plan_tier_and_the_re_sort(query, calls):
    pool = _pool()
    first_rows, _, first_cache = _execute(pool, query)
    assert first_cache == "miss"
    assert calls["compile_query"] == calls["parse_script"] == 1
    _execute(pool, query)  # warm: the answer is decoded and sorted
    calls.clear()
    rows, _, cache = _execute(pool, query)
    assert cache == "hit"
    assert rows == first_rows
    assert calls == Counter(), f"a memo hit ran {dict(calls)}"


@pytest.mark.parametrize("query", QUERIES)
def test_a_warm_memo_hit_takes_one_parse_and_one_memo_lookup(query):
    pool = _pool()
    _execute(pool, query)
    _execute(pool, query)
    with pool.connection() as connection:
        cache = connection.session.backend.cache
    tiers = {"parses": cache.parses, "plans": cache.plans, "memo": cache.memo}
    before = {name: (tier.hits, tier.misses) for name, tier in tiers.items()}
    _execute(pool, query)
    after = {name: (tier.hits, tier.misses) for name, tier in tiers.items()}
    assert after["plans"] == before["plans"]
    assert after["parses"] == (before["parses"][0] + 1, before["parses"][1])
    assert after["memo"] == (before["memo"][0] + 1, before["memo"][1])


@pytest.mark.parametrize("query", QUERIES)
def test_a_memo_hit_fires_the_first_decodes_checkpoints(query):
    """The hit replays the checkpoints the first execution's decode
    fired (its last ops), with the same row counts."""
    pool = _pool()
    _, first_ops, _ = _execute(pool, query)
    for _ in range(2):
        _, hit_ops, cache = _execute(pool, query)
        assert cache == "hit"
        assert hit_ops and hit_ops[0][0] == "world_answers"
        assert first_ops[-len(hit_ops):] == hit_ops


def test_concurrent_hits_share_one_decode_consistently():
    """Pooled threads (more than cores, switching often) evaluate, decode
    and sort the same statements at once on a cold cache: every read
    returns the rows of a serial run and fires the checkpoints of its
    first execution (all of them on a miss, the decode's on a hit)."""
    serial = _pool()
    expected = {query: _execute(serial, query)[:2] for query in QUERIES}
    pool = _pool(size=6)
    errors: list[BaseException] = []

    def reader(offset: int) -> None:
        try:
            for index in range(60):
                query = QUERIES[(offset + index) % len(QUERIES)]
                rows, ops, _ = _execute(pool, query)
                assert rows == expected[query][0]
                assert ops == expected[query][1][-len(ops):]
        except BaseException as error:  # reported below, with the thread's failure
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=reader, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
