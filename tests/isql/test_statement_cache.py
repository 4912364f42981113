"""The statement cache (PR 10): plan cache, result memo, parse cache.

Unit coverage for :mod:`repro.cache` and its wiring through the inline
backend and the session:

* plan-cache keying — a re-executed statement hits, textual
  reformatting still hits (the key is the span-insensitive AST),
  schema changes (register / assign) and world-kind flips miss;
* result-memo precision — DML on relation B must not invalidate a
  memoized select over relation A, while DML on A must;
* versions ride the state — savepoint rollback and snapshot restore
  re-hit the memo entries of the restored state, never a stale one;
* the ``cache=False`` escape hatch at session, per-call, and backend
  construction level;
* ``close()`` detaches a session from a shared cache without clearing
  it for its siblings;
* LRU bounds and the eviction/invalidation counters;
* the :class:`~repro.isql.session.StatementResult` unification and the
  ``run()`` / ``cache_info()`` surface.
"""

from __future__ import annotations

import pytest

from repro.backend import ExplicitBackend, InlineBackend
from repro.cache import MISS, CacheInfo, LRUCache, StatementCache
from repro.errors import EvaluationError
from repro.isql import ISQLSession
from repro.isql.session import StatementResult
from repro.relational import Relation


def _session(cache: bool = True, **kwargs) -> ISQLSession:
    session = ISQLSession(backend=InlineBackend(**kwargs), cache=cache)
    session.register("A", Relation(("X", "Y"), [(1, 10), (2, 20), (3, 30)]))
    session.register("B", Relation(("P",), [(1,), (2,)]))
    return session


SELECT_A = "select possible X from A;"
SELECT_B = "select possible P from B;"


def _cache_of(result: StatementResult) -> str:
    return result.cache


def _last(session: ISQLSession, script: str) -> StatementResult:
    return session.run(script)[-1]


# -- plan cache keying ---------------------------------------------------------------


def test_repeated_statement_is_a_plan_cache_hit():
    session = _session()
    assert _cache_of(_last(session, SELECT_A)) == "miss"
    assert _cache_of(_last(session, SELECT_A)) == "hit"
    info = session.cache_info()
    assert info.hits > 0 and info.entries > 0


def test_reformatted_statement_still_hits():
    """The plan key is the parsed AST with spans excluded from equality,
    so whitespace/case-of-keyword changes reuse the compiled plan."""
    session = _session()
    session.run(SELECT_A)
    reformatted = "select   possible\n X\nfrom A ;"
    assert _cache_of(_last(session, reformatted)) == "hit"


def test_answers_identical_on_hit():
    session = _session()
    first = _last(session, SELECT_A)
    second = _last(session, SELECT_A)
    assert second.cache == "hit"
    assert first.answers() == second.answers()
    assert first.relation.sorted_rows() == second.relation.sorted_rows()


def test_registering_a_relation_changes_the_catalog_key():
    """A new relation can capture previously-unknown names, so the plan
    key includes the catalog: registering forces a recompile on a memo
    miss. The result *memo* still hits, though — registering C carries
    A's table version — and a memo hit never probes the plan tier."""
    session = _session()
    session.run(SELECT_A)
    plans = session.backend.cache.plans
    counters = (plans.hits, plans.misses)
    session.register("C", Relation(("Z",), [(9,)]))
    result = _last(session, SELECT_A)
    assert (plans.hits, plans.misses) == counters
    assert result.cache == "hit"
    assert result.relation.sorted_rows() == [(1,), (2,), (3,)]
    session.backend.cache.memo.clear()
    result = _last(session, SELECT_A)
    assert plans.misses == counters[1] + 1
    assert result.cache == "miss"
    assert result.relation.sorted_rows() == [(1,), (2,), (3,)]


def test_world_kind_flip_recompiles():
    """The optimizer rewrite can depend on whether the session is in a
    single world; moving to many worlds must not reuse the one-world
    plan."""
    session = _session()
    session.run(SELECT_A)
    result = _last(session, "Split <- select * from A choice of Y;" + SELECT_A)
    assert result.cache == "miss"
    assert _cache_of(_last(session, SELECT_A)) == "hit"


def test_dml_plans_are_cached_too():
    """Subquery-bearing DML compiles a match plan, and that compiled
    (and rewritten) plan is cached. (Subquery-free DML is one direct
    kernel pass with nothing to compile, and DML coalesced into a
    batch takes the batch pipeline — both truthfully report
    ``cache="bypass"``.)"""
    session = _session()
    delete = "delete from B where exists (select * from A where X = 99);"
    session.run(delete)
    assert session.backend.last_cache == "miss"
    session.run(delete)
    assert session.backend.last_cache == "hit"
    session.run("delete from B where P = 7;")
    assert session.backend.last_cache == "bypass"  # subquery-free: no plan


# -- result memo precision -----------------------------------------------------------


def test_dml_on_other_table_keeps_the_memo(monkeypatch):
    """Inserting into B bumps only B's version: the memoized state for
    the select over A is still served, with no re-evaluation."""
    session = _session()
    session.run(SELECT_A)
    session.run("insert into B values (5);")

    def boom(*args, **kwargs):  # pragma: no cover - must not be reached
        raise AssertionError("memo miss: select over A was re-evaluated")

    monkeypatch.setattr(session.backend, "_evaluate", boom)
    result = _last(session, SELECT_A)
    assert result.cache == "hit"
    assert result.relation.sorted_rows() == [(1,), (2,), (3,)]


def test_dml_on_read_table_invalidates_the_memo():
    session = _session()
    session.run(SELECT_A)
    session.run("insert into A values (4, 40);")
    result = _last(session, SELECT_A)
    # The plan is still valid (same AST, same catalog) but the memoized
    # result is not: the fresh answer must include the new row.
    assert (4,) in result.relation.rows


def test_update_and_delete_invalidate_the_memo():
    session = _session()
    baseline = _last(session, SELECT_A).relation.sorted_rows()
    session.run("update A set X = X + 10 where Y = 10;")
    after_update = _last(session, SELECT_A).relation.sorted_rows()
    assert after_update != baseline and (11,) in after_update
    session.run("delete from A where X = 11;")
    after_delete = _last(session, SELECT_A).relation.sorted_rows()
    assert (11,) not in after_delete


def test_savepoint_rollback_rehits_the_memo(monkeypatch):
    """Versions live inside the representation, so rolling back restores
    the exact versions the memo entry was keyed on."""
    session = _session()
    before = _last(session, SELECT_A)
    mark = session.savepoint()
    session.run("insert into A values (4, 40);")
    assert (4,) in _last(session, SELECT_A).relation.rows
    session.rollback_to(mark)
    session.release(mark)
    monkeypatch.setattr(
        session.backend,
        "_evaluate",
        lambda *a, **k: pytest.fail("memo miss after rollback"),
    )
    replay = _last(session, SELECT_A)
    assert replay.cache == "hit"
    assert replay.relation.sorted_rows() == before.relation.sorted_rows()


def test_snapshot_restore_carries_versions():
    session = _session()
    token = session.export_snapshot()
    session.run("insert into A values (4, 40);")
    grown = _last(session, SELECT_A)
    assert (4,) in grown.relation.rows
    session.restore_snapshot(token)
    shrunk = _last(session, SELECT_A)
    assert shrunk.cache == "hit"
    assert (4,) not in shrunk.relation.rows


def test_rollback_then_redo_does_not_alias_versions():
    """Re-running the same insert after a rollback mints a *fresh*
    version (the ticker is global, never reset), so the post-insert
    memo entry from the first timeline cannot be served for the second
    timeline unless the states really coincide — and when they do
    coincide the answers agree, which is what we assert."""
    session = _session()
    mark = session.savepoint()
    session.run("insert into A values (4, 40);")
    first = _last(session, SELECT_A).relation.sorted_rows()
    session.rollback_to(mark)
    session.release(mark)
    session.run("insert into A values (4, 40);")
    second = _last(session, SELECT_A).relation.sorted_rows()
    assert second == first


def test_fresh_world_id_statements_never_memoize():
    """choice-of (and repair) mint fresh world ids per evaluation; the
    memo must not replay them."""
    session = _session()
    script = "Split <- select * from A choice of Y;"
    session.run(script)
    worlds = session.world_count()
    session.run("Split2 <- select * from A choice of Y;" + SELECT_A)
    assert session.world_count() == worlds * worlds


# -- the cache=False escape hatch ----------------------------------------------------


def test_session_level_cache_off_bypasses():
    session = _session(cache=False)
    assert _cache_of(_last(session, SELECT_A)) == "bypass"
    assert _cache_of(_last(session, SELECT_A)) == "bypass"
    info = session.cache_info()
    assert info.hits == 0 and info.entries == 0


def test_per_call_cache_override():
    session = _session()
    session.run(SELECT_A)
    assert _cache_of(session.run(SELECT_A, cache=False)[-1]) == "bypass"
    # The session default is untouched; the entry is still warm.
    assert _cache_of(_last(session, SELECT_A)) == "hit"


def test_backend_constructed_without_cache():
    session = ISQLSession(backend=InlineBackend(cache=False))
    session.register("A", Relation(("X",), [(1,)]))
    assert session.backend.cache is None
    assert _cache_of(_last(session, "select possible X from A;")) == "bypass"
    assert session.cache_info() == CacheInfo.empty()


def test_explicit_backend_reports_empty_cache_info():
    session = ISQLSession(backend=ExplicitBackend())
    session.register("A", Relation(("X",), [(1,)]))
    session.query("select possible X from A;")
    assert session.cache_info() == CacheInfo.empty()


def test_backend_rejects_bogus_cache_argument():
    with pytest.raises(EvaluationError):
        InlineBackend(cache="yes please")


# -- sharing and detaching -----------------------------------------------------------


def test_fork_shares_the_cache():
    session = _session()
    session.run(SELECT_A)
    fork = session.fork()
    assert fork.backend.cache is session.backend.cache
    assert _cache_of(_last(fork, SELECT_A)) == "hit"


def test_close_detaches_without_clearing_for_siblings():
    session = _session()
    session.run(SELECT_A)
    fork = session.fork()
    shared = session.backend.cache
    entries_before = shared.info().entries
    fork.close()
    assert fork.backend.cache is not shared
    assert len(fork.backend.cache.plans) == 0
    # The shared cache still holds the sibling's entries.
    assert shared.info().entries == entries_before
    assert _cache_of(_last(session, SELECT_A)) == "hit"


def test_close_preserves_configured_bounds():
    backend = InlineBackend(cache=StatementCache(plan_entries=7, memo_entries=3))
    backend.close()
    assert backend.cache.plans.maxsize == 7
    assert backend.cache.memo.maxsize == 3


def test_shared_statement_cache_instance():
    shared = StatementCache()
    first = ISQLSession(backend=InlineBackend(cache=shared))
    second = ISQLSession(backend=InlineBackend(cache=shared))
    for session in (first, second):
        session.register("A", Relation(("X", "Y"), [(1, 10)]))
    first.run(SELECT_A)
    # Same AST, same catalog, same world kind: the second session's
    # first execution is already a plan hit (its fresh table versions
    # make the *memo* miss, which must not downgrade the plan hit).
    assert _cache_of(_last(second, SELECT_A)) == "hit"


# -- LRU mechanics -------------------------------------------------------------------


def test_lru_get_put_and_eviction_order():
    lru = LRUCache(maxsize=2)
    assert lru.get("a") is MISS
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refreshes "a"
    lru.put("c", 3)  # evicts "b", the least recently used
    assert lru.get("b") is MISS
    assert lru.get("a") == 1 and lru.get("c") == 3
    assert len(lru) == 2
    assert lru.invalidations == 1


def test_lru_clear_counts_as_invalidations():
    lru = LRUCache(maxsize=4)
    lru.put("a", 1)
    lru.put("b", 2)
    lru.clear()
    assert len(lru) == 0
    assert lru.invalidations == 2


def test_lru_info_counters():
    lru = LRUCache(maxsize=4)
    lru.get("missing")
    lru.put("a", 1)
    lru.get("a")
    info = lru.info()
    assert info.hits == 1 and info.misses == 1 and info.entries == 1


def test_plan_cache_is_bounded():
    session = _session(cache=True)
    session.backend.cache.plans.maxsize = 2
    session.run(SELECT_A)
    session.run(SELECT_B)
    session.run("select certain X from A;")
    assert len(session.backend.cache.plans) <= 2


def test_statement_cache_info_aggregates():
    cache = StatementCache()
    cache.plans.put("p", 1)
    cache.memo.put("m", 2)
    cache.parses.put("s", 3)
    cache.plans.get("p")
    cache.parses.get("nope")
    info = cache.info()
    assert info.entries == 3
    assert info.hits == 1 and info.misses == 1
    assert info.bytes_estimate > 0
    cache.clear()
    assert cache.info().entries == 0


# -- the parse cache -----------------------------------------------------------------


def test_script_text_parse_is_cached():
    session = _session()
    session.run(SELECT_A)
    parses = session.backend.cache.parses
    hits_before = parses.hits
    session.run(SELECT_A)
    assert parses.hits == hits_before + 1


# -- StatementResult -----------------------------------------------------------------


def test_run_returns_statement_results():
    session = _session()
    results = session.run(
        "insert into B values (3);"
        "V <- select possible P from B;"
        + SELECT_B
    )
    kinds = [result.kind for result in results]
    assert kinds == ["insert", "assign", "select"]
    dml, assign, select = results
    assert dml.applied is True and dml.applied_count == 1
    assert dml.answer is None
    assert assign.applied is None
    assert select.relation.sorted_rows() == [(1,), (2,), (3,)]
    assert select.answers() == select._answer().answers()
    assert select.world_count() == 1
    assert all(result.route == "inline" for result in results)


def test_statement_result_without_answer_raises():
    session = _session()
    (result,) = session.run("insert into B values (9);")
    with pytest.raises(EvaluationError):
        result.answers()
    with pytest.raises(EvaluationError):
        _ = result.relation


def test_rejected_dml_counts_zero():
    session = _session()
    session.declare_key("A", ("X",))
    (result,) = session.run("insert into A values (1, 99);")  # X = 1 is taken
    assert result.applied is False and result.applied_count == 0


def test_run_records_phase_timings():
    session = _session()
    (result,) = session.run(SELECT_A)
    assert "execute" in result.phases or "compile" in result.phases
    (again,) = session.run(SELECT_A)
    assert "cache_lookup" in again.phases


def test_statement_result_repr_mentions_cache():
    session = _session()
    (result,) = session.run(SELECT_A)
    assert "cache='miss'" in repr(result)


def test_public_exports():
    import repro

    assert repro.StatementResult is StatementResult
    assert repro.CacheInfo is CacheInfo
    assert repro.StatementCache is StatementCache
    assert "StatementResult" in repro.__all__
    assert "CacheInfo" in repro.__all__


def test_cache_info_shape():
    session = _session()
    session.run(SELECT_A)
    info = session.cache_info()
    assert isinstance(info, CacheInfo)
    assert set(info._fields) == {
        "hits",
        "misses",
        "entries",
        "invalidations",
        "bytes_estimate",
    }
