"""SessionPool unit coverage (ISSUE 9).

Checkout/checkin discipline, exhaustion and timeout, double release,
thread pinning, the guard (``max_rows``/``max_seconds``) passthrough,
per-thread isolation of faults, budgets and phase timings, idle retirement, closed-pool behavior, and the headline isolation
property: a reader holding a pinned snapshot sees a consistent state
while a writer runs a DML batch on another pooled connection.
"""

from __future__ import annotations

import contextlib
import sys
import threading

import pytest

from repro.backend import InlineBackend
from repro.datagen import flights
from repro.errors import OwnershipError, ResourceLimitError
from repro.isql import ISQLSession
from repro.relational import ColumnarRelation, Relation
from repro.service import SessionPool, dbapi
from repro.testing.faults import InjectedFault, count_ops, inject_fault


def _seed(rows=((1, 10), (2, 20), (3, 30))) -> ISQLSession:
    session = ISQLSession(backend="inline")
    session.register("T", Relation(("K", "V"), rows))
    return session


def test_acquire_release_reuses_connections():
    pool = SessionPool(_seed(), size=2)
    first = pool.acquire()
    assert pool.checked_out == 1 and pool.idle == 0
    pool.release(first)
    assert pool.checked_out == 0 and pool.idle == 1
    again = pool.acquire()
    assert again is first  # parked connection reused, not rebuilt
    pool.release(again)
    pool.close()


def test_context_manager_commits_the_unit_of_work():
    pool = SessionPool(_seed(), size=1)
    with pool.connection() as conn:
        conn.execute("insert into T values (4, 40);")
    with pool.connection() as conn:
        rows = conn.execute("select possible K from T where K = 4;").fetchall()
    assert rows == [(4,)]
    pool.close()


def test_context_manager_rolls_back_on_error():
    pool = SessionPool(_seed(), size=1)
    with pytest.raises(RuntimeError):
        with pool.connection() as conn:
            conn.execute("insert into T values (4, 40);")
            raise RuntimeError("boom")
    with pool.connection() as conn:
        assert conn.execute("select possible K from T where K = 4;").fetchall() == []
    pool.close()


def test_exhaustion_blocks_then_times_out():
    pool = SessionPool(_seed(), size=1)
    held = pool.acquire()
    with pytest.raises(dbapi.OperationalError, match="pool exhausted"):
        pool.acquire(timeout=0.01)
    pool.release(held)
    reacquired = pool.acquire(timeout=0.01)  # free again
    pool.release(reacquired)
    pool.close()


def test_release_unblocks_a_waiting_acquirer():
    pool = SessionPool(_seed(), size=1)
    held = pool.acquire()
    got = []

    def waiter():
        connection = pool.acquire(timeout=5.0)
        got.append(connection)
        pool.release(connection)

    thread = threading.Thread(target=waiter)
    thread.start()
    pool.release(held)
    thread.join(timeout=5.0)
    assert not thread.is_alive() and got


def test_double_release_raises():
    pool = SessionPool(_seed(), size=2)
    conn = pool.acquire()
    pool.release(conn)
    with pytest.raises(dbapi.InterfaceError, match="double release"):
        pool.release(conn)
    pool.close()


def test_release_of_foreign_connection_raises():
    pool = SessionPool(_seed(), size=1)
    foreign = dbapi.connect(_seed())
    with pytest.raises(dbapi.InterfaceError):
        pool.release(foreign)
    foreign.close()
    pool.close()


def test_pooled_connection_is_pinned_to_acquiring_thread():
    pool = SessionPool(_seed(), size=1)
    conn = pool.acquire()
    errors = []

    def misuse():
        try:
            conn.execute("select possible K from T;")
        except Exception as error:  # noqa: BLE001 - asserted below
            errors.append(error)

    thread = threading.Thread(target=misuse)
    thread.start()
    thread.join()
    assert len(errors) == 1
    # The facade maps OwnershipError into the DBAPI tree.
    assert isinstance(errors[0], dbapi.ProgrammingError)
    assert isinstance(errors[0].__cause__, OwnershipError)
    conn.execute("select possible K from T;")  # owner thread still fine
    pool.release(conn)
    # Released: the pin is lifted, another thread may acquire it.
    got = []
    thread = threading.Thread(
        target=lambda: got.append(pool.acquire(timeout=1.0))
    )
    thread.start()
    thread.join()
    assert got and got[0] is conn
    pool.close()


def test_guard_passthrough_arms_every_pooled_connection():
    seed = _seed(rows=[(k, k) for k in range(50)])
    pool = SessionPool(seed, size=2, max_rows=3)
    with pool.connection() as conn:
        assert conn.session.max_rows == 3
        with pytest.raises(dbapi.OperationalError):
            conn.execute("select possible K from T;")
    pool.close()


@pytest.mark.parametrize(
    "name, value", [("max_seconds", float("nan")), ("max_rows", "10")]
)
def test_invalid_guard_passthrough_is_rejected_naming_it(name, value):
    pool = SessionPool(_seed(), size=2, **{name: value})
    with pytest.raises(dbapi.DatabaseError) as info:
        with pool.connection() as conn:
            conn.execute("select possible K from T;")
    assert not isinstance(info.value, dbapi.OperationalError)
    assert f"{name} must be" in str(info.value)
    assert repr(value) in str(info.value)
    pool.close()


#: Reads for the isolation test, cheapest first: under a 400-row budget
#: the first two fit (302/304 rows read) and the last two trip it.
_LOCKSTEP_READS = (
    "select possible V from T where K = 5;",
    "select possible K, V from T where K < 4;",
    "select possible K from T where V > 3;",
    "select certain V from T choice of K;",
)


def test_pooled_threads_keep_faults_budgets_and_phases_apart():
    """Two pooled connections run the same reads in lockstep on two
    threads. One is armed: a fault injected in its second read and a
    ``max_rows`` budget its scans trip. The other is not, and nothing
    armed on the first thread reaches it. Each thread's phase timings
    are its own: only the armed connection caches, so only it times
    ``cache_lookup``, and its cache hits time no compile or rewrite."""
    rows = [(k, k % 7) for k in range(300)]
    reference = dbapi.connect(_seed(rows), cache=False)
    expected = {}
    for statement in _LOCKSTEP_READS:
        cursor = reference.execute(statement)
        expected[statement] = (sorted(cursor.fetchall()), set(cursor.phases))
    # Binding a cursor reads the answer too: count the whole execute,
    # so the fault lands on the first op of the second read.
    fault_at = count_ops(lambda: reference.execute(_LOCKSTEP_READS[0])) + 1
    reference.close()
    pool = SessionPool(_seed(rows), size=2)
    barrier = threading.Barrier(2, timeout=30)
    outcomes: dict[str, list] = {"armed": [], "unarmed": []}
    crashes = []

    def run(name: str) -> None:
        try:
            with pool.connection() as conn:
                if name == "armed":
                    conn.session.max_rows = 400
                    armed = inject_fault(fault_at)
                else:
                    conn.session.cache = False
                    armed = contextlib.nullcontext()
                with armed:
                    for statement in _LOCKSTEP_READS * 3:
                        barrier.wait()
                        try:
                            cursor = conn.execute(statement)
                        except dbapi.OperationalError as error:
                            outcomes[name].append((statement, error))
                        else:
                            fetched = sorted(cursor.fetchall())
                            outcome = (fetched, cursor.cache, set(cursor.phases))
                            outcomes[name].append((statement, outcome))
        except Exception as error:  # noqa: BLE001 - surfaced below
            barrier.abort()
            crashes.append(error)

    threads = [threading.Thread(target=run, args=(name,)) for name in outcomes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two reads op by op
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not crashes
    pool.close()

    for statement, outcome in outcomes["unarmed"]:
        rows, phases = expected[statement]  # the serial run's
        assert not isinstance(outcome, Exception), outcome
        assert outcome == (rows, "bypass", phases)

    causes = []
    for statement, outcome in outcomes["armed"]:
        if isinstance(outcome, Exception):
            causes.append(type(outcome.__cause__.__cause__ or outcome.__cause__))
            continue
        causes.append(None)
        rows, cache, phases = outcome
        assert rows == expected[statement][0]
        own = expected[statement][1] | {"cache_lookup"}
        if cache == "hit":  # a served plan: compiled by nobody here
            own -= {"compile", "rewrite"}
        assert "cache_lookup" in phases and phases <= own
    # The fault lands where the armed thread's own op count puts it,
    # and only the two reads over budget trip, every round.
    tripped = [None, None, ResourceLimitError, ResourceLimitError]
    assert causes == [None, InjectedFault] + tripped[2:] + tripped * 2


def test_release_rolls_back_open_transactions():
    pool = SessionPool(_seed(), size=1)
    conn = pool.acquire()
    conn.execute("insert into T values (4, 40);")
    assert conn.in_transaction
    pool.release(conn)  # must not park a held writer lock
    with pool.connection() as conn:
        assert conn.execute("select possible K from T where K = 4;").fetchall() == []
        conn.execute("insert into T values (5, 50);")  # lock acquirable
    pool.close()


def test_max_idle_retires_excess_connections():
    pool = SessionPool(_seed(), size=3, max_idle=1)
    connections = [pool.acquire() for _ in range(3)]
    for connection in connections:
        pool.release(connection)
    assert pool.idle == 1  # two of the three were closed, not parked
    pool.close()


def test_closed_pool_refuses_acquire_and_closes_strays():
    pool = SessionPool(_seed(), size=2)
    stray = pool.acquire()
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(dbapi.InterfaceError, match="pool is closed"):
        pool.acquire()
    pool.release(stray)  # checked-out connection comes home to be closed
    with pytest.raises(dbapi.InterfaceError):
        stray.execute("select possible K from T;")
    assert pool.idle == 0


def test_shared_store_commit_visibility_across_pooled_connections():
    pool = SessionPool(_seed(), size=2)
    writer = pool.acquire()
    reader = pool.acquire()
    writer.execute("insert into T values (4, 40);")
    assert reader.execute("select possible K from T where K = 4;").fetchall() == []
    writer.commit()
    assert reader.execute("select possible K from T where K = 4;").fetchall() == [
        (4,)
    ]
    pool.release(writer)
    pool.release(reader)
    pool.close()


def test_snapshot_read_during_dml_batch_isolation():
    """The headline property: a pinned reader sees one consistent state
    end to end while a writer's multi-statement DML batch runs and even
    commits on another connection."""
    pool = SessionPool(_seed(), size=2)
    reader = pool.acquire()
    writer = pool.acquire()
    before = reader.execute("select possible K, V from T;").fetchall()
    reader.pin_snapshot()
    writer.execute(
        "update T set V = 0 where K = 1;"
        "delete from T where K = 2;"
        "insert into T values (9, 90);"
    )
    assert reader.execute("select possible K, V from T;").fetchall() == before
    writer.commit()
    assert reader.execute("select possible K, V from T;").fetchall() == before
    reader.unpin_snapshot()
    assert reader.execute("select possible K, V from T;").fetchall() == [
        (1, 0),
        (3, 30),
        (9, 90),
    ]
    pool.release(reader)
    pool.release(writer)
    pool.close()


def test_pool_from_scenario_name_and_repr():
    pool = SessionPool("trip_certain", size=1)
    with pool.connection() as conn:
        rows = conn.execute(
            "select certain Arr from HFlights choice of Dep;"
        ).fetchall()
    assert rows == [("A0",)]
    assert "SessionPool(size=1" in repr(pool)
    pool.close()


def test_pool_size_validation():
    with pytest.raises(dbapi.InterfaceError):
        SessionPool(_seed(), size=0)


# -- the pool-wide statement cache (PR 10) -------------------------------------------


def test_pool_wide_cache_is_shared_across_connections():
    """A statement compiled on one connection is a cache hit on every
    other: pooled sessions fork from the store template and share its
    statement cache by reference."""
    pool = SessionPool(_seed(), size=2)
    query = "select possible K, V from T;"
    first = pool.acquire()
    second = pool.acquire()
    cursor = first.execute(query)
    assert cursor.cache == "miss"
    # Same snapshot, same table versions: the second connection's very
    # first execution hits both the plan cache and the result memo.
    assert second.execute(query).cache == "hit"
    assert pool.cache_info().hits > 0
    assert first.cache_info() == pool.cache_info()
    pool.release(first)
    pool.release(second)
    pool.close()


def test_retired_connections_do_not_pin_or_grow_the_shared_cache():
    """No-growth across checkout cycles: retiring a connection detaches
    its session from the shared cache (so it cannot pin memoized
    relations), and repeated cycles of the same statement leave the
    shared entry count flat."""
    pool = SessionPool(_seed(), size=2, max_idle=0)  # every release retires
    shared = pool.store._template.backend.cache
    query = "select possible K, V from T;"
    connection = pool.acquire()
    connection.execute(query)
    entries = pool.cache_info().entries
    pool.release(connection)  # retired: max_idle=0
    # The retired session holds a *fresh, empty* cache — the shared one
    # is unreachable from it, so its memoized relations are not pinned.
    assert connection.session.backend.cache is not shared
    assert connection.session.backend.cache.info().entries == 0
    assert shared.info().entries == entries
    for _ in range(10):
        with pool.connection() as cycled:
            assert cycled.execute(query).cache == "hit"
        assert pool.cache_info().entries == entries, "cache grew across cycles"
    pool.close()


def test_pool_cache_escape_hatch():
    pool = SessionPool(_seed(), size=1, cache=False)
    with pool.connection() as connection:
        assert connection.execute("select possible K from T;").cache == "bypass"
        assert connection.execute("select possible K from T;").cache == "bypass"
    info = pool.cache_info()
    assert info.hits == 0 and info.entries == 0
    pool.close()


def test_split_table_reads_keep_the_world_id_alias(monkeypatch):
    """On a pooled split table, a committed update and the pool's probe
    close keep the world id an alias of Dep, so the certain read
    projects onto (Arr, id) without a deduplication pass."""
    relation = flights(24, 8, 3, seed=3)
    departures = sorted({dep for dep, _ in relation.rows})
    # A hub every departure reaches keeps the certain answer non-empty.
    relation = Relation(
        relation.schema, list(relation.rows) + [(dep, "HUB") for dep in departures]
    )
    dep, arr = min(row for row in relation.rows if row[1] != "HUB")
    sql = (
        ("update Itin set Arr = ? where Dep = ? and Arr = ?;", ("MARK", dep, arr)),
        ("select certain Arr from Itin where Arr != ?;", (arr,)),
    )
    deduped: list[int] = []
    dedup = ColumnarRelation._deduped.__func__

    def counted(cls, schema, rows):
        result = dedup(cls, schema, rows)
        deduped.append(len(result))
        return result

    monkeypatch.setattr(ColumnarRelation, "_deduped", classmethod(counted))
    answers = {}
    for name, backend in (
        ("inline", InlineBackend(kernel="columnar")),
        ("explicit", "explicit"),
    ):
        session = ISQLSession(backend=backend)
        session.register("HFlights", relation)
        session.run("Itin <- select * from HFlights choice of Dep;")
        deduped.clear()  # the set-up's projection onto the choices
        pool = SessionPool(session, size=1, autocommit=True)
        observed = []
        for statement, params in sql:
            with pool.connection() as connection:
                cursor = connection.execute(statement, params)
                observed.append(
                    cursor.fetchall() if cursor.description else cursor.applied
                )
        pool.close()
        answers[name] = observed
        if name == "inline":
            assert max(deduped, default=0) <= 4
    assert answers["inline"] == answers["explicit"]
    assert answers["inline"][1] == [("HUB",)]


def _itin_pool(relation, backend) -> SessionPool:
    session = ISQLSession(backend=backend)
    session.register("HFlights", relation)
    session.run("Itin <- select * from HFlights choice of Dep;")
    return SessionPool(session, size=2, autocommit=True)


def _fetch(pool: SessionPool, statement: str, params=()):
    with pool.connection() as connection:
        cursor = connection.execute(statement, params)
        return cursor.fetchall() if cursor.description else cursor.applied


def test_equality_read_after_update_reuses_the_committed_index(monkeypatch):
    """On a pooled split table, the ``Dep = ?`` read after an update of
    Arr probes the index the committed table already holds: the update
    carries it over, so no index is built and no comparison pass runs
    over the table; the update's ``Arr = ?`` conjunct reads the Dep
    bucket alone."""
    relation = flights(24, 8, 3, seed=3)
    dep, arr = min(relation.rows)
    other = max(relation.rows)[0]
    read = "select possible Arr from Itin where Dep = ?;"
    builds: list[int] = []
    passes: list[int] = []
    index = ColumnarRelation._index
    compare = ColumnarRelation._compare_mask
    row_mask = ColumnarRelation._row_mask

    def counted_index(self, positions):
        if self._resident and positions not in self._indexes:
            builds.append(len(self))
        return index(self, positions)

    def counted_compare(self, comparison):
        passes.append(len(self))
        return compare(self, comparison)

    def counted_rows(self, predicate):
        passes.append(len(self))
        return row_mask(self, predicate)

    monkeypatch.setattr(ColumnarRelation, "_index", counted_index)
    monkeypatch.setattr(ColumnarRelation, "_compare_mask", counted_compare)
    monkeypatch.setattr(ColumnarRelation, "_row_mask", counted_rows)
    answers = {}
    for name, backend in (
        ("inline", InlineBackend(kernel="columnar")),
        ("explicit", "explicit"),
    ):
        pool = _itin_pool(relation, backend)
        observed = [_fetch(pool, read, (dep,))]  # first touch builds the index
        builds.clear()
        passes.clear()
        observed.append(
            _fetch(
                pool,
                "update Itin set Arr = ? where Dep = ? and Arr = ?;",
                ("MARK", dep, arr),
            )
        )
        observed += [_fetch(pool, read, (dep,)), _fetch(pool, read, (other,))]
        pool.close()
        answers[name] = observed
        if name == "inline":
            assert builds == []
            assert max(passes, default=0) <= 4
    assert answers["inline"] == answers["explicit"]
    assert ("MARK",) in answers["inline"][2]


def test_concurrent_first_touch_sees_only_complete_indexes(monkeypatch):
    """Two pooled threads probe the same shared table while neither has
    an index yet. One is held mid-build; the other must still answer
    from a complete index, because an index is published only whole."""
    relation = flights(24, 8, 3, seed=5)
    departures = sorted({row[0] for row in relation.rows})
    read = "select possible Arr from Itin where Dep = ?;"
    reference = _itin_pool(relation, "explicit")
    expected = {dep: sorted(_fetch(reference, read, (dep,))) for dep in departures}
    reference.close()
    pool = _itin_pool(relation, InlineBackend(kernel="columnar"))
    building = threading.local()
    entered, release = threading.Event(), threading.Event()
    held: list[int] = []
    index, tuples = ColumnarRelation._index, ColumnarRelation.tuples

    def tracked_index(self, positions):
        building.active = self._resident
        try:
            return index(self, positions)
        finally:
            building.active = False

    def held_tuples(self, attributes):
        stream = tuples(self, attributes)
        if not getattr(building, "active", False) or held:
            return stream
        held.append(threading.get_ident())

        def paused():
            for position, key in enumerate(stream):
                yield key
                if position == 0:
                    entered.set()
                    release.wait(10)

        return paused()

    monkeypatch.setattr(ColumnarRelation, "_index", tracked_index)
    monkeypatch.setattr(ColumnarRelation, "tuples", held_tuples)
    answers: dict[str, list] = {}

    def reader(dep: str) -> None:
        answers[dep] = sorted(_fetch(pool, read, (dep,)))

    first = threading.Thread(target=reader, args=(departures[0],))
    first.start()
    assert entered.wait(10), "the first reader never started an index build"
    second = threading.Thread(target=reader, args=(departures[-1],))
    second.start()
    second.join(10)
    release.set()
    first.join(10)
    assert not first.is_alive() and not second.is_alive()
    pool.close()
    assert answers == {dep: expected[dep] for dep in (departures[0], departures[-1])}


def test_pooled_equality_reads_under_fast_switching():
    """More reader threads than cores, switching every microsecond, all
    first-touching shared tables: every answer equals the explicit one."""
    relation = flights(32, 8, 3, seed=7)
    departures = sorted({row[0] for row in relation.rows})
    read = "select possible Arr from Itin where Dep = ?;"
    reference = _itin_pool(relation, "explicit")
    expected = {dep: sorted(_fetch(reference, read, (dep,))) for dep in departures}
    reference.close()
    pool = _itin_pool(relation, InlineBackend(kernel="columnar", cache=False))
    readers = 4
    wrong: list[str] = []
    barrier = threading.Barrier(readers)

    def reader(offset: int) -> None:
        barrier.wait(10)
        for dep in departures[offset:] + departures[:offset]:
            if sorted(_fetch(pool, read, (dep,))) != expected[dep]:
                wrong.append(dep)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=reader, args=(i,)) for i in range(readers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    pool.close()
    assert wrong == []
