"""PEP 249 conformance of the DBAPI facade (ISSUE 9).

Pins the module constants, the exception tree (rooted inside
``ReproError`` so the library-wide hygiene survives the facade), cursor
lifecycle and fetch semantics, parameter substitution, error shapes on
closed handles, the commit/rollback mapping onto the snapshot store,
and the snapshot-isolation surface (``pin_snapshot``).
"""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import ReproError
from repro.isql import ISQLSession
from repro.relational import Relation
from repro.service import dbapi
from repro.service.dbapi import connect
from repro.testing.faults import InjectedFault, inject_fault


@pytest.fixture
def conn():
    session = ISQLSession(backend="inline")
    session.register(
        "T", Relation(("K", "V"), [(1, 10), (2, 20), (3, 30)])
    )
    connection = connect(session)
    yield connection
    connection.close()


def test_module_constants():
    assert dbapi.apilevel == "2.0"
    assert dbapi.threadsafety == 1
    assert dbapi.paramstyle == "qmark"


def test_exception_tree_is_pep249_shaped_and_repro_rooted():
    assert issubclass(dbapi.Error, ReproError)
    for leaf in (
        dbapi.InterfaceError,
        dbapi.DatabaseError,
    ):
        assert issubclass(leaf, dbapi.Error)
    for leaf in (
        dbapi.DataError,
        dbapi.OperationalError,
        dbapi.IntegrityError,
        dbapi.InternalError,
        dbapi.ProgrammingError,
        dbapi.NotSupportedError,
    ):
        assert issubclass(leaf, dbapi.DatabaseError)
    assert issubclass(dbapi.Warning, Exception)
    assert not issubclass(dbapi.Warning, dbapi.Error)


def test_connect_rejects_unknown_sources_and_names():
    with pytest.raises(dbapi.InterfaceError):
        connect(42)
    with pytest.raises(dbapi.ProgrammingError) as info:
        connect("no_such_scenario")
    assert "trip_certain" in str(info.value)  # the message lists the registry


def test_connect_scenario_by_name_and_query(tmp_path):
    conn = connect("trip_certain")
    rows = conn.execute(
        "select certain Arr from HFlights choice of Dep;"
    ).fetchall()
    assert rows == [("A0",)]
    conn.close()


# -- cursor lifecycle and fetch semantics ------------------------------------------


def test_fetch_semantics_one_many_all(conn):
    cur = conn.cursor()
    cur.execute("select possible K, V from T;")
    assert cur.description == (
        ("K", None, None, None, None, None, None),
        ("V", None, None, None, None, None, None),
    )
    assert cur.rowcount == 3
    assert cur.fetchone() == (1, 10)
    assert cur.fetchmany(1) == [(2, 20)]
    assert cur.fetchall() == [(3, 30)]
    assert cur.fetchone() is None
    assert cur.fetchall() == []


def test_cursor_iteration_and_arraysize(conn):
    cur = conn.execute("select possible K from T;")
    assert list(cur) == [(1,), (2,), (3,)]
    cur.execute("select possible K from T;")
    cur.arraysize = 2
    assert cur.fetchmany() == [(1,), (2,)]


def test_execute_resets_prior_results(conn):
    cur = conn.cursor()
    cur.execute("select possible K from T;")
    cur.fetchone()
    cur.execute("select possible V from T;")
    assert cur.fetchall() == [(10,), (20,), (30,)]
    assert cur.description == (("V", None, None, None, None, None, None),)


def test_dml_sets_applied_not_rows(conn):
    cur = conn.execute("insert into T values (4, 40);")
    assert cur.applied is True
    assert cur.description is None
    assert cur.rowcount == -1
    with pytest.raises(dbapi.ProgrammingError):
        cur.fetchall()


def test_fetch_before_execute_raises(conn):
    with pytest.raises(dbapi.ProgrammingError):
        conn.cursor().fetchone()


def test_world_divergent_answer_refuses_fetch_but_keeps_result(conn):
    cur = conn.execute("select K, V from T choice of K;")
    with pytest.raises(dbapi.ProgrammingError) as info:
        cur.fetchall()
    assert "differs across worlds" in str(info.value)
    assert len(cur.result.answers()) == 3
    assert cur.result.possible().rows == {(1, 10), (2, 20), (3, 30)}


def test_executemany_runs_per_parameter_row(conn):
    cur = conn.cursor()
    cur.executemany(
        "insert into T values (?, ?);", [(7, 70), (8, 80)]
    )
    rows = conn.execute("select possible K from T where K >= 7;").fetchall()
    assert rows == [(7,), (8,)]


# -- parameter substitution --------------------------------------------------------


def test_qmark_substitution_types_and_literal_quotes(conn):
    cur = conn.execute("select possible K from T where K = ? and V = ?;", (2, 20))
    assert cur.fetchall() == [(2,)]
    # A '?' inside a string literal is not a placeholder.
    conn.execute("insert into T values (9, 90);")
    session = conn.session
    session.register("S", Relation(("Name",), [("?",), ("x",)]))
    cur = conn.execute("select possible Name from S where Name = '?';")
    assert cur.fetchall() == [("?",)]


def test_parameter_count_mismatch(conn):
    with pytest.raises(dbapi.InterfaceError):
        conn.execute("select possible K from T where K = ?;", ())
    with pytest.raises(dbapi.InterfaceError):
        conn.execute("select possible K from T where K = ?;", (1, 2))
    with pytest.raises(dbapi.InterfaceError):
        conn.execute("select possible K from T where K = ?;", "1")


def test_unrepresentable_parameters(conn):
    with pytest.raises(dbapi.DataError):
        # The I-SQL lexer has no quote escapes: quoted strings are out.
        conn.execute("select possible K from T where V = ?;", ("it's",))
    with pytest.raises(dbapi.NotSupportedError):
        conn.execute("select possible K from T where V = ?;", (None,))
    with pytest.raises(dbapi.NotSupportedError):
        conn.execute("select possible K from T where V = ?;", (True,))
    with pytest.raises(dbapi.InterfaceError):
        conn.execute("select possible K from T where V = ?;", (object(),))


FLOAT_EDGES = (
    1e-05, 1e16, -1e-05, 5e-324, 1.7976931348623157e308, 0.1, -0.0, 1e22, 2.5e-7,
)


def _random_floats(count: int) -> list[float]:
    rng = random.Random(7)
    drawn = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-40, 40) for _ in range(count)]
    return list(FLOAT_EDGES) + drawn + [rng.random() for _ in range(count)]


def test_float_parameters_round_trip_as_floats():
    """A float parameter reads back as the same float, still a float:
    exponent notation would not lex, and an integral float must not
    turn into an int literal."""
    from repro.isql.parser import parse_statement
    from repro.service.dbapi import _substitute

    for value in _random_floats(400):
        statement = parse_statement(
            _substitute("select possible K from T where V = ?;", (value,))
        )
        parsed = statement.where.right.value
        assert type(parsed) is float, (value, parsed)
        assert parsed == value and math.copysign(1, parsed) == math.copysign(1, value)


def test_float_parameters_select_their_rows():
    values = _random_floats(40)
    session = ISQLSession(backend="inline")
    session.register("F", Relation(("A", "inf", "nan"), [(v, 0, 0) for v in values]))
    connection = connect(session)
    for value in values:
        cursor = connection.execute("select possible A from F where A = ?;", (value,))
        assert cursor.fetchall() == [(value,)]
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(dbapi.NotSupportedError):
            connection.execute("select possible A from F where A = ?;", (value,))
    connection.close()


# -- error mapping -----------------------------------------------------------------


def test_parse_and_schema_errors_map_to_programming_error(conn):
    with pytest.raises(dbapi.ProgrammingError):
        conn.execute("select certain from from;")
    with pytest.raises(dbapi.ProgrammingError):
        conn.execute("select possible K from NoSuchRelation;")


def test_each_statement_parses_once(conn, monkeypatch):
    """The read/write classification and the run share the session's
    parse cache: one parse for a cold statement, none on a repeat."""
    import sys

    from repro.isql.parser import parse_script

    calls = []

    def counting(source):
        calls.append(source)
        return parse_script(source)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, "parse_script", None) is parse_script:
            monkeypatch.setattr(module, "parse_script", counting)
    for statement in ("select possible K from T;", "insert into T values (4, 40);"):
        conn.execute(statement)
        assert len(calls) == 1, statement
        conn.execute(statement)
        assert len(calls) == 1, statement
        calls.clear()


def test_resource_budget_maps_to_operational_error():
    session = ISQLSession(backend="inline")
    session.register("T", Relation(("K",), [(k,) for k in range(50)]))
    conn = connect(session, max_rows=3)
    with pytest.raises(dbapi.OperationalError):
        conn.execute("select possible K from T;")
    conn.close()


def test_memo_hit_decode_is_charged_to_the_row_budget():
    """A memo hit skips evaluation, so the cursor's decode of the
    answer is the statement's only kernel work — it must meet the
    connection's ``max_rows`` like the cache-off evaluation does."""
    query = "select possible K from T;"
    for cache in (False, True):
        session = ISQLSession(backend="inline")
        session.register("T", Relation(("K",), [(k,) for k in range(50)]))
        conn = connect(session, cache=cache)
        assert len(conn.execute(query).fetchall()) == 50  # warm the memo
        conn.session.max_rows = 3
        with pytest.raises(dbapi.OperationalError):
            conn.execute(query)
        conn.close()


def test_fault_in_cursor_decode_surfaces_as_a_chained_dbapi_error():
    query = "select certain Arr from HFlights choice of Dep;"
    conn = connect("trip_certain")
    expected = conn.execute(query).fetchall()
    with inject_fault(1, op="world_answers") as fault:
        with pytest.raises(dbapi.DatabaseError) as info:
            conn.execute(query)
    assert fault.fired
    causes = []
    error = info.value
    while error is not None:
        causes.append(error)
        error = error.__cause__
    assert any(isinstance(cause, InjectedFault) for cause in causes)
    assert conn.execute(query).fetchall() == expected
    conn.close()


@pytest.mark.parametrize(
    "name, value", [("max_seconds", float("nan")), ("max_rows", "10")]
)
def test_invalid_budget_is_rejected_naming_it(name, value):
    session = ISQLSession(backend="inline")
    session.register("T", Relation(("K",), [(k,) for k in range(50)]))
    conn = connect(session, **{name: value})
    with pytest.raises(dbapi.DatabaseError) as info:
        conn.execute("select possible K from T;")
    assert not isinstance(info.value, dbapi.OperationalError)
    assert f"{name} must be" in str(info.value)
    assert repr(value) in str(info.value)
    conn.session.max_rows = conn.session.max_seconds = None
    assert len(conn.execute("select possible K from T;").fetchall()) == 50
    conn.session.max_seconds = float("nan")  # attribute assignment too
    with pytest.raises(dbapi.DatabaseError, match="max_seconds"):
        conn.execute("select possible K from T;")
    conn.close()


# -- closed-handle error shapes ----------------------------------------------------


def test_closed_cursor_error_shapes(conn):
    cur = conn.execute("select possible K from T;")
    cur.close()
    for call in (
        lambda: cur.execute("select possible K from T;"),
        cur.fetchone,
        cur.fetchall,
    ):
        with pytest.raises(dbapi.InterfaceError, match="cursor is closed"):
            call()


def test_closed_connection_error_shapes():
    conn = connect("trip_certain")
    cur = conn.cursor()
    conn.close()
    conn.close()  # idempotent
    for call in (
        conn.cursor,
        lambda: conn.execute("select possible Arr from HFlights;"),
        conn.commit,
        conn.rollback,
        conn.pin_snapshot,
        lambda: cur.execute("select possible Arr from HFlights;"),
    ):
        with pytest.raises(dbapi.InterfaceError):
            call()


# -- transactions over the snapshot store ------------------------------------------


def test_commit_publishes_rollback_discards(conn):
    peer = connect(conn.store)
    conn.execute("insert into T values (5, 50);")
    assert conn.in_transaction
    assert peer.execute("select possible K from T where K = 5;").fetchall() == []
    conn.commit()
    assert not conn.in_transaction
    assert peer.execute("select possible K from T where K = 5;").fetchall() == [(5,)]

    conn.execute("insert into T values (6, 60);")
    conn.rollback()
    assert peer.execute("select possible K from T where K = 6;").fetchall() == []
    assert conn.execute("select possible K from T where K = 6;").fetchall() == []
    peer.close()


def test_commit_and_rollback_without_transaction_are_noops(conn):
    conn.commit()
    conn.rollback()
    assert conn.version == conn.store.version


def test_transaction_spans_multiple_statements_atomically(conn):
    peer = connect(conn.store)
    conn.execute("insert into T values (5, 50);")
    conn.execute("delete from T where K = 1;")
    conn.execute("Split <- select * from T choice of V;")
    assert peer.execute("select possible K from T;").fetchall() == [(1,), (2,), (3,)]
    conn.commit()
    assert peer.execute("select possible K from T where K = 5;").fetchall() == [(5,)]
    assert "Split" in peer.session.relation_names()
    peer.close()


def test_autocommit_publishes_per_execute():
    session = ISQLSession(backend="inline")
    session.register("T", Relation(("K",), [(1,)]))
    conn = connect(session, autocommit=True)
    peer = connect(conn.store)
    conn.execute("insert into T values (2);")
    assert not conn.in_transaction
    assert peer.execute("select possible K from T;").fetchall() == [(1,), (2,)]
    # An autocommit script is all-or-nothing: a failing statement
    # publishes nothing and releases the writer lock.
    with pytest.raises(dbapi.ProgrammingError):
        conn.execute("insert into T values (3); select broken syntax from;")
    assert not conn.in_transaction
    assert peer.execute("select possible K from T;").fetchall() == [(1,), (2,)]
    peer.execute("insert into T values (9);")  # lock is free
    peer.commit()
    conn.close()
    peer.close()


def test_connection_context_manager_commits_or_rolls_back():
    session = ISQLSession(backend="inline")
    session.register("T", Relation(("K",), [(1,)]))
    conn = connect(session)
    with conn:
        conn.execute("insert into T values (2);")
    assert conn.store.version == 1
    with pytest.raises(RuntimeError):
        with conn:
            conn.execute("insert into T values (3);")
            raise RuntimeError("boom")
    assert conn.execute("select possible K from T;").fetchall() == [(1,), (2,)]
    conn.close()


def test_close_rolls_back_open_transaction():
    session = ISQLSession(backend="inline")
    session.register("T", Relation(("K",), [(1,)]))
    conn = connect(session)
    peer = connect(conn.store)
    conn.execute("insert into T values (2);")
    conn.close()
    # The writer lock was released and nothing was published.
    peer.execute("insert into T values (3);")
    peer.commit()
    assert peer.execute("select possible K from T;").fetchall() == [(1,), (3,)]
    peer.close()


def test_lock_timeout_surfaces_as_operational_error():
    session = ISQLSession(backend="inline")
    session.register("T", Relation(("K",), [(1,)]))
    writer = connect(session)
    blocked = connect(writer.store, lock_timeout=0.01)
    writer.execute("insert into T values (2);")
    with pytest.raises(dbapi.OperationalError, match="writer lock"):
        blocked.execute("insert into T values (3);")
    writer.commit()
    blocked.execute("insert into T values (3);")  # lock free again
    blocked.commit()
    writer.close()
    blocked.close()


# -- snapshot isolation ------------------------------------------------------------


def test_read_committed_by_default_pinned_snapshot_on_demand(conn):
    reader = connect(conn.store)
    assert reader.execute("select possible K from T;").fetchall() == [
        (1,),
        (2,),
        (3,),
    ]
    pinned = reader.pin_snapshot()
    conn.execute("insert into T values (5, 50);")
    conn.commit()
    # Pinned: the committed write stays invisible however often we read.
    assert reader.execute("select possible K from T where K = 5;").fetchall() == []
    assert reader.version == pinned
    reader.unpin_snapshot()
    assert reader.execute("select possible K from T where K = 5;").fetchall() == [
        (5,)
    ]
    reader.close()


def test_pinned_connection_refuses_writes(conn):
    reader = connect(conn.store)
    reader.pin_snapshot()
    with pytest.raises(dbapi.ProgrammingError, match="pinned"):
        reader.execute("insert into T values (5, 50);")
    reader.unpin_snapshot()
    reader.execute("insert into T values (5, 50);")
    reader.rollback()
    reader.close()


def test_pin_inside_transaction_is_refused(conn):
    conn.execute("insert into T values (5, 50);")
    with pytest.raises(dbapi.ProgrammingError):
        conn.pin_snapshot()
    conn.rollback()
