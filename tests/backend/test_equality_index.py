"""Indexed equality selection ≡ the column-pass mask ≡ the tuple kernel.

The columnar kernel answers ``Attr = Const`` — a selection, or a DML
match alone or as the left conjunct of an ``and`` — from a hash index
that a committed table keeps across statements and that ``masked_assign``
carries to its result. That may change cost only. Randomized scripts of
selections, updates, deletes and inserts run three ways on the columnar
and array kernels — as the kernel runs them (indexed), with the index
switched off (the column-pass mask), and on the tuple kernel — and must
leave equal relations, equal answers, equal errors and an equal
``(op, rows)`` checkpoint sequence.

The values are the ones where a dict probe and ``==`` can part ways:
``1``/``1.0``/``True`` (equal, one hash), NaN both as one shared object
(a dict probe matches it by identity, ``==`` never does) and as distinct
objects, ⊥, negative ints, ints above 2⁵³ beside their float neighbours,
and unicode. NaN and ⊥ constants cannot be written in I-SQL, so the
kernel-level harness drives the ops directly; the session-level harness
runs I-SQL scripts on a ``choice of`` table. ``REPRO_FUZZ_SCRIPTS``
scales both for the nightly run.
"""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from repro.backend import InlineBackend
from repro.backend.testing import fuzz_range
from repro.errors import ReproError
from repro.isql import ISQLSession
from repro.relational import ColumnarRelation, Relation
from repro.relational.array_kernel import as_array, have_numpy
from repro.relational.columnar import as_columnar, as_tuple
from repro.relational.guards import op_hook
from repro.relational.pad import PAD
from repro.relational.predicates import And, Arith, Attr, Comparison, Const, Not, Or
from repro.service import dbapi

KERNELS = ("columnar",) + (("array",) if have_numpy() else ())

#: The NaN object shared by data and constants; FRESH draws a new one.
NAN = float("nan")
FRESH = object()
BIG = 2**53
VALUES = (1, 1.0, True, 0, -7, BIG, BIG + 1, float(BIG), NAN, FRESH, "ü", "日本", PAD)
CONSTANTS = VALUES + ("absent",)
ATTRS = ("A", "B", "C")


def _draw(rng: random.Random, pool=VALUES):
    value = rng.choice(pool)
    return float("nan") if value is FRESH else value


@contextmanager
def _unindexed():
    """Every equality runs the column-pass mask, as before the index."""
    served = ColumnarRelation._indexed_hits
    ColumnarRelation._indexed_hits = lambda self, predicate: None
    try:
        yield
    finally:
        ColumnarRelation._indexed_hits = served


# -- kernel level ----------------------------------------------------------------


def _equality(rng: random.Random) -> Comparison:
    attr, const = Attr(rng.choice(ATTRS)), Const(_draw(rng, CONSTANTS))
    if rng.random() < 0.5:
        return Comparison(attr, "=", const)
    return Comparison(const, "=", attr)


def _predicate(rng: random.Random):
    first = _equality(rng)
    other = Comparison(Attr(rng.choice(ATTRS)), "!=", Const(_draw(rng, CONSTANTS)))
    # Raises on a str or ⊥ in C, with one message whatever the row.
    raising = Comparison(Arith("+", Attr("C"), Const(1)), ">", Const(0))
    return rng.choice(
        (
            first,
            And(first, other),
            And(first, raising),
            And(And(first, _equality(rng)), other),
            And(other, first),
            Or(first, other),
            Not(first),
        )
    )


def _kernel_script(seed: int):
    rng = random.Random(seed)
    rows = [tuple(_draw(rng) for _ in ATTRS) for _ in range(rng.randint(0, 40))]
    # The first op is an equality the index serves on every script.
    script = [("select", Comparison(Attr("A"), "=", Const(1)))]
    for _ in range(rng.randint(4, 14)):
        kind = rng.choice(("select", "select", "update", "keep", "delete", "insert"))
        if kind == "update":
            position = rng.randrange(len(ATTRS))
            if rng.random() < 0.7:
                setting = (position, "const", _draw(rng, CONSTANTS))
            else:
                setting = (position, "col", rng.randrange(len(ATTRS)))
            script.append((kind, _predicate(rng), (setting,)))
        elif kind == "insert":
            script.append((kind, tuple(_draw(rng) for _ in ATTRS)))
        else:
            script.append((kind, _predicate(rng)))
    return Relation(ATTRS, rows), script


def _commit(kernel: str):
    """A rewritten table as a committed table's kernel twin."""
    if kernel == "tuple":
        return lambda state: state
    convert = as_array if kernel == "array" else as_columnar
    return lambda state: convert(as_tuple(state))


def _run_kernel(relation: Relation, script, kernel: str):
    commit = _commit(kernel)
    state = commit(relation)
    observed: list = []
    ops: list[tuple[str, int]] = []
    with op_hook(lambda op, rows: ops.append((op, rows))):
        for step in script:
            kind = step[0]
            try:
                if kind == "select":
                    observed.append(("rows", state.select(step[1]).rows))
                    continue
                if kind == "update":
                    state = state.masked_assign(state.predicate_mask(step[1]), step[2])
                elif kind == "keep":
                    state = state.compress(state.predicate_mask(step[1]))
                elif kind == "delete":
                    state = state.compress(state.predicate_mask(Not(step[1])))
                elif step[1] not in state.rows:
                    state = state.append_broadcast(list(step[1]), (), [()])
            except ReproError as error:
                observed.append(("error", type(error).__name__, str(error)))
                continue
            state = commit(state)
            observed.append(("table", state.rows))
    return observed, ops


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", fuzz_range(64))
def test_kernel_equality_scripts_agree_indexed_and_unindexed(kernel, seed):
    relation, script = _kernel_script(seed)
    served: list[int] = []
    hits = ColumnarRelation._indexed_hits

    def counted(self, predicate):
        result = hits(self, predicate)
        if result is not None:
            served.append(len(result))
        return result

    ColumnarRelation._indexed_hits = counted
    try:
        indexed = _run_kernel(relation, script, kernel)
    finally:
        ColumnarRelation._indexed_hits = hits
    with _unindexed():
        unindexed = _run_kernel(relation, script, kernel)
    reference = _run_kernel(relation, script, "tuple")
    assert indexed == unindexed, script
    assert indexed == reference, script
    if kernel == "columnar":
        assert served, "the index served no equality"


def test_nan_constants_never_match():
    """A NaN constant selects nothing, not even the very object in the
    column that a dict probe would find by identity."""
    fresh = float("nan")
    relation = Relation(("A", "B"), [(NAN, 1), (fresh, 2), (1.0, 3)])
    for kernel in KERNELS:
        table = _commit(kernel)(relation)
        for constant in (NAN, fresh, float("nan")):
            for predicate in (
                Comparison(Attr("A"), "=", Const(constant)),
                Comparison(Const(constant), "=", Attr("A")),
                And(
                    Comparison(Attr("A"), "=", Const(constant)),
                    Comparison(Attr("B"), "!=", Const(0)),
                ),
            ):
                assert not table.select(predicate), (kernel, predicate)
                assert not any(table.predicate_mask(predicate)), (kernel, predicate)
        one = table.select(Comparison(Attr("A"), "=", Const(True)))
        assert one.rows == {(1.0, 3)}


# -- session level ---------------------------------------------------------------

#: I-SQL literals: ints (negative, beyond 2⁵³), floats, unicode strings.
LITERALS = (
    "1", "1.0", "-7", "0", "9007199254740993", "9007199254740992.0",
    "'ü'", "'日本'", "'x'", "'nowhere'",
)
DEPARTURES = (1, 1.0, -7, BIG + 1, float(BIG), "ü", "日本", NAN)
ARRIVALS = (1, True, 0, BIG, "x", "ü", NAN, FRESH)

STATEMENTS = (
    "select possible Dep, Arr from Itin where Dep = {c};",
    "select certain Arr from Itin where {c} = Dep;",
    "select possible Arr from Itin where Dep = {c} and Arr != {d};",
    "select certain Dep from Itin where Arr = {c};",
    "update Itin set Arr = {c} where Dep = {d};",
    "update Itin set Arr = {c} where Dep = {d} and Arr = {e};",
    # Writes the indexed column itself (and the column the world id aliases).
    "update Itin set Dep = {c} where Dep = {d};",
    "update Itin set Arr = Dep where Arr = {c};",
    "delete from Itin where Dep = {c};",
    "delete from Itin where Arr = {c} and Dep != {d};",
    "insert into Itin values ({c}, {d});",
)


def _session_script(seed: int):
    rng = random.Random(seed)
    rows = [
        (_draw(rng, DEPARTURES), _draw(rng, ARRIVALS))
        for _ in range(rng.randint(1, 30))
    ]
    statements = [STATEMENTS[0].format(c="1")]
    for _ in range(rng.randint(4, 12)):
        statements.append(
            rng.choice(STATEMENTS).format(
                c=rng.choice(LITERALS), d=rng.choice(LITERALS), e=rng.choice(LITERALS)
            )
        )
    return Relation(("Dep", "Arr"), rows), statements


def _run_session(relation: Relation, statements, kernel: str):
    session = ISQLSession(backend=InlineBackend(kernel=kernel, cache=False))
    session.register("Flights", relation)
    session.run("Itin <- select * from Flights choice of Dep;")
    observed: list = []
    ops: list[tuple[str, int]] = []
    for statement in statements:
        try:
            with op_hook(lambda op, rows: ops.append((op, rows))):
                (result,) = session.run(statement)
        except ReproError as error:
            observed.append(("error", type(error).__name__, str(error)))
            continue
        if result.kind == "select":
            observed.append(frozenset(result.answers()))
        else:
            observed.append(result.applied)
        observed.append(session.world_set)
    return observed, ops


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("seed", fuzz_range(48))
def test_equality_scripts_agree_indexed_and_unindexed(kernel, seed):
    relation, statements = _session_script(seed)
    indexed = _run_session(relation, statements, kernel)
    with _unindexed():
        unindexed = _run_session(relation, statements, kernel)
    reference = _run_session(relation, statements, "tuple")
    assert indexed == unindexed, statements
    assert indexed == reference, statements


# -- index lifetime ----------------------------------------------------------------


def _itin_session(backend) -> ISQLSession:
    session = ISQLSession(backend=backend)
    session.register(
        "Flights",
        Relation(
            ("Dep", "Arr"),
            [("a", "x"), ("a", "y"), ("b", "x"), ("b", "z"), ("c", "y")],
        ),
    )
    session.run("Itin <- select * from Flights choice of Dep;")
    return session


def _committed_twin(session: ISQLSession) -> ColumnarRelation:
    backend = session.backend
    return backend._in_kernel(backend.representation.tables["Itin"])


def test_writes_never_serve_stale_positions():
    """After an update of the indexed column, a delete and an insert, an
    equality read answers from the rewritten table, never from the
    positions an earlier index recorded."""
    reads = [
        f"select possible Dep, Arr from Itin where Dep = '{dep}';"
        for dep in ("a", "b", "c", "d")
    ]
    writes = [
        "update Itin set Dep = 'd' where Dep = 'a';",
        "update Itin set Arr = 'w' where Dep = 'b' and Arr = 'x';",
        "delete from Itin where Arr = 'y';",
        "insert into Itin values ('a', 'v');",
        "delete from Itin where Dep = 'b';",
        "insert into Itin values ('b', 'x');",
    ]
    indexed = _itin_session(InlineBackend(kernel="columnar", cache=False))
    explicit = _itin_session("explicit")
    dep = (indexed.backend.representation.tables["Itin"].schema.index("Dep"),)
    for write in writes:
        for read in reads:
            assert indexed.query(read).answers() == explicit.query(read).answers()
        assert dep in _committed_twin(indexed)._indexes
        indexed.run(write)
        explicit.run(write)
        assert indexed.world_set == explicit.world_set, write
    for read in reads:
        assert indexed.query(read).answers() == explicit.query(read).answers()


def test_rolled_back_update_leaves_the_committed_index_untouched():
    """An uncommitted update hands its result a new index dict: after
    ``rollback()`` the committed table's dict is the same object with the
    same entries, though the transaction built an index of its own."""
    connection = dbapi.connect(_itin_session(InlineBackend(kernel="columnar")))
    read = "select possible Arr from Itin where Dep = ?;"
    before = connection.execute(read, ("a",)).fetchall()
    twin = _committed_twin(connection.session)
    indexes = twin._indexes
    entries = {
        positions: {key: list(rows) for key, rows in index.items()}
        for positions, index in indexes.items()
    }
    assert entries, "the read built no index"
    connection.execute("update Itin set Arr = 'w' where Dep = 'a' and Arr = 'x';")
    inside = _committed_twin(connection.session)
    # The update carried the Dep index over, into a dict of its own.
    assert inside is not twin and inside._indexes is not indexes
    assert inside._indexes.keys() == indexes.keys()
    assert sorted(connection.execute(read, ("a",)).fetchall()) == [("w",), ("y",)]
    connection.execute("select possible Dep from Itin where Arr = 'w';").fetchall()
    connection.rollback()
    assert _committed_twin(connection.session) is twin
    assert twin._indexes is indexes
    assert {
        positions: {key: list(rows) for key, rows in index.items()}
        for positions, index in indexes.items()
    } == entries
    assert connection.execute(read, ("a",)).fetchall() == before
    connection.close()
