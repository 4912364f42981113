"""Transactional sessions: atomic scripts, transaction(), savepoints.

Statement-level atomicity is structural (backends commit by swapping
immutable state references); this suite pins the *multi-statement*
layer built on top: ``run`` with ``atomic=True``,
the :meth:`ISQLSession.transaction` context manager, and the
savepoint stack — including that rollback restores views and declared
keys, not just the possible-worlds state.
"""

import pytest

from repro.errors import EvaluationError, ReproError, SchemaError
from repro.isql.session import ISQLSession, Savepoint
from repro.relational import Relation

BACKENDS = ["explicit", "inline", "inline-translate"]


@pytest.fixture
def bookings():
    return Relation(("Ref", "City"), [(1, "BCN"), (2, "ATL"), (3, "FRA")])


def _session(backend, bookings):
    session = ISQLSession(backend=backend)
    session.register("Bookings", bookings)
    return session


def _refs(session):
    return session.query("select * from Bookings;").possible().project(("Ref",))


@pytest.mark.parametrize("backend", BACKENDS)
class TestAtomicScripts:
    def test_atomic_script_commits_on_success(self, backend, bookings):
        session = _session(backend, bookings)
        results = session.run(
            "insert into Bookings values (4, 'PAR');"
            "delete from Bookings where City = 'ATL';",
            atomic=True,
        )
        assert [r.applied for r in results] == [True, True]
        assert _refs(session) == Relation(("Ref",), [(1,), (3,), (4,)])

    def test_atomic_script_rolls_back_wholesale(self, backend, bookings):
        session = _session(backend, bookings)
        before = session.world_set
        with pytest.raises(ReproError):
            session.run(
                "insert into Bookings values (4, 'PAR');"
                "delete from Bookings where Nope = 1;",  # unknown column
                atomic=True,
            )
        assert session.world_set == before  # the insert is gone too

    def test_default_script_keeps_committed_prefix(self, backend, bookings):
        session = _session(backend, bookings)
        with pytest.raises(ReproError):
            session.run(
                "insert into Bookings values (4, 'PAR');"
                "select * from Nowhere;"
            )
        assert _refs(session) == Relation(("Ref",), [(1,), (2,), (3,), (4,)])

    def test_atomic_execute_rolls_back_views_too(self, backend, bookings):
        session = _session(backend, bookings)
        with pytest.raises(ReproError):
            session.run(
                "create view Cities as select City from Bookings;"
                "select * from Nowhere;",
                atomic=True,
            )
        assert "Cities" not in session.views
        # The name is free again: re-creating it succeeds.
        session.run("create view Cities as select City from Bookings;")


@pytest.mark.parametrize("backend", BACKENDS)
class TestTransactionBlocks:
    def test_commit_on_clean_exit(self, backend, bookings):
        session = _session(backend, bookings)
        with session.transaction():
            session.run("insert into Bookings values (4, 'PAR');")
        assert _refs(session) == Relation(("Ref",), [(1,), (2,), (3,), (4,)])

    def test_rollback_restores_state_views_and_keys(self, backend, bookings):
        session = _session(backend, bookings)
        before = session.world_set
        with pytest.raises(RuntimeError):
            with session.transaction():
                session.run("insert into Bookings values (4, 'PAR');")
                session.run("create view Cities as select City from Bookings;")
                session.declare_key("Bookings", ("Ref",))
                raise RuntimeError("abort")
        assert session.world_set == before
        assert "Cities" not in session.views
        assert "Bookings" not in session.keys

    def test_nested_transactions_roll_back_independently(self, backend, bookings):
        session = _session(backend, bookings)
        with session.transaction():
            session.run("insert into Bookings values (4, 'PAR');")
            with pytest.raises(RuntimeError):
                with session.transaction():
                    session.run("delete from Bookings;")
                    raise RuntimeError("inner abort")
            # Outer work survives the inner rollback.
            assert _refs(session) == Relation(("Ref",), [(1,), (2,), (3,), (4,)])
        assert _refs(session) == Relation(("Ref",), [(1,), (2,), (3,), (4,)])

    def test_rolled_back_block_discards_its_savepoints(self, backend, bookings):
        session = _session(backend, bookings)
        outside = session.savepoint("outside")
        with pytest.raises(RuntimeError):
            with session.transaction():
                inside = session.savepoint("inside")
                raise RuntimeError("abort")
        with pytest.raises(EvaluationError):
            session.rollback_to(inside)
        session.rollback_to(outside)  # pre-existing savepoints survive


@pytest.mark.parametrize("backend", BACKENDS)
class TestSavepoints:
    def test_rollback_to_restores_and_is_repeatable(self, backend, bookings):
        session = _session(backend, bookings)
        mark = session.savepoint("clean")
        for _ in range(2):  # a savepoint survives its own rollback
            session.run("insert into Bookings values (4, 'PAR');")
            session.rollback_to(mark)
            assert _refs(session) == Relation(("Ref",), [(1,), (2,), (3,)])

    def test_rollback_discards_later_savepoints(self, backend, bookings):
        session = _session(backend, bookings)
        first = session.savepoint("first")
        session.run("insert into Bookings values (4, 'PAR');")
        second = session.savepoint("second")
        session.rollback_to(first)
        with pytest.raises(EvaluationError, match="unknown or released"):
            session.rollback_to(second)

    def test_release_keeps_work_but_invalidates_token(self, backend, bookings):
        session = _session(backend, bookings)
        mark = session.savepoint()
        session.run("insert into Bookings values (4, 'PAR');")
        session.release(mark)
        assert _refs(session) == Relation(("Ref",), [(1,), (2,), (3,), (4,)])
        with pytest.raises(EvaluationError, match="unknown or released"):
            session.rollback_to(mark)

    def test_release_drops_later_savepoints_too(self, backend, bookings):
        session = _session(backend, bookings)
        first = session.savepoint("first")
        second = session.savepoint("second")
        session.release(first)
        with pytest.raises(EvaluationError):
            session.rollback_to(second)

    def test_foreign_savepoint_is_rejected(self, backend, bookings):
        session = _session(backend, bookings)
        other = ISQLSession(backend=backend)
        other.register("Bookings", bookings)
        foreign = other.savepoint("elsewhere")
        with pytest.raises(EvaluationError, match="unknown or released"):
            session.rollback_to(foreign)

    def test_savepoints_compare_by_identity(self, backend, bookings):
        session = _session(backend, bookings)
        a = session.savepoint("same-name")
        b = session.savepoint("same-name")
        assert a is not b and a != b
        session.rollback_to(b)
        session.rollback_to(a)  # still valid: b was after a

    def test_savepoint_restores_keys_and_views(self, backend, bookings):
        session = _session(backend, bookings)
        mark = session.savepoint()
        session.declare_key("Bookings", ("Ref",))
        session.run("create view Cities as select City from Bookings;")
        session.rollback_to(mark)
        assert session.keys == {}
        assert session.views == {}


def test_savepoint_repr_names_itself(bookings):
    session = _session("inline", bookings)
    assert repr(session.savepoint("risky")) == "Savepoint('risky')"
    assert repr(session.savepoint()) == "Savepoint()"
    assert isinstance(session.savepoint(), Savepoint)


def test_register_conflict_after_rollback_is_gone(bookings):
    """Rolling back an assignment frees its relation name."""
    session = _session("inline", bookings)
    before = session.world_set
    with pytest.raises(RuntimeError):
        with session.transaction():
            session.run("B <- select * from Bookings choice of City;")
            raise RuntimeError("abort")
    assert session.world_set == before
    session.run("B <- select * from Bookings choice of City;")  # name free


def test_transaction_restores_across_world_splits(bookings):
    """Rollback across a world-count change (choice-of then back)."""
    for backend in BACKENDS:
        session = _session(backend, bookings)
        assert session.world_count() == 1
        with pytest.raises(RuntimeError):
            with session.transaction():
                session.run("B <- select * from Bookings choice of City;")
                assert session.world_count() == 3
                raise RuntimeError("abort")
        assert session.world_count() == 1
