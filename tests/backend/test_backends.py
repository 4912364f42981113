"""Unit behavior of the backend layer (catalog, DML, fallbacks, guards)."""

import pytest

from repro.backend import (
    Backend,
    ExplicitBackend,
    InlineBackend,
    create_backend,
)
from repro.errors import EvaluationError, SchemaError
from repro.inline import InlinedRepresentation
from repro.isql import ISQLSession, inline_route
from repro.relational import Relation


@pytest.fixture(params=["explicit", "inline", "inline-translate"])
def session(request, flights):
    s = ISQLSession(backend=request.param)
    s.register("Flights", flights)
    return s


class TestBackendSelection:
    def test_create_backend_by_name(self):
        assert isinstance(create_backend("explicit"), ExplicitBackend)
        assert isinstance(create_backend("inline"), InlineBackend)
        translate = create_backend("inline-translate")
        assert isinstance(translate, InlineBackend)
        assert translate.strategy == "translate"

    def test_create_backend_passthrough(self):
        backend = InlineBackend()
        assert create_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(EvaluationError, match="unknown backend"):
            ISQLSession(backend="quantum")
        with pytest.raises(EvaluationError, match="strategy"):
            InlineBackend(strategy="quantum")

    def test_kind_labels(self):
        assert ExplicitBackend.kind == "explicit"
        assert InlineBackend.kind == "inline"
        assert issubclass(InlineBackend, Backend)


class TestCatalogParity:
    def test_register_and_names(self, session):
        assert session.relation_names() == ("Flights",)
        assert session.world_count() == 1

    def test_register_duplicate_rejected(self, session, flights):
        with pytest.raises(SchemaError):
            session.register("Flights", flights)

    def test_register_after_split_reaches_every_world(self, session):
        session.run("F <- select * from Flights choice of Dep;")
        session.register("Extra", Relation(("X",), [(1,)]))
        for world in session.world_set.worlds:
            assert world["Extra"].rows == {(1,)}

    def test_assignment_splits_session(self, session):
        session.run("F <- select * from Flights choice of Dep;")
        assert session.world_count() == 3
        assert session.relation_names() == ("Flights", "F")

    def test_closed_assignment_over_split_state(self, session):
        session.run("F <- select * from Flights choice of Dep;")
        session.run("C <- select certain Arr from F;")
        assert session.world_count() == 3
        for world in session.world_set.worlds:
            assert world["C"].rows == {("ATL",)}


class TestInlineSpecifics:
    def test_state_is_an_inlined_representation(self, flights):
        s = ISQLSession(backend="inline")
        s.register("Flights", flights)
        s.run("F <- select * from Flights choice of Dep;")
        representation = s.backend.representation
        assert isinstance(representation, InlinedRepresentation)
        assert representation.id_attrs  # worlds exist only as id columns
        assert representation.world_count() == 3

    def test_possible_certain_from_flat_tables(self, flights):
        s = ISQLSession(backend="inline")
        s.register("Flights", flights)
        result = s.query("select Arr from Flights choice of Dep;")
        assert result.possible().rows == {("BCN",), ("ATL",)}
        assert result.certain().rows == {("ATL",)}

    def test_world_set_decodes_on_demand(self, flights):
        s = ISQLSession(backend="inline")
        s.register("Flights", flights)
        result = s.query("select * from Flights choice of Dep;")
        assert result.world_count() == 3
        assert len(result.answers()) == 3

    def test_aggregation_runs_direct_on_flat_tables(self, flights):
        """Aggregation stays on the inlined representation (no fallback)."""
        s = ISQLSession(backend="inline")
        s.register("Flights", flights)
        result = s.query("select count(Arr) as N from Flights choice of Dep;")
        assert not s.backend.fallback_events
        assert result.possible().rows == {(2,), (1,)}
        assert result.certain().rows == set()

    def test_or_subqueries_run_direct(self, flights):
        """Condition subqueries under OR stay on the flat tables."""
        s = ISQLSession(backend="inline")
        s.register("Flights", flights)
        result = s.query(
            "select Arr from Flights where Arr = 'BCN' or "
            "Dep in (select Dep from Flights where Dep = 'PHL');"
        )
        assert not s.backend.fallback_events
        assert result.possible().rows == {("BCN",), ("ATL",)}

    def test_possible_certain_available_after_fallback(self, flights):
        """A fallback result must expose the same surface as a direct one."""
        s = ISQLSession(backend="inline")
        s.register("Flights", flights)
        # A non-column IN needle is part of the documented residue: it
        # still routes through the explicit engine.
        result = s.query(
            "select Arr from Flights where Arr = 'BCN' and "
            "'ATL' in (select Arr from Flights);"
        )
        assert s.backend.fallback_events
        assert result.possible().rows == {("BCN",)}
        assert result.certain().rows == {("BCN",)}

    def test_inline_route_classification(self, flights):
        schemas = {"Flights": ("Dep", "Arr")}
        assert inline_route(
            "select certain Arr from Flights choice of Dep;", schemas
        ) == "direct"
        # Aggregation and condition subqueries are now in the fragment …
        assert inline_route(
            "select count(Arr) from Flights;", schemas
        ) == "direct"
        assert inline_route(
            "select * from Flights where Dep in (select Dep from Flights);",
            schemas,
        ) == "direct"
        # Disjunctions over subqueries and non-aggregate scalar
        # subqueries joined the fragment with ISSUE 4 …
        assert inline_route(
            "select * from Flights where Arr = 'X' or "
            "Dep in (select Dep from Flights);",
            schemas,
        ) == "direct"
        assert inline_route(
            "select * from Flights where "
            "Arr = (select Arr from Flights where Dep = 'PHL');",
            schemas,
        ) == "direct"
        # … while the residue still falls back (non-column IN needle).
        assert inline_route(
            "select * from Flights where 'X' in (select Arr from Flights);",
            schemas,
        ) == "fallback"

    def test_fallback_events_are_bounded_and_cleared_on_close(self, flights):
        """Diagnostics must not grow without bound in long sessions."""
        from repro.backend.inline import FALLBACK_EVENT_LIMIT

        s = ISQLSession(backend="inline")
        s.register("Flights", flights)
        residue = (
            "select Arr from Flights where Arr = 'BCN' and "
            "'ATL' in (select Arr from Flights);"
        )
        for _ in range(FALLBACK_EVENT_LIMIT + 10):
            s.query(residue)
        assert len(s.backend.fallback_events) == FALLBACK_EVENT_LIMIT
        event = s.backend.fallback_events[-1]
        assert event.kind == "select" and event.clause == "where"
        s.close()
        assert not s.backend.fallback_events

    def test_fresh_ids_never_collide_across_statements(self, flights):
        s = ISQLSession(backend="inline")
        s.register("Flights", flights)
        s.run("F <- select * from Flights choice of Dep;")
        s.run("G <- select * from Flights choice of Dep;")
        assert s.world_count() == 9
        assert len(set(s.backend.representation.id_attrs)) == 2

    def test_max_worlds_guard(self):
        s = ISQLSession(max_worlds=3, backend="inline")
        s.register(
            "R", Relation(("A", "B"), [(i, j) for i in range(3) for j in range(2)])
        )
        with pytest.raises(EvaluationError, match="worlds"):
            s.run("X <- select * from R repair by key A;")

    def test_initial_representation_is_one_empty_world(self):
        backend = InlineBackend()
        assert backend.world_count() == 1
        assert len(backend.to_world_set()) == 1


class TestDMLParity:
    @pytest.fixture(params=["explicit", "inline"])
    def keyed(self, request):
        s = ISQLSession(backend=request.param)
        s.register("F", Relation(("K", "V"), [(1, "a"), (2, "b")]))
        s.declare_key("F", ("K",))
        return s

    def test_insert_discarded_on_violation(self, keyed):
        assert not keyed.run("insert into F values (1, 'c');")[0].applied
        assert keyed.world_set.the_world()["F"].rows == {(1, "a"), (2, "b")}

    def test_insert_update_delete_roundtrip(self, keyed):
        assert keyed.run("insert into F values (3, 'c');")[0].applied
        assert keyed.run("update F set V = 'z' where K = 3;")[0].applied
        keyed.run("delete from F where V = 'z';")
        assert keyed.world_set.the_world()["F"].rows == {(1, "a"), (2, "b")}

    def test_update_discarded_on_violation(self, keyed):
        assert not keyed.run("update F set K = 1 where K = 2;")[0].applied
        assert keyed.world_set.the_world()["F"].rows == {(1, "a"), (2, "b")}

    @pytest.mark.parametrize("backend", ["explicit", "inline"])
    def test_update_with_nested_subquery_expression(self, backend):
        """A scalar subquery inside set-clause arithmetic, both routes."""
        s = ISQLSession(backend=backend)
        s.register("T", Relation(("A", "B"), [(1, 5)]))
        s.register("S", Relation(("C",), [(10,)]))
        s.run("update T set B = (select C from S) + 1 where A = 1;")
        assert s.world_set.the_world()["T"].rows == {(1, 11)}

    @pytest.mark.parametrize("backend", ["explicit", "inline"])
    def test_violation_in_one_world_discards_everywhere(self, backend):
        s = ISQLSession(backend=backend)
        s.register("R", Relation(("K", "V"), [(1, "a"), (1, "b"), (2, "c")]))
        s.run("Rep <- select * from R repair by key K;")
        s.declare_key("Rep", ("K",))
        # (2, 'c') survives in every repair, so inserting a second K=2
        # row violates the key in *all* worlds; a fresh key is fine.
        assert not s.run("insert into Rep values (2, 'x');")[0].applied
        assert s.run("insert into Rep values (3, 'x');")[0].applied
        for world in s.world_set.worlds:
            assert (3, "x") in world["Rep"].rows
