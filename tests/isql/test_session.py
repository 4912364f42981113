"""Sessions: catalog management and statement orchestration."""

import pytest

from repro.errors import EvaluationError, SchemaError
from repro.isql import ISQLSession
from repro.relational import Relation


class TestCatalog:
    def test_register_and_names(self, flights):
        s = ISQLSession()
        s.register("Flights", flights)
        assert s.relation_names() == ("Flights",)
        assert s.world_count() == 1

    def test_register_duplicate_rejected(self, flights):
        s = ISQLSession()
        s.register("Flights", flights)
        with pytest.raises(SchemaError):
            s.register("Flights", flights)

    def test_view_name_clash_rejected(self, flights):
        s = ISQLSession()
        s.register("Flights", flights)
        s.run("create view V as select * from Flights;")
        with pytest.raises(SchemaError):
            s.register("V", flights)
        with pytest.raises(SchemaError):
            s.run("create view Flights as select * from Flights;")

    def test_assignment_name_clash_rejected(self, flights):
        s = ISQLSession()
        s.register("Flights", flights)
        with pytest.raises(SchemaError):
            s.run("Flights <- select * from Flights;")


class TestExecution:
    def test_run_returns_one_result_per_statement(self, flights):
        s = ISQLSession()
        s.register("Flights", flights)
        results = s.run(
            "F <- select * from Flights choice of Dep;"
            "select certain Arr from F;"
            "delete from F where Arr = 'ATL';"
        )
        assert results[0].kind == "assign" and results[0].answer is None
        assert results[1].relation.rows == {("ATL",)}
        assert results[2].applied

    def test_query_helper_requires_single_select(self, flights):
        s = ISQLSession()
        s.register("Flights", flights)
        with pytest.raises(EvaluationError):
            s.query("delete from Flights;")
        with pytest.raises(EvaluationError):
            s.query("select * from Flights; select * from Flights;")

    def test_open_query_result_exposes_answers(self, flights):
        s = ISQLSession()
        s.register("Flights", flights)
        result = s.query("select * from Flights choice of Dep;")
        with pytest.raises(EvaluationError, match="differs across worlds"):
            result.relation
        assert len(result.answers()) == 3

    def test_max_worlds_guard(self):
        s = ISQLSession(max_worlds=3)
        s.register(
            "R", Relation(("A", "B"), [(i, j) for i in range(3) for j in range(2)])
        )
        with pytest.raises(EvaluationError, match="limit"):
            s.run("X <- select * from R repair by key A;")

    def test_assignment_with_world_split_persists(self, flights):
        s = ISQLSession()
        s.register("Flights", flights)
        s.run("F <- select * from Flights choice of Dep;")
        assert s.world_count() == 3
        assert s.relation_names() == ("Flights", "F")

    def test_materialized_result_is_correlated(self):
        """Assignments allow correlated self-joins — the repair-based
        guess-and-check of Proposition 4.2 depends on this."""
        s = ISQLSession()
        s.register("R", Relation(("K", "V"), [(1, "a"), (1, "b")]))
        s.run("Rep <- select * from R repair by key K;")
        result = s.query(
            "select possible X.V from Rep X, Rep Y where X.V != Y.V;"
        )
        # Within one world both references see the SAME repair, so no
        # pair with different V exists.
        assert result.relation.rows == set()
