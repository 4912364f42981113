"""The I-SQL engine: core select evaluation within worlds."""

import pytest

from repro.errors import EvaluationError
from repro.isql import ISQLSession
from repro.relational import Relation


@pytest.fixture
def session(flights):
    s = ISQLSession()
    s.register("Flights", flights)
    return s


class TestBasicSelect:
    def test_star(self, session, flights):
        result = session.query("select * from Flights;")
        assert result.relation == flights

    def test_projection_renames_to_output_names(self, session):
        result = session.query("select Arr from Flights;")
        assert result.relation.schema.attributes == ("Arr",)
        assert ("ATL",) in result.relation

    def test_where_filters(self, session):
        result = session.query("select * from Flights where Arr = 'BCN';")
        assert result.relation.rows == {("FRA", "BCN"), ("PAR", "BCN")}

    def test_column_alias(self, session):
        result = session.query("select Arr as City from Flights;")
        assert result.relation.schema.attributes == ("City",)

    def test_qualified_references(self, session):
        result = session.query(
            "select F.Arr from Flights F where F.Dep = 'PHL';"
        )
        assert result.relation.rows == {("ATL",)}

    def test_self_join_with_aliases(self, session):
        result = session.query(
            "select F1.Dep, F2.Dep as Other from Flights F1, Flights F2 "
            "where F1.Arr = F2.Arr and F1.Dep != F2.Dep;"
        )
        assert ("FRA", "PAR") in result.relation

    def test_ambiguous_column_rejected(self, session):
        with pytest.raises(EvaluationError, match="ambiguous"):
            session.query("select Dep from Flights F1, Flights F2;")

    def test_unknown_column_rejected(self, session):
        with pytest.raises(EvaluationError, match="unresolved|unknown"):
            session.query("select * from Flights where Missing = 1;")

    def test_set_semantics_deduplicate(self, session):
        result = session.query("select Arr from Flights where Arr = 'ATL';")
        assert len(result.relation) == 1


class TestSubqueries:
    def test_from_subquery(self, session):
        result = session.query(
            "select Arr from (select * from Flights where Dep = 'FRA') F;"
        )
        assert result.relation.rows == {("BCN",), ("ATL",)}

    def test_exists(self, session):
        result = session.query(
            "select Dep from Flights F1 where exists "
            "(select * from Flights F2 where F2.Arr = F1.Arr and F2.Dep != F1.Dep);"
        )
        assert ("PHL",) in result.relation  # ATL shared with FRA and PAR

    def test_double_not_exists_division(self, session):
        """The Section 2 SQL simulation of division: certain arrivals."""
        result = session.query(
            """select Arr from Flights F1
               where not exists
                 (select * from Flights F2
                  where not exists
                    (select * from Flights F3
                     where F3.Dep = F2.Dep and F3.Arr = F1.Arr));"""
        )
        assert result.relation.rows == {("ATL",)}

    def test_in_with_bare_relation(self, flights):
        s = ISQLSession()
        s.register("Flights", flights)
        s.register("Hometowns", Relation(("Dep",), [("FRA",), ("PAR",)]))
        result = s.query("select * from Flights where Dep in Hometowns;")
        assert len(result.relation) == 4

    def test_scalar_subquery_value(self, session):
        result = session.query(
            "select Dep from Flights F where "
            "(select count(Arr) from Flights G where G.Dep = F.Dep) > 1;"
        )
        assert result.relation.rows == {("FRA",), ("PAR",)}


class TestViews:
    def test_view_expansion_in_from(self, session):
        session.run(
            "create view Short as select * from Flights where Arr = 'ATL';"
        )
        result = session.query("select Dep from Short;")
        assert result.relation.rows == {("FRA",), ("PAR",), ("PHL",)}

    def test_view_of_view(self, session):
        session.run("create view V1 as select * from Flights;")
        session.run("create view V2 as select Dep from V1;")
        assert len(session.query("select * from V2;").relation) == 3
