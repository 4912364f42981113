"""The I-SQL engine: world-splitting, grouping, and closing constructs."""

import pytest

from repro.errors import EvaluationError
from repro.isql import ISQLSession
from repro.relational import Relation


@pytest.fixture
def session(flights):
    s = ISQLSession()
    s.register("Flights", flights)
    return s


class TestChoiceOf:
    def test_splits_worlds(self, session):
        result = session.query("select * from Flights choice of Dep;")
        assert result.world_count() == 3
        assert len(result.answers()) == 3

    def test_choice_then_certain_closes(self, session):
        result = session.query("select certain Arr from Flights choice of Dep;")
        assert result.relation.rows == {("ATL",)}
        assert result.world_count() == 1  # uniform answer + same base

    def test_choice_then_possible(self, session):
        result = session.query(
            "select possible Arr from Flights where Arr != 'ATL' choice of Dep;"
        )
        assert result.relation.rows == {("BCN",)}

    def test_nested_choice_in_from_subquery(self, session):
        result = session.query(
            "select Arr from (select * from Flights choice of Dep) F;"
        )
        # FRA and PAR worlds project to the same {ATL, BCN} answer and
        # collapse under set semantics; PHL keeps {ATL}.
        assert result.world_count() == 2
        assert result.answers() == frozenset(
            {
                Relation(("Arr",), [("ATL",), ("BCN",)]),
                Relation(("Arr",), [("ATL",)]),
            }
        )


class TestRepairByKey:
    def test_repair_splits(self):
        s = ISQLSession()
        s.register(
            "Census",
            Relation(
                ("SSN", "Name"),
                [(1, "Ann"), (1, "Anna"), (2, "Bob")],
            ),
        )
        result = s.query("select * from Census repair by key SSN;")
        assert result.world_count() == 2
        for answer in result.answers():
            ssns = [row[0] for row in answer.rows]
            assert len(ssns) == len(set(ssns))

    def test_assignment_materializes_repairs(self):
        s = ISQLSession()
        s.register("R", Relation(("A", "B"), [(1, "x"), (1, "y")]))
        s.run("Rep <- select * from R repair by key A;")
        assert s.world_count() == 2


class TestGroupWorldsBy:
    def test_attribute_grouping(self, session):
        result = session.query(
            "select certain Arr from Flights choice of Dep group worlds by Dep;"
        )
        # Each Dep-world is its own group, so 'certain' is per world.
        assert result.answers() == frozenset(
            {
                Relation(("Arr",), [("BCN",), ("ATL",)]),
                Relation(("Arr",), [("ATL",)]),
            }
        )

    def test_subquery_grouping(self):
        s = ISQLSession()
        s.register("R", Relation(("A", "B"), [(1, "x"), (1, "y"), (2, "z")]))
        s.run("C <- select * from R choice of A, B;")
        result = s.query(
            "select certain B from C group worlds by (select A from C);"
        )
        # Worlds with the same A-projection group; (1,x) vs (1,y) intersect to ∅.
        answers = result.answers()
        assert Relation(("B",), [("z",)]) in answers
        assert Relation(("B",), []) in answers

    def test_group_worlds_by_requires_closing(self, session):
        with pytest.raises(EvaluationError, match="possible or .*certain"):
            session.query(
                "select Arr from Flights choice of Dep group worlds by Dep;"
            )

    def test_subquery_grouping_must_be_world_local(self, session):
        with pytest.raises(EvaluationError, match="world"):
            session.query(
                "select certain Arr from Flights choice of Dep "
                "group worlds by (select possible Arr from Flights);"
            )


class TestClosingAcrossWorlds:
    def test_possible_unions_across_worlds(self, session):
        session.run("F <- select * from Flights choice of Dep;")
        result = session.query("select possible Arr from F;")
        assert result.relation.rows == {("ATL",), ("BCN",)}

    def test_certain_intersects_across_worlds(self, session):
        session.run("F <- select * from Flights choice of Dep;")
        result = session.query("select certain Arr from F;")
        assert result.relation.rows == {("ATL",)}
        # Example 3.1: the three worlds persist, each extended.
        assert result.world_count() == 3

    def test_hoisted_splitting_subquery_in_where(self):
        s = ISQLSession()
        s.register("L", Relation(("P", "Q"), [("a", 1), ("b", 2), ("c", 1)]))
        result = s.query(
            "select possible P from L where Q not in "
            "(select * from L choice of Q);"
        )
        # choice of Q makes one world per quantity; 'not in' keeps the others.
        assert result.relation.rows == {("a",), ("b",), ("c",)}

    def test_correlated_subquery_may_not_split(self):
        s = ISQLSession()
        s.register("L", Relation(("P", "Q"), [("a", 1)]))
        with pytest.raises(EvaluationError):
            s.query(
                "select P from L where Q in "
                "(select * from L X where X.P = L.P choice of Q);"
            )
