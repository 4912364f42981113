"""Engine internals: the resolver, star projection, value evaluation."""

import pytest

from repro.errors import EvaluationError
from repro.isql import ISQLSession, ast
from repro.isql.engine import _Resolver, _compare, _unqualified
from repro.relational import Relation
from repro.relational.predicates import arithmetic


class TestResolver:
    def test_qualified_resolution(self):
        resolver = _Resolver(("F.Dep", "F.Arr"))
        assert resolver.position(ast.Column("F", "Dep")) == 0
        assert resolver.position(ast.Column("G", "Dep")) is None

    def test_unqualified_suffix_match(self):
        resolver = _Resolver(("F.Dep", "F.Arr"))
        assert resolver.position(ast.Column(None, "Arr")) == 1

    def test_ambiguity_raises(self):
        resolver = _Resolver(("F.Dep", "G.Dep"))
        with pytest.raises(EvaluationError, match="ambiguous"):
            resolver.position(ast.Column(None, "Dep"))

    def test_require_resolves_attr_lists(self):
        resolver = _Resolver(("F.Dep", "F.Arr"))
        assert resolver.require("F.Arr") == 1
        assert resolver.require("Dep") == 0
        with pytest.raises(EvaluationError, match="unknown attribute"):
            resolver.require("Nope")

    def test_unqualified_helper(self):
        assert _unqualified("F.Dep") == "Dep"
        assert _unqualified("Dep") == "Dep"


class TestStarProjection:
    def test_star_strips_qualifiers(self, flights):
        session = ISQLSession()
        session.register("Flights", flights)
        result = session.query("select * from Flights F;")
        assert result.relation.schema.attributes == ("Dep", "Arr")

    def test_star_keeps_qualifiers_on_collision(self, flights):
        session = ISQLSession()
        session.register("Flights", flights)
        result = session.query(
            "select * from Flights F1, Flights F2 where F1.Dep = F2.Dep;"
        )
        assert set(result.relation.schema.attributes) == {
            "F1.Dep",
            "F1.Arr",
            "F2.Dep",
            "F2.Arr",
        }


class TestValueEvaluation:
    def test_comparison_operators(self):
        assert _compare("=", 1, 1) and _compare("!=", 1, 2)
        assert _compare("<", 1, 2) and _compare("<=", 2, 2)
        assert _compare(">", 3, 2) and _compare(">=", 2, 2)

    def test_mixed_type_comparison_is_false(self):
        assert not _compare("<", 1, "x")

    def test_unknown_comparison_rejected(self):
        with pytest.raises(EvaluationError):
            _compare("~", 1, 1)

    def test_arithmetic(self):
        assert arithmetic("+", 2, 3) == 5
        assert arithmetic("-", 2, 3) == -1
        assert arithmetic("*", 2, 3) == 6
        assert arithmetic("/", 3, 2) == 1.5

    def test_arithmetic_over_none_rejected(self):
        with pytest.raises(EvaluationError, match="empty"):
            arithmetic("+", None, 1)


class TestScalarSubqueryErrors:
    def test_multi_row_scalar_rejected(self):
        session = ISQLSession()
        session.register("R", Relation(("A", "B"), [(1, 1), (2, 2)]))
        with pytest.raises(EvaluationError, match="more than one row"):
            session.query(
                "select A from R where (select B from R X) = 1;"
            )

    def test_multi_column_scalar_rejected(self):
        session = ISQLSession()
        session.register("R", Relation(("A", "B"), [(1, 1)]))
        with pytest.raises(EvaluationError, match="one column"):
            session.query(
                "select A from R where (select X.A, X.B from R X) = 1;"
            )

    def test_empty_scalar_subquery_defaults_to_zero(self):
        session = ISQLSession()
        session.register("R", Relation(("A",), [(0,)]))
        result = session.query(
            "select A from R where (select X.A from R X where X.A = 9) = 0;"
        )
        assert result.relation.rows == {(0,)}

    def test_in_by_needle_name_on_multi_column_subquery(self):
        """The paper's `Quantity not in (select * …)` pattern: the
        membership column is picked by the needle's name."""
        session = ISQLSession()
        session.register("R", Relation(("A", "B"), [(1, 7)]))
        result = session.query(
            "select A from R where B in (select X.A, X.B from R X);"
        )
        assert result.relation.rows == {(1,)}  # 7 ∈ π_B

    def test_in_subquery_without_matching_column_rejected(self):
        session = ISQLSession()
        session.register("R", Relation(("A", "B"), [(1, 1)]))
        with pytest.raises(EvaluationError, match="one column"):
            session.query(
                "select A from R where A + 1 in (select X.A, X.B from R X);"
            )
