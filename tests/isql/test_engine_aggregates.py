"""The I-SQL engine: SQL aggregation (outside the algebra, Section 3)."""

import pytest

from repro.errors import EvaluationError
from repro.isql import ISQLSession
from repro.relational import Relation


@pytest.fixture
def sales_session():
    s = ISQLSession()
    s.register(
        "Sales",
        Relation(
            ("Product", "Price", "Year"),
            [
                ("pen", 2, 2006),
                ("pad", 5, 2006),
                ("pen", 3, 2007),
                ("ink", 10, 2007),
            ],
        ),
    )
    return s


class TestAggregates:
    def test_sum_group_by(self, sales_session):
        result = sales_session.query(
            "select Year, sum(Price) as Revenue from Sales group by Year;"
        )
        assert result.relation.rows == {(2006, 7), (2007, 13)}

    def test_count_star_and_column(self, sales_session):
        result = sales_session.query(
            "select Year, count(*) as N, count(Product) as P from Sales group by Year;"
        )
        assert result.relation.rows == {(2006, 2, 2), (2007, 2, 2)}

    def test_count_distinct_values(self):
        s = ISQLSession()
        s.register("R", Relation(("A", "B"), [(1, "x"), (1, "y"), (2, "x")]))
        result = s.query("select count(A) as N from R;")
        assert result.relation.rows == {(2,)}

    def test_min_max_avg(self, sales_session):
        result = sales_session.query(
            "select min(Price) as Lo, max(Price) as Hi, avg(Price) as Mid from Sales;"
        )
        assert result.relation.rows == {(2, 10, 5.0)}

    def test_aggregate_without_group_by_is_global(self, sales_session):
        result = sales_session.query("select sum(Price) as S from Sales;")
        assert result.relation.rows == {(20,)}

    def test_sum_over_empty_relation_is_zero(self):
        s = ISQLSession()
        s.register("E", Relation(("X",), []))
        result = s.query("select sum(X) as S from E;")
        assert result.relation.rows == {(0,)}

    def test_arithmetic_over_aggregates(self, sales_session):
        result = sales_session.query(
            "select Year, sum(Price) * 2 as Double from Sales group by Year;"
        )
        assert (2006, 14) in result.relation

    def test_aggregate_in_where_rejected(self, sales_session):
        with pytest.raises(EvaluationError, match="select list"):
            sales_session.query("select Year from Sales where sum(Price) > 1;")

    def test_bad_star_aggregate(self, sales_session):
        with pytest.raises(EvaluationError):
            sales_session.query("select sum(*) from Sales;")


class TestAggregatesAcrossWorlds:
    def test_per_world_revenue(self, sales_session):
        """Aggregation happens inside each world independently."""
        sales_session.run("Y <- select * from Sales choice of Year;")
        result = sales_session.query("select sum(Price) as Revenue from Y;")
        assert result.answers() == frozenset(
            {Relation(("Revenue",), [(7,)]), Relation(("Revenue",), [(13,)])}
        )

    def test_year_quantity_pattern(self):
        """The Section 2 YearQuantity view: choice in from + hoisted
        choice in where + group-by aggregation."""
        s = ISQLSession()
        s.register(
            "Lineitem",
            Relation(
                ("Product", "Quantity", "Price", "Year"),
                [
                    ("a", 100, 10, 2006),
                    ("b", 200, 20, 2006),
                    ("a", 100, 30, 2007),
                    ("b", 200, 5, 2007),
                ],
            ),
        )
        s.run(
            """YQ <- select A.Year, sum(A.Price) as Revenue
               from (select * from Lineitem choice of Year) as A
               where Quantity not in
                 (select * from Lineitem choice of Quantity)
               group by A.Year;"""
        )
        # 2 year-choices × 2 quantity-choices = 4 worlds.
        assert s.world_count() == 4
        revenues = {
            tuple(sorted(w["YQ"].rows)) for w in s.world_set.worlds
        }
        # Year 2006 without quantity 100 → only product b: 20, etc.
        assert ((2006, 20),) in revenues
        assert ((2006, 10),) in revenues
        assert ((2007, 5),) in revenues
        assert ((2007, 30),) in revenues

    def test_correlated_scalar_subquery(self):
        s = ISQLSession()
        s.register(
            "Lineitem",
            Relation(
                ("Product", "Quantity", "Price", "Year"),
                [("a", 100, 10, 2006), ("b", 200, 90, 2006), ("a", 100, 50, 2007)],
            ),
        )
        s.run(
            """YQ <- select A.Year, sum(A.Price) as Revenue
               from (select * from Lineitem choice of Year) as A
               where Quantity not in
                 (select * from Lineitem choice of Quantity)
               group by A.Year;"""
        )
        result = s.query(
            """select possible Year from YQ as Y
               where (select sum(Price) from Lineitem
                      where Lineitem.Year = Y.Year)
                     - Y.Revenue > 50;"""
        )
        # 2006 loses 90 when quantity 200 is missing (100 - 10 = 90 > 50).
        assert result.relation.rows == {(2006,)}
