"""I-SQL data manipulation: per-world semantics plus the discard rule."""

import pytest

from repro.isql import ISQLSession
from repro.relational import Relation


@pytest.fixture
def session(flights):
    s = ISQLSession()
    s.register("Flights", flights)
    return s


class TestInsert:
    def test_insert_applies_in_every_world(self, session):
        session.run("F <- select * from Flights choice of Dep;")
        session.run("insert into F values ('XXX', 'YYY');")
        for world in session.world_set.worlds:
            assert ("XXX", "YYY") in world["F"]

    def test_insert_violating_key_is_discarded_everywhere(self, session):
        """Section 3: 'the update is discarded in all worlds'."""
        session.run("F <- select * from Flights choice of Dep;")
        session.declare_key("F", ("Dep",))
        # ('FRA', 'LIS') violates the Dep-key only in the FRA world.
        result = session.run("insert into F values ('FRA', 'LIS');")[0]
        assert not result.applied
        for world in session.world_set.worlds:
            assert ("FRA", "LIS") not in world["F"]

    def test_insert_ok_when_no_world_violates(self, session):
        session.run("F <- select * from Flights choice of Dep;")
        session.declare_key("F", ("Dep", "Arr"))
        result = session.run("insert into F values ('NEW', 'CITY');")[0]
        assert result.applied

    def test_arity_checked(self, session):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            session.run("insert into Flights values ('FRA');")


class TestDelete:
    def test_example_32_delete_atl(self, session):
        """Example 3.2 / Figure 2 (c): deleting Arr='ATL' per world."""
        session.run("F <- select * from Flights choice of Dep;")
        session.run("delete from F where Arr = 'ATL';")
        answers = {frozenset(w["F"].rows) for w in session.world_set.worlds}
        assert answers == {
            frozenset({("FRA", "BCN")}),
            frozenset({("PAR", "BCN")}),
            frozenset(),
        }

    def test_delete_without_where_empties(self, session):
        session.run("delete from Flights;")
        for world in session.world_set.worlds:
            assert not world["Flights"]

    def test_worlds_may_collapse_after_delete(self, session):
        session.run("F <- select * from Flights choice of Dep;")
        assert session.world_count() == 3
        session.run("delete from F;")
        # All F's now empty; worlds differ only in base Flights (equal),
        # so they collapse to a single world.
        assert session.world_count() == 1


class TestUpdate:
    def test_update_applies_per_world(self, session):
        session.run("update Flights set Arr = 'LIS' where Arr = 'BCN';")
        result = session.query("select Arr from Flights;")
        assert result.relation.rows == {("ATL",), ("LIS",)}

    def test_update_arithmetic(self):
        s = ISQLSession()
        s.register("R", Relation(("A", "B"), [(1, 10), (2, 20)]))
        s.run("update R set B = B + 5 where A = 1;")
        result = s.query("select * from R;")
        assert result.relation.rows == {(1, 15), (2, 20)}

    def test_update_violating_key_is_discarded(self):
        s = ISQLSession()
        s.register("R", Relation(("A", "B"), [(1, 10), (2, 20)]))
        s.declare_key("R", ("A",))
        result = s.run("update R set A = 1 where A = 2;")[0]
        assert not result.applied
        assert s.query("select * from R;").relation.rows == {(1, 10), (2, 20)}
