"""The four Section 2 application scenarios, end to end in I-SQL."""

import pytest

from repro.datagen import census, lineitem, paper_company, paper_flights
from repro.isql import ISQLSession
from repro.relational import Relation


class TestCompanyAcquisition:
    """Business decision support: which acquisition guarantees 'Web'?"""

    @pytest.fixture
    def session(self):
        s = ISQLSession()
        company_emp, emp_skills = paper_company()
        s.register("Company_Emp", company_emp)
        s.register("Emp_Skills", emp_skills)
        return s

    def test_full_script(self, session):
        session.run("U <- select * from Company_Emp choice of CID;")
        assert session.world_count() == 2

        session.run(
            """V <- select R1.CID, R1.EID
               from Company_Emp R1, (select * from U choice of EID) R2
               where R1.CID = R2.CID and R1.EID != R2.EID;"""
        )
        assert session.world_count() == 5

        session.run(
            """W <- select certain CID, Skill
               from V, Emp_Skills
               where V.EID = Emp_Skills.EID
               group worlds by (select CID from V);"""
        )
        w_answers = {w["W"] for w in session.world_set.worlds}
        assert w_answers == {
            Relation(("CID", "Skill"), [("ACME", "Web")]),
            Relation(("CID", "Skill"), [("HAL", "Java")]),
        }

        result = session.query(
            "select possible CID from W where Skill = 'Web';"
        )
        assert result.relation.rows == {("ACME",)}


class TestTripPlanning:
    def test_certain_common_destination(self):
        s = ISQLSession()
        s.register("Flights", paper_flights())
        s.register("Hometowns", Relation(("Dep",), [("FRA",), ("PAR",), ("PHL",)]))
        s.run(
            "create view HFlights as select * from Flights where Dep in Hometowns;"
        )
        result = s.query("select certain Arr from HFlights choice of Dep;")
        assert result.relation.rows == {("ATL",)}

    def test_matches_the_sql_division_formulation(self):
        s = ISQLSession()
        s.register("HFlights", paper_flights())
        isql = s.query("select certain Arr from HFlights choice of Dep;")
        sql = s.query(
            """select Arr from HFlights F1
               where not exists
                 (select * from HFlights F2
                  where not exists
                    (select * from HFlights F3
                     where F3.Dep = F2.Dep and F3.Arr = F1.Arr));"""
        )
        assert isql.relation == sql.relation


class TestTpchWhatIf:
    def test_year_quantity_worlds_and_threshold(self):
        s = ISQLSession()
        items = lineitem(
            years=(2004, 2005), n_products=6, n_quantities=3, rows_per_year=15, seed=3
        )
        s.register("Lineitem", items)
        s.run(
            """create view YearQuantity as
               select A.Year, sum(A.Price) as Revenue
               from (select * from Lineitem choice of Year) as A
               where Quantity not in
                 (select * from Lineitem choice of Quantity)
               group by A.Year;"""
        )
        result = s.query(
            """select possible Year from YearQuantity as Y
               where (select sum(Price) from Lineitem
                      where Lineitem.Year = Y.Year)
                     - Y.Revenue > 1000;"""
        )
        # Shape check: some (year) pairs lose more than the threshold.
        years = {row[0] for row in result.relation.rows}
        assert years <= {2004, 2005} and years

    def test_threshold_monotonicity(self):
        """Raising the threshold can only shrink the answer."""
        s = ISQLSession()
        s.register(
            "Lineitem",
            lineitem(years=(2004, 2005), n_quantities=3, rows_per_year=15, seed=5),
        )
        s.run(
            """create view YearQuantity as
               select A.Year, sum(A.Price) as Revenue
               from (select * from Lineitem choice of Year) as A
               where Quantity not in
                 (select * from Lineitem choice of Quantity)
               group by A.Year;"""
        )
        low = s.query(
            """select possible Year from YearQuantity as Y
               where (select sum(Price) from Lineitem
                      where Lineitem.Year = Y.Year) - Y.Revenue > 100;"""
        ).relation
        high = s.query(
            """select possible Year from YearQuantity as Y
               where (select sum(Price) from Lineitem
                      where Lineitem.Year = Y.Year) - Y.Revenue > 100000;"""
        ).relation
        assert high.rows <= low.rows


class TestCensusRepair:
    def test_repairs_enumerate_consistent_relations(self):
        s = ISQLSession()
        dirty = census(5, duplicate_rate=1.0, seed=2)
        s.register("Census", dirty)
        result = s.query("select * from Census repair by key SSN;")
        from repro.core import count_repairs

        assert result.world_count() == count_repairs(dirty, ("SSN",))
        for answer in result.answers():
            ssns = [row[0] for row in answer.rows]
            assert len(ssns) == len(set(ssns))

    def test_certain_tuples_of_all_repairs(self):
        s = ISQLSession()
        s.register(
            "Census",
            Relation(
                ("SSN", "Name", "POB", "POW"),
                [
                    (1, "Ann", "X", "Y"),
                    (1, "Ann", "Z", "Y"),
                    (2, "Bob", "X", "X"),
                ],
            ),
        )
        s.run("Clean <- select * from Census repair by key SSN;")
        result = s.query("select certain SSN, Name from Clean;")
        # Both repairs contain (1, Ann) and (2, Bob) at the name level.
        assert result.relation.rows == {(1, "Ann"), (2, "Bob")}
