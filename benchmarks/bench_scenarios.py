"""Experiment §2 end-to-end: the decision-support scenarios at scale.

Runs the full company-acquisition script and the TPC-H what-if pipeline
through the I-SQL engine on generated workloads, plus the census
repair + certain-answer pipeline. These are the macro-benchmarks of
the reproduction: whole multi-statement programs over world-sets.
"""

import pytest

from repro.datagen import census, company, lineitem
from repro.isql import ISQLSession

ACQUISITION_SCRIPT = """
U <- select * from Company_Emp choice of CID;
V <- select R1.CID, R1.EID
     from Company_Emp R1, (select * from U choice of EID) R2
     where R1.CID = R2.CID and R1.EID != R2.EID;
W <- select certain CID, Skill
     from V, Emp_Skills
     where V.EID = Emp_Skills.EID
     group worlds by (select CID from V);
"""


def test_company_acquisition_pipeline(benchmark):
    company_emp, emp_skills = company(4, 5, 6, 2, seed=2)

    def run():
        session = ISQLSession()
        session.register("Company_Emp", company_emp)
        session.register("Emp_Skills", emp_skills)
        session.run(ACQUISITION_SCRIPT)
        return session.query(
            "select possible CID from W where Skill = 'S0';"
        ).relation

    result = benchmark(run)
    assert result.schema.attributes == ("CID",)


def test_tpch_what_if_pipeline(benchmark):
    items = lineitem(
        years=(2002, 2003, 2004), n_products=10, n_quantities=3,
        rows_per_year=25, seed=2,
    )

    def run():
        session = ISQLSession()
        session.register("Lineitem", items)
        session.run(
            """create view YearQuantity as
               select A.Year, sum(A.Price) as Revenue
               from (select * from Lineitem choice of Year) as A
               where Quantity not in
                 (select * from Lineitem choice of Quantity)
               group by A.Year;"""
        )
        return session.query(
            """select possible Year from YearQuantity as Y
               where (select sum(Price) from Lineitem
                      where Lineitem.Year = Y.Year)
                     - Y.Revenue > 1000;"""
        ).relation

    result = benchmark(run)
    assert result.schema.attributes == ("Year",)


def test_census_repair_pipeline(benchmark):
    dirty = census(8, duplicate_rate=0.8, seed=4)

    def run():
        session = ISQLSession()
        session.register("Census", dirty)
        session.run("Clean <- select * from Census repair by key SSN;")
        return session.query("select certain SSN, Name from Clean;").relation

    result = benchmark(run)
    assert len(result) >= 8


def test_shape_acquisition_world_counts(benchmark):
    """World counts follow the paper's arithmetic: |companies| after U,
    then Σ per-company (employees choose-one) after V."""
    company_emp, emp_skills = company(3, 4, 5, 2, seed=9)
    session = ISQLSession()
    session.register("Company_Emp", company_emp)
    session.register("Emp_Skills", emp_skills)
    session.run("U <- select * from Company_Emp choice of CID;")
    assert session.world_count() == 3
    session.run(
        """V <- select R1.CID, R1.EID
           from Company_Emp R1, (select * from U choice of EID) R2
           where R1.CID = R2.CID and R1.EID != R2.EID;"""
    )
    assert session.world_count() == 3 * 4
    benchmark(lambda: session.query("select possible CID from V;").relation)
