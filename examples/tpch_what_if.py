"""Section 2, scenario 3: TPC-H-style what-if revenue analysis.

"Which years would lose more than a threshold of revenue if any one of
the sold package sizes were no longer available?" — the paper's
Q17-like query: choice-of over years × choice-of over quantities builds
the hypothetical worlds, per-world aggregation computes the revenue,
and `possible` collects the at-risk years.

Run:  python examples/tpch_what_if.py [threshold]
"""

import sys

from repro import ISQLSession
from repro.datagen import lineitem
from repro.isql import session_route
from repro.render import render_relation


def main(threshold: int = 50_000) -> None:
    items = lineitem(
        years=(2002, 2003, 2004, 2005),
        n_products=20,
        n_quantities=4,
        rows_per_year=60,
        seed=42,
    )
    session = ISQLSession()
    session.register("Lineitem", items)
    print(f"Lineitem: {len(items)} rows over 4 years, 4 package sizes\n")

    session.run(
        """create view YearQuantity as
           select A.Year, sum(A.Price) as Revenue
           from (select * from Lineitem choice of Year) as A
           where Quantity not in
             (select * from Lineitem choice of Quantity)
           group by A.Year;"""
    )

    probe_text = "select possible Year, Revenue from YearQuantity;"
    probe = session.query(probe_text)
    print("Hypothetical (year, revenue-without-one-quantity) pairs "
          f"[inline route: {session_route(session, probe_text)}]:")
    print(render_relation(probe.relation))

    result_text = (
        f"""select possible Year from YearQuantity as Y
            where (select sum(Price) from Lineitem
                   where Lineitem.Year = Y.Year)
                  - Y.Revenue > {threshold};"""
    )
    result = session.query(result_text)
    print(f"\nYears with a possible revenue loss over {threshold} "
          f"[inline route: {session_route(session, result_text)}]:")
    print(render_relation(result.relation))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 50_000)
