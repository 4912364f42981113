"""Quickstart: three ways to ask the same question about uncertain data.

The trip-planning query of Section 2: a group of people, one per
departure city, want a common destination reachable by a direct flight.
"Suppose the departure is any one of the cities" (choice-of), "which
arrivals are then guaranteed?" (certain).

Every I-SQL statement also prints the *route* the inline backend takes:
``direct`` means it compiles to a flat plan over the inlined
representation (worlds never enumerated), ``fallback`` means it would
delegate to the explicit per-world engine — see
docs/isql-reference.md for the construct-by-construct table.

Run:  python examples/quickstart.py
"""

from repro import (
    ISQLSession,
    answer,
    cert,
    choice_of,
    conservative_ra_query,
    optimized_ra_query,
    project,
    rel,
)
from repro.datagen import paper_flights
from repro.isql import inline_route
from repro.relational import Database
from repro.render import render_relation
from repro.worlds import World, WorldSet

SCHEMAS = {"Flights": ("Dep", "Arr")}

STATEMENTS = (
    "select certain Arr from Flights choice of Dep;",
    "delete from Flights where Dep in "
    "(select Dep from Flights where Arr = 'BCN');",
    "select possible Dep from Flights;",
)


def main() -> None:
    flights = paper_flights()
    print(render_relation(flights, title="Flights (Figure 2 a)"))
    print()

    # 1. I-SQL: the language of the paper. The backend switch decides
    #    how evaluation happens — "explicit" enumerates the worlds,
    #    "inline" runs on the flat inlined representation (Section 5)
    #    and never materializes a world. Same answers either way.
    for backend in ("explicit", "inline"):
        session = ISQLSession(backend=backend)
        session.register("Flights", flights)
        for statement in STATEMENTS:
            route = inline_route(statement, SCHEMAS)
            result = session.run(statement)[0]
            shown = (
                result.relation.sorted_rows()
                if result.kind == "select"
                else f"{result.kind}: "
                + ("applied" if result.applied else "discarded")
            )
            print(f"I-SQL ({backend:8s}) [route={route:8s}]:", shown)
        print()

    # 2. World-set algebra: the formal core (Figure 3 semantics).
    query = cert(project("Arr", choice_of("Dep", rel("Flights"))))
    world_set = WorldSet.single(World.of({"Flights": flights}))
    print("Algebra:", answer(query, world_set).sorted_rows())

    # 3. Relational algebra: Theorem 5.7 / Example 5.8 — the same query
    #    translated so *any* relational engine can run it.
    db = Database({"Flights": flights})
    compact = optimized_ra_query(query, db.schemas(), assume_nonempty=True)
    general = conservative_ra_query(query, db.schemas())
    print("RA (optimized §5.3):", compact.to_text())
    print("        evaluates to", compact.evaluate(db).sorted_rows())
    print("RA (general Fig. 6): query of size", general.size(), "— same answer:",
          general.evaluate(db).sorted_rows())


if __name__ == "__main__":
    main()
