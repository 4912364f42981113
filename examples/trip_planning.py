"""Section 2, scenario 2 + Figure 2 + Examples 3.1/3.2/5.6/5.8.

Trip planning over possible worlds: choice-of splits the flights by
departure (Figure 2 b), DML deletes apply per world (Figure 2 c,
Example 3.2), `certain` closes the worlds (Figure 2 d, Example 3.1),
and the whole query translates to relational algebra (Examples 5.6
and 5.8).

Run:  python examples/trip_planning.py
"""

from repro import ISQLSession, cert, choice_of, project, rel
from repro.datagen import paper_flights
from repro.inline import (
    InlinedRepresentation,
    apply_general,
    optimized_ra_query,
)
from repro.isql import session_route
from repro.relational import Database
from repro.render import render_relation, render_representation, render_world_set


def main() -> None:
    flights = paper_flights()
    print(render_relation(flights, title="(a) Flights database"))

    session = ISQLSession()
    session.register("Flights", flights)

    print("\n(b) Creating worlds using choice-of on Dep")
    statement = "F <- select * from Flights choice of Dep;"
    print(f"  [inline route: {session_route(session, statement)}]")
    session.run(statement)
    for index, world in enumerate(session.world_set.sorted_worlds(), start=1):
        print(f"  world {index}: F = {world['F'].sorted_rows()}")

    print("\n(d) select certain Arr from F;  (Example 3.1)")
    query = "select certain Arr from F;"
    print(f"  [inline route: {session_route(session, query)}]")
    result = session.query(query)
    print(f"  every world gains F' = {result.relation.sorted_rows()}"
          f" — still {result.world_count()} worlds")

    print("\n(c) delete from F where Arr = 'ATL';  (Example 3.2)")
    statement = "delete from F where Arr = 'ATL';"
    print(f"  [inline route: {session_route(session, statement)}]")
    session.run(statement)
    for index, world in enumerate(session.world_set.sorted_worlds(), start=1):
        print(f"  world {index}: F = {world['F'].sorted_rows()}")

    print("\n--- Example 5.6: the general translation, step by step ---")
    db = Database({"HFlights": flights})
    rep = InlinedRepresentation.of_database(db)
    print("Step 1-2: inlined representation of the complete database:")
    print(render_representation(rep))
    query = cert(project("Arr", choice_of("Dep", rel("HFlights"))))
    out = apply_general(query, rep, name="F")
    print("\nAfter translation + evaluation (world ids are Dep values):")
    print(render_representation(out))

    print("\n--- Example 5.8: the optimized complete-to-complete form ---")
    compact = optimized_ra_query(query, db.schemas(), assume_nonempty=True)
    print("  ", compact.to_text())
    print("   =", compact.evaluate(db).sorted_rows())


if __name__ == "__main__":
    main()
