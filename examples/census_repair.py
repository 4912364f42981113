"""Section 2, scenario 4: consistent views of inconsistent data.

A Census relation violating the key SSN → (Name, POB, POW) is repaired
with `repair by key`: one world per consistent combination. The example
then shows data cleaning on top: the certain facts (true in every
repair) and the possible places of birth per person.

Run:  python examples/census_repair.py
"""

from repro import ISQLSession
from repro.core import count_repairs
from repro.datagen import census
from repro.isql import session_route
from repro.render import render_relation


def main() -> None:
    dirty = census(6, duplicate_rate=0.7, seed=11)
    print(render_relation(dirty, title="Census (dirty: SSN key violated)"))
    print(f"\nNumber of repairs: {count_repairs(dirty, ('SSN',))}")

    session = ISQLSession()
    session.register("Census", dirty)
    statement = "Clean <- select * from Census repair by key SSN;"
    print(f"[inline route: {session_route(session, statement)}]")
    session.run(statement)
    print(f"Worlds after repair-by-key: {session.world_count()}")

    query = "select certain SSN, Name from Clean;"
    certain = session.query(query)
    print(f"\nCertain (SSN, Name) facts — true in every repair "
          f"[route: {session_route(session, query)}]:")
    print(render_relation(certain.relation))

    query = "select possible SSN, POB from Clean;"
    possible = session.query(query)
    print(f"\nPossible (SSN, POB) pairs — true in some repair "
          f"[route: {session_route(session, query)}]:")
    print(render_relation(possible.relation))

    # Deduplication check: every repair world satisfies the key.
    violations = session.query(
        "select possible C1.SSN from Clean C1, Clean C2 "
        "where C1.SSN = C2.SSN and C1.POB != C2.POB;"
    )
    print("\nKey violations inside any single repair world:",
          violations.relation.sorted_rows() or "none")


if __name__ == "__main__":
    main()
