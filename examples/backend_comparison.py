"""Explicit vs inline backends: same answers, very different costs.

The session below asks the trip-planning question over a Flights
relation with 1024 departure cities. `choice of Dep` means the
evaluation ranges over 2¹⁰ possible worlds:

* the explicit backend materializes each world and closes `certain`
  across them (Figure 3);
* the inline backend compiles the statement to a flat plan over the
  inlined representation ⟨Flightsᵀ, W⟩ and answers `certain` with one
  division — polynomial in the representation, worlds never built.

Run:  python examples/backend_comparison.py
"""

import time

from repro import ISQLSession
from repro.datagen import flights
from repro.isql import inline_route

QUERY = "select certain Arr from HFlights choice of Dep;"


def main() -> None:
    data = flights(1024, 64, 3, seed=1)
    print(f"HFlights: {len(data)} rows, 1024 departures -> 2^10 worlds\n")
    print("inline route:", inline_route(QUERY, {"HFlights": ("Dep", "Arr")}))

    timings = {}
    for backend in ("explicit", "inline"):
        session = ISQLSession(backend=backend)
        session.register("HFlights", data)
        start = time.perf_counter()
        answer = session.query(QUERY).relation
        timings[backend] = time.perf_counter() - start
        print(f"{backend:8s}: {timings[backend] * 1000:7.1f} ms ->",
              answer.sorted_rows())

    print(f"\ninline speedup: {timings['explicit'] / timings['inline']:.1f}x")

    # The inline session state really is flat tables plus a world table:
    session = ISQLSession(backend="inline")
    session.register("HFlights", data)
    session.run("Trip <- select * from HFlights choice of Dep;")
    print("\ninline state after an assignment:", session.backend.representation)
    print("distinct worlds:", session.world_count(),
          "(decoded only because we asked)")


if __name__ == "__main__":
    main()
