"""Section 6 / Examples 6.1–6.2 / Figures 8–9: algebraic optimization.

Builds the paper's q1 and q2, replays the rewrite derivations rule by
rule, renders the before/after plan trees of Figures 8 and 9, and
measures the actual evaluation speed-up on generated data, together with
the input rows each plan's kernel ops read (summed by an ``op_hook`` on
the checkpoint every kernel op crosses).

Run:  python examples/query_optimization.py
"""

import time

from repro.core import (
    answer,
    cert,
    choice_of,
    poss,
    poss_group,
    product,
    project,
    rel,
    select,
)
from repro.datagen import flights, hotels
from repro.optimizer import optimize
from repro.relational import eq
from repro.relational.guards import op_hook
from repro.render import render_plan
from repro.worlds import World, WorldSet

HF_ATTRS = ("Dep", "Arr")
HOTEL_ATTRS = ("Name", "City", "Price")
SCHEMAS = {"HFlights": HF_ATTRS, "Hotels": HOTEL_ATTRS}


def build_query(closing):
    inner = poss_group(
        ("Dep",),
        HF_ATTRS + HOTEL_ATTRS,
        choice_of(("Dep", "City"), product(rel("HFlights"), rel("Hotels"))),
    )
    return closing(project("City", select(eq("Arr", "City"), inner)))


def show(name, query, figure):
    optimized, trace = optimize(query, SCHEMAS)
    print(f"=== Example 6.{1 if name == 'q1' else 2}: {name} ===")
    print("derivation:")
    for step in trace:
        print(f"  {step.rule.equation:14s} {step.after.to_text()}")
    print()
    print(render_plan(query, title=f"Figure {figure} (a): {name}"))
    print()
    print(render_plan(optimized, title=f"Figure {figure} (b): {name}'"))
    print()
    return optimized


def timed(label, query, world_set):
    """Evaluate *query*; returns (seconds, input rows read by kernel ops)."""
    read = 0

    def count(op, rows):
        nonlocal read
        read += rows

    with op_hook(count):
        start = time.perf_counter()
        result = answer(query, world_set)
        elapsed = time.perf_counter() - start
    print(f"  {label:28s} {elapsed * 1000:8.1f} ms  {read:8d} rows read"
          f"  → {len(result)} tuples")
    return elapsed, read


def main() -> None:
    q1 = build_query(cert)
    q2 = build_query(poss)
    q1_opt = show("q1", q1, 8)
    q2_opt = show("q2", q2, 9)

    world_set = WorldSet.single(
        World.of(
            {"HFlights": flights(8, 10, 3, seed=1), "Hotels": hotels(10, 2, seed=1)}
        )
    )
    print("=== measured evaluation (Figure 3 semantics) ===")
    t1, r1 = timed("q1  (original)", q1, world_set)
    t1o, r1o = timed("q1' (rewritten)", q1_opt, world_set)
    t2, r2 = timed("q2  (original)", q2, world_set)
    t2o, r2o = timed("q2' (rewritten)", q2_opt, world_set)
    print(f"\nspeed-ups: q1 {t1 / t1o:.1f}×, q2 {t2 / t2o:.1f}×")
    print(f"rows read: q1 {r1} → {r1o} ({r1 / r1o:.1f}×), "
          f"q2 {r2} → {r2o} ({r2 / r2o:.1f}×)")


if __name__ == "__main__":
    main()
