"""Examples 6.1 and 6.2 with Figures 8 and 9: the paper's derivations.

The paper argues the rewritten plans are cheaper from their shape; here
the claim is measured: the input rows every kernel op reports at the
checkpoint seam, summed over one evaluation of each plan.
"""

import pytest

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
from repro.datagen import flights as random_flights
from repro.datagen import hotels as random_hotels
from repro.optimizer import optimize
from repro.relational import Relation, eq
from repro.relational.guards import op_hook
from repro.render import render_plan
from repro.worlds import World, WorldSet

HF_ATTRS = ("Dep", "Arr")
HOTEL_ATTRS = ("Name", "City", "Price")
ALL_ATTRS = HF_ATTRS + HOTEL_ATTRS
SCHEMAS = {"HFlights": HF_ATTRS, "Hotels": HOTEL_ATTRS}


def q1():
    """q1 = cert(π_City(σ_{Arr=City}(pγ^*_Dep(χ_{Dep,City}(HFlights × Hotels)))))."""
    return cert(
        project(
            "City",
            select(
                eq("Arr", "City"),
                poss_group(
                    ("Dep",),
                    ALL_ATTRS,
                    choice_of(("Dep", "City"), product(rel("HFlights"), rel("Hotels"))),
                ),
            ),
        )
    )


def q2():
    return poss(
        project(
            "City",
            select(
                eq("Arr", "City"),
                poss_group(
                    ("Dep",),
                    ALL_ATTRS,
                    choice_of(("Dep", "City"), product(rel("HFlights"), rel("Hotels"))),
                ),
            ),
        )
    )


def _answer_and_rows_read(query, world_set):
    """``answer(query, world_set)`` and the input rows its kernel ops read."""
    read = 0

    def count(op, rows):
        nonlocal read
        read += rows

    with op_hook(count):
        result = answer(query, world_set)
    return result, read


@pytest.fixture(params=[(3, 3, 1, 5), (10, 5, 2, 0)], ids=["6x3", "19x10"])
def random_travel_ws(request):
    """6 flights × 3 hotels, and 19 flights × 10 hotels."""
    departures, cities, hotels_per_city, seed = request.param
    hflights = random_flights(departures, cities, 2, seed=seed)
    hotels = random_hotels(cities, hotels_per_city, seed=seed)
    return WorldSet.single(World.of({"HFlights": hflights, "Hotels": hotels}))


def _assert_rewrite_reads_fewer_rows(query, world_set):
    optimized, _ = optimize(query, SCHEMAS)
    original, original_rows = _answer_and_rows_read(query, world_set)
    rewritten, rewritten_rows = _answer_and_rows_read(optimized, world_set)
    assert original == rewritten
    assert rewritten_rows < original_rows


@pytest.fixture
def travel_ws(flights):
    hotels = Relation(
        HOTEL_ATTRS,
        [("Hilton", "BCN", 200), ("Ritz", "ATL", 300), ("Ibis", "ATL", 100)],
    )
    return WorldSet.single(World.of({"HFlights": flights, "Hotels": hotels}))


class TestExample61:
    def test_rewritten_form_matches_figure_8b(self):
        optimized, trace = optimize(q1(), SCHEMAS)
        assert optimized.to_text() == (
            "cert(π[City]((χ[Dep](HFlights) ⋈[Arr=City] Hotels)))"
        )
        equations = [step.rule.equation for step in trace]
        assert "Eq. (20)" in equations and "Eq. (8)" in equations

    def test_equivalence_on_data(self, travel_ws):
        optimized, _ = optimize(q1(), SCHEMAS)
        assert answer(q1(), travel_ws) == answer(optimized, travel_ws)
        assert answer(q1(), travel_ws).rows == {("ATL",)}

    def test_figure_8_plans_render(self):
        optimized, _ = optimize(q1(), SCHEMAS)
        original_plan = render_plan(q1(), title="(a) Query q1")
        rewritten_plan = render_plan(optimized, title="(b) Query q1'")
        assert "pγ" in original_plan and "χ[Dep,City]" in original_plan
        assert "χ[Dep]" in rewritten_plan and "pγ" not in rewritten_plan

    def test_rewrite_reads_fewer_rows(self, random_travel_ws):
        _assert_rewrite_reads_fewer_rows(q1(), random_travel_ws)


class TestExample62:
    def test_rewritten_form_matches_figure_9b(self):
        optimized, trace = optimize(q2(), SCHEMAS)
        assert optimized.to_text() == (
            "π[City](poss((HFlights ⋈[Arr=City] Hotels)))"
        )
        equations = [step.rule.equation for step in trace]
        assert "Eq. (11)" in equations  # poss absorbed the choice-of

    def test_no_world_operators_besides_poss_remain(self):
        from repro.core.ast import Cert, ChoiceOf, PossGroup

        optimized, _ = optimize(q2(), SCHEMAS)
        assert not any(
            isinstance(node, (ChoiceOf, PossGroup, Cert))
            for node in optimized.walk()
        )

    def test_equivalence_on_data(self, travel_ws):
        optimized, _ = optimize(q2(), SCHEMAS)
        assert answer(q2(), travel_ws) == answer(optimized, travel_ws)
        assert answer(q2(), travel_ws).rows == {("ATL",), ("BCN",)}

    def test_on_complete_data_poss_can_drop_via_translation(self, travel_ws):
        """'In case the input data is complete, the operator poss can be
        dropped and q2' becomes a relational algebra query.'"""
        from repro.inline import optimized_ra_query

        optimized, _ = optimize(q2(), SCHEMAS)
        ra = optimized_ra_query(optimized, SCHEMAS)
        assert "poss" not in ra.to_text()
        world = travel_ws.the_world()
        from repro.relational import Database

        db = Database(dict(world.items()))
        assert ra.evaluate(db) == answer(q2(), travel_ws)

    def test_rewrite_reads_fewer_rows(self, random_travel_ws):
        _assert_rewrite_reads_fewer_rows(q2(), random_travel_ws)
