"""The §8 physical operators: correctness against the Figure 3 semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TranslationError
from repro.core import (
    answer,
    answers,
    cert,
    cert_group,
    choice_of,
    evaluate,
    is_complete_to_complete,
    poss,
    poss_group,
    project,
    rel,
    repair_by_key,
    select,
)
from repro.core.ast import active_domain
from repro.datagen import random_query, random_world_set
from repro.inline import PhysicalEvaluator, physical_answer
from repro.relational import Const, Database, Relation, eq
from repro.worlds import World, WorldSet


def _db(world_set):
    return Database(dict(world_set.the_world().items()))


@given(st.integers(0, 50_000))
@settings(max_examples=150, deadline=None)
def test_physical_matches_reference_on_c2c_queries(seed):
    world_set = random_world_set(seed, max_worlds=1)
    query = random_query(seed * 23 + 9, depth=3)
    if not is_complete_to_complete(query):
        return
    assert physical_answer(query, _db(world_set)) == answer(query, world_set)


@given(st.integers(0, 20_000))
@settings(max_examples=80, deadline=None)
def test_physical_open_queries_decode_to_reference_answers(seed):
    """Per-world answers match the reference, including empty worlds."""
    from repro.relational import Schema

    world_set = random_world_set(seed, max_worlds=1)
    inner = random_query(seed + 5, depth=2)
    env = {"R": Schema(("A", "B")), "S": Schema(("C", "D"))}
    choice_attr = inner.attributes(env)[0]
    query = choice_of(choice_attr, inner)
    state = PhysicalEvaluator(_db(world_set)).evaluate(query)
    physical = frozenset(state.answers_by_world().values())
    reference = answers(query, world_set)
    assert physical == reference


class TestRepairByKeyPhysically:
    """The operator the relational translation cannot express."""

    def test_c2c_repair_query(self):
        db = Database({"R": Relation(("K", "V"), [(1, "a"), (1, "b"), (2, "c")])})
        query = cert(project("K", repair_by_key("K", rel("R"))))
        ws = WorldSet.single(World.of(dict(db.items())))
        assert physical_answer(query, db) == answer(query, ws)

    def test_possible_after_repair(self):
        db = Database({"R": Relation(("K", "V"), [(1, "a"), (1, "b")])})
        query = poss(repair_by_key("K", rel("R")))
        ws = WorldSet.single(World.of(dict(db.items())))
        assert physical_answer(query, db) == answer(query, ws)

    def test_repair_world_count(self):
        db = Database({"R": Relation(("K", "V"), [(1, "a"), (1, "b"), (2, "c")])})
        state = PhysicalEvaluator(db).evaluate(repair_by_key("K", rel("R")))
        assert state.world.count() == 2
        assert len(state.answers_by_world()) == 2

    def test_repair_guard(self):
        rows = [(i // 2, i) for i in range(20)]
        db = Database({"R": Relation(("K", "V"), rows)})
        with pytest.raises(TranslationError, match="worlds"):
            PhysicalEvaluator(db, max_worlds=50).evaluate(
                repair_by_key("K", rel("R"))
            )

    def test_repair_after_choice(self):
        db = Database({"R": Relation(("K", "V"), [(1, "a"), (1, "b"), (2, "c")])})
        query = cert(project("K", repair_by_key("K", choice_of("K", rel("R")))))
        ws = WorldSet.single(World.of(dict(db.items())))
        assert physical_answer(query, db) == answer(query, ws)


class TestEdges:
    def test_answer_requires_uniform_result(self, flights_db):
        with pytest.raises(TranslationError, match="varies"):
            physical_answer(choice_of("Dep", rel("Flights")), flights_db)

    def test_active_domain_rejected(self, flights_db):
        with pytest.raises(TranslationError):
            physical_answer(poss(active_domain(("X",))), flights_db)

    def test_world_guard_on_choice(self, flights_db):
        with pytest.raises(TranslationError, match="exceeded"):
            PhysicalEvaluator(flights_db, max_worlds=2).evaluate(
                choice_of("Dep", rel("Flights"))
            )

    def test_trip_query(self, flights_db, flights_ws):
        query = cert(project("Arr", choice_of("Dep", rel("Flights"))))
        assert physical_answer(query, flights_db) == answer(query, flights_ws)

    def test_grouping_physically(self, flights_db, flights_ws):
        query = poss(
            cert_group(("Dep",), ("Arr",), choice_of("Dep", rel("Flights")))
        )
        assert physical_answer(query, flights_db) == answer(query, flights_ws)

    def test_empty_worlds_preserved_in_grouping(self):
        db = Database({"R": Relation(("A", "B"), [(1, 2), (3, 4)])})
        query = cert(
            project(
                "B",
                select(eq("A", Const(1)), choice_of("A", rel("R"))),
            )
        )
        ws = WorldSet.single(World.of(dict(db.items())))
        # The A=3 world has an empty answer; cert must see it.
        assert physical_answer(query, db) == answer(query, ws)
        assert physical_answer(query, db).rows == set()
