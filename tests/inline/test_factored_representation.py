"""The factored per-group world-id encoding (ISSUE 8).

``FactoredWorld`` keeps independent choices as independent factor
relations — a world is a point in their product, which is never
materialized unless a consumer genuinely correlates the factors. This
pins the factored ``InlinedRepresentation`` contract:

* validation checks membership per factor and names the offending
  *factor column* deterministically in the dangling-id error;
* ``insert_sub_ids`` enumerates only the touched factors' product,
  never the joint world table;
* ``repair by key`` mints one fresh wild factor per violating key
  group, so the representation is *sum*-sized;
* an assignment's world joins the session's W through ``combine``:
  independent splits stay separate factors, and a correlated split
  joins only the factors it shares ids with;
* pairing — the one operation that correlates every world with every
  other — drops to the joint form explicitly (the escape hatch).
"""

import pytest

from repro.backend import ExplicitBackend, InlineBackend
from repro.datagen import flights
from repro.errors import RepresentationError
from repro.inline.factors import FactoredWorld
from repro.inline.pairing import pair_on_inlined
from repro.inline.representation import InlinedRepresentation
from repro.isql.session import ISQLSession
from repro.relational.guards import op_hook
from repro.relational.pad import PAD
from repro.relational.relation import Relation

FI = Relation(("I",), [(0,), (1,)])
FJ = Relation(("J",), [(0,), (1,), (2,)])


def _rep(table_rows, wild_attrs=()):
    table = Relation(("A", "I", "J"), table_rows)
    return InlinedRepresentation(
        [("R", table)],
        FactoredWorld((FI, FJ)),
        ("I", "J"),
        wild_attrs=frozenset(wild_attrs),
    )


# -- FactoredWorld basics -----------------------------------------------------------


def test_factored_world_counts_the_product_without_materializing():
    world = FactoredWorld((FI, FJ))
    assert world.count() == 6
    assert world._materialized is None  # counting never built the product


def test_factored_world_materialize_is_cached_and_equals_the_product():
    world = FactoredWorld((FI, FJ))
    joint = world.materialize()
    assert joint is world.materialize()
    assert set(joint.rows) == {(i, j) for (i,) in FI.rows for (j,) in FJ.rows}


def test_factored_world_project_keeps_only_touched_factors():
    world = FactoredWorld((FI, FJ))
    projected = world.project(("J",))
    assert projected.factors == (FJ,)


def test_factored_world_rejects_overlapping_factor_attributes():
    with pytest.raises(RepresentationError):
        FactoredWorld((FI, Relation(("I",), [(9,)])))


EMPTY_I = Relation(("I",), [])


@pytest.mark.parametrize(
    "factors, stored, count, ids",
    [
        pytest.param((), (), 1, (), id="single-world"),
        pytest.param((Relation.unit(),), (), 1, (), id="unit-factor-dropped"),
        pytest.param((Relation.unit(), FI), (FI,), 2, ("I",), id="unit-beside-factor"),
        pytest.param((EMPTY_I,), (EMPTY_I,), 0, ("I",), id="empty-world-set"),
        pytest.param(
            (Relation((), []),), (Relation((), []),), 0, (), id="empty-nullary"
        ),
        pytest.param((FI, FJ), (FI, FJ), 6, ("I", "J"), id="two-factors"),
    ],
)
def test_factored_world_edge_shapes(factors, stored, count, ids):
    world = FactoredWorld(factors)
    assert world.factors == stored
    assert world.count() == count == len(world.materialize())
    assert world.ids == ids
    assert world == FactoredWorld(stored) and hash(world) == hash(FactoredWorld(stored))


def test_an_empty_factor_must_stand_alone():
    with pytest.raises(RepresentationError, match="only one"):
        FactoredWorld((FI, EMPTY_I.rename({"I": "J"})))


# -- one encoding: every W is a FactoredWorld ---------------------------------------


@pytest.mark.parametrize(
    "world, ids, stored",
    [
        pytest.param(Relation.unit(), (), 0, id="single-world"),
        pytest.param(Relation(("$w",), []), ("$w",), 1, id="empty-world-set"),
        pytest.param(
            Relation(("$a", "$b"), [(0, 0), (0, 1), (1, 1)]),
            ("$a", "$b"),
            1,
            id="multi-attribute-joint",
        ),
        pytest.param(FactoredWorld((FI, FJ)), ("I", "J"), 2, id="factored"),
    ],
)
def test_the_constructor_stores_every_world_as_factors(world, ids, stored):
    rep = InlinedRepresentation({}, world, ids)
    expected = world if isinstance(world, FactoredWorld) else FactoredWorld((world,))
    assert isinstance(rep.world_factors, FactoredWorld)
    assert rep.world_factors == expected
    assert len(rep.world_factors.factors) == stored
    assert rep.world_table == expected.materialize()
    # A one-table W is exposed (and translated, and rendered) as #W.
    assert ("#W" in rep.as_database()) == (len(expected.factors) <= 1)


# -- validation: dangling ids name the offending factor column ----------------------


def test_dangling_factor_id_names_the_factor_column():
    with pytest.raises(RepresentationError) as info:
        _rep([("x", 0, 1), ("y", 5, 2), ("z", 7, 0)])
    message = str(info.value)
    assert "table 'R'" in message
    assert "(factor column 'I')" in message
    # Deterministic: the smallest dangling sub-id is reported, not an
    # arbitrary set element.
    assert "(5,)" in message and "(7,)" not in message


def test_dangling_id_in_second_factor_names_that_column():
    with pytest.raises(RepresentationError) as info:
        _rep([("x", 0, 9)])
    assert "(factor column 'J')" in str(info.value)


def test_pad_in_non_wild_factor_column_is_dangling():
    with pytest.raises(RepresentationError) as info:
        _rep([("x", PAD, 1)])
    assert "(factor column 'I')" in str(info.value)


def test_pad_in_wild_factor_column_validates():
    rep = _rep([("x", PAD, 1)], wild_attrs=("I",))
    assert rep.wild_attrs == frozenset({"I"})


def test_multi_attribute_factor_phrase_lists_the_columns():
    pair_factor = Relation(("I", "J"), [(0, 0), (1, 1)])
    table = Relation(("A", "I", "J"), [("x", 0, 1)])
    with pytest.raises(RepresentationError) as info:
        InlinedRepresentation(
            [("R", table)], FactoredWorld((pair_factor,)), ("I", "J")
        )
    assert "factor columns ['I', 'J']" in str(info.value)


# -- insert_sub_ids stays off the joint product -------------------------------------


def test_insert_sub_ids_enumerates_the_touched_factor_product():
    rep = _rep([("x", 0, 1)])
    assert sorted(rep.insert_sub_ids("R")) == [
        (i, j) for (i,) in sorted(FI.rows) for (j,) in sorted(FJ.rows)
    ]
    # The enumeration went through the factors, not through a
    # materialized joint world table.
    assert rep.world_factors._materialized is None


def test_insert_sub_ids_on_wild_table_pads_the_wild_columns():
    rep = _rep([("x", PAD, 1)], wild_attrs=("I",))
    assert set(rep.insert_sub_ids("R")) == {(PAD, 0), (PAD, 1), (PAD, 2)}


# -- repair by key mints per-group factors ------------------------------------------


def _repaired_session():
    session = ISQLSession(backend=InlineBackend())
    session.register(
        "R",
        Relation(
            ("K", "A"),
            [(1, "x"), (1, "y"), (2, "z"), (3, "p"), (3, "q"), (3, "r")],
        ),
    )
    session.run("Clean <- select * from R repair by key K;")
    return session


def test_repair_by_key_mints_one_wild_factor_per_violating_group():
    session = _repaired_session()
    rep = session.backend.representation
    sizes = sorted(len(factor) for factor in rep.world_factors.factors)
    assert sizes == [2, 3]  # one factor per group, one row per candidate
    assert rep.wild_attrs == frozenset(rep.id_attrs)
    assert session.world_count() == 6  # 2 × 3, counted as a product


def test_repaired_representation_is_sum_sized():
    session = _repaired_session()
    rep = session.backend.representation
    # R (6 rows) + Clean (6 rows) + the 2+3 factor rows — the world
    # tables contribute the *sum* of the factor sizes, not the 6-row
    # joint product (which would also expand Clean per world).
    assert rep.size() == len(rep.tables["R"]) + len(rep.tables["Clean"]) + 5
    assert rep.size() < rep.materialized().size()


def test_materialized_drops_to_the_joint_encoding():
    rep = _repaired_session().backend.representation
    joint = rep.materialized()
    assert joint.world_factors.factors == (joint.world_table,)
    assert not joint.wild_attrs
    assert len(joint.world_table) == 6
    # Same worlds, different encoding.
    assert joint.world_fingerprints() == rep.world_fingerprints()


# -- pairing is the explicit escape hatch to the joint form -------------------------


def test_pairing_a_factored_representation_goes_joint():
    rep = _repaired_session().backend.representation
    paired = pair_on_inlined(rep, "Clean", "Clean2")
    assert paired.world_factors.factors == (paired.world_table,)
    assert len(paired.world_table) == 36  # every world paired with every world
    assert "Clean2" in paired.tables.names


# -- assignments keep the parent's factor structure ---------------------------------


def _split_twice(first: str):
    session = ISQLSession(backend=InlineBackend())
    session.register("R", Relation(("K", "A"), [(1, "x"), (1, "y"), (2, "z")]))
    session.register("S", Relation(("B",), [("p",), ("q",), ("r",)]))
    session.run(first)
    session.run("T <- select * from S choice of B;")
    return session.backend.representation


def test_an_independent_split_of_a_one_table_world_is_a_new_factor():
    rep = _split_twice("C <- select * from R choice of K;")
    # 2 choices of K and 3 of B: two factors, never their 6-row product.
    assert sorted(len(f) for f in rep.world_factors.factors) == [2, 3]
    assert rep.world_count() == 6


def test_an_independent_split_of_a_factored_world_is_a_new_factor():
    rep = _split_twice("C <- select * from R repair by key K;")
    # The repair's wild factor (2 candidates) and the split's own factor.
    assert sorted(len(f) for f in rep.world_factors.factors) == [2, 3]
    assert rep.world_count() == 6


# -- one rule grows W: the state's world combines into it -----------------------------


def _inline_matching_explicit(relations, script, queries):
    """The inline representation after *script*, once every query's
    possible and certain answers and world count, and the session's
    world count, equal the explicit backend's."""
    sessions = []
    for backend in (ExplicitBackend(), InlineBackend()):
        session = ISQLSession(backend=backend)
        for name, relation in relations:
            session.register(name, relation)
        session.run(script)
        sessions.append(session)
    explicit, inline = sessions
    assert inline.world_count() == explicit.world_count()
    for query in queries:
        expected, actual = explicit.query(query), inline.query(query)
        assert actual.possible() == expected.possible(), query
        assert actual.certain() == expected.certain(), query
        assert actual.world_count() == expected.world_count(), query
    return inline.backend.representation


FLIGHT_SPLITS = (
    "A <- select * from F choice of Dep;"
    "B <- select * from F choice of Arr;"
    "C <- select Dep as D2 from F choice of Dep;"
)


def test_three_independent_flight_splits_keep_three_factors():
    session = ISQLSession(backend=InlineBackend())
    session.register("F", flights(200, 40, 3, seed=1))
    session.run(FLIGHT_SPLITS)
    rep = session.backend.representation
    assert [len(f) for f in rep.world_factors.factors] == [200, 40, 200]
    assert rep.world_count() == 1_600_000
    assert rep.size() == 2389


def test_scaled_down_flight_splits_answer_like_explicit():
    rep = _inline_matching_explicit(
        (("F", flights(5, 3, 2, seed=1)),),
        FLIGHT_SPLITS,
        (
            "select Dep, Arr from A;",
            "select A.Arr from A, B where A.Arr = B.Arr;",
            "select D2 from C where D2 = 'D1';",
        ),
    )
    assert len(rep.world_factors.factors) == 3


SPLIT_FIXTURE = (
    ("R", Relation(("K", "A"), [(1, "x"), (1, "y"), (2, "z")])),
    ("S", Relation(("B",), [("p",), ("q",), ("r",)])),
)
SPLIT_QUERIES = (
    "select A from D;",
    "select K, A from C;",
    "select D.A, T.B from D, T;",
)


def test_a_correlated_split_joins_only_the_factor_it_shares_ids_with():
    rep = _inline_matching_explicit(
        SPLIT_FIXTURE,
        "C <- select * from R choice of K;"
        "T <- select * from S choice of B;"
        "D <- select * from C choice of A;",
        SPLIT_QUERIES,
    )
    factors = {len(f.schema.attributes): len(f) for f in rep.world_factors.factors}
    assert factors == {1: 3, 2: 3}  # [B] apart from [K, A]
    assert rep.size() == 21


def test_a_split_of_a_repaired_table_joins_its_wild_factor_unwilded():
    rep = _inline_matching_explicit(
        SPLIT_FIXTURE,
        "C <- select * from R repair by key K;"
        "T <- select * from S choice of B;"
        "D <- select * from C choice of A;",
        SPLIT_QUERIES,
    )
    factors = {len(f.schema.attributes): f for f in rep.world_factors.factors}
    assert sorted(factors) == [1, 2]
    assert len(factors[1]) == 3  # [B] stays apart
    assert len(factors[2]) == 4  # the repair id and the choice of A
    (repair,) = rep.table_id_attrs("C")
    assert repair in factors[2].schema.attributes
    assert repair not in rep.wild_attrs
    assert PAD not in {row[0] for row in rep.tables["C"].project((repair,)).rows}
    assert rep.size() == 24
    assert rep.world_count() == 12


def test_a_self_join_reads_the_session_factor_without_rebuilding_it():
    hflights = flights(4096, 64, 3)
    session = ISQLSession(backend=InlineBackend())
    session.register("HFlights", hflights)
    session.run("Itin <- select * from HFlights choice of Dep;")
    ops = []
    with op_hook(lambda op, rows: ops.append((op, rows))):
        session.query(
            "select possible A.Arr from Itin A, Itin B where A.Dep = B.Dep;"
        )
    # Only the answer join over both copies of Itin; no W rebuild.
    assert [rows for op, rows in ops if op == "join_on"] == [2 * len(hflights)]


def _wide_repair_session(max_worlds=None):
    """2⁷⁰ worlds: 70 violating keys of two candidates each."""
    session = ISQLSession(backend=InlineBackend(), max_worlds=max_worlds)
    session.register(
        "R", Relation(("K", "V"), [(k, v) for k in range(70) for v in (0, 1)])
    )
    session.register("S", Relation(("K",), [(k,) for k in range(0, 70, 7)]))
    session.run("C <- select * from R repair by key K;")
    return session


def test_a_result_over_more_than_2_63_worlds_has_a_repr():
    result = _wide_repair_session().query("select K, V from C;")
    assert f"{2 ** 70} world ids" in repr(result)


def test_a_world_limit_above_2_63_guards_a_factored_join():
    query = "select C.K from C, S where C.K = S.K;"
    bounded = _wide_repair_session(max_worlds=10**30).query(query)
    unbounded = _wide_repair_session().query(query)
    assert bounded.possible() == unbounded.possible()
    assert bounded.certain() == unbounded.certain()
    assert bounded.possible() == Relation(("K",), [(k,) for k in range(0, 70, 7)])
