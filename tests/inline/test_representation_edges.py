"""InlinedRepresentation edge cases (Definition 5.1 boundary forms).

Three degenerate shapes the definition explicitly permits:

* an empty world table W = ∅ — the empty world-set;
* a nullary W = {⟨⟩} — a single complete world (V = ∅);
* world ids present in W but absent from every table — worlds whose
  relations are all empty.

Each is round-tripped through ``rep()`` and through an
``InlineBackend``-backed session seeded with the representation.
"""

import pytest

from repro.backend import ExplicitBackend, InlineBackend
from repro.errors import RepresentationError
from repro.inline import InlinedRepresentation
from repro.inline.factors import FactoredWorld
from repro.isql import ISQLSession
from repro.relational import Relation, Schema
from repro.relational.pad import PAD
from repro.render import render_representation
from repro.render.tables import render_relation
from repro.worlds import World, WorldSet


def backend_session(representation: InlinedRepresentation) -> ISQLSession:
    return ISQLSession(backend=InlineBackend(representation))


class TestEmptyWorldTable:
    def rep(self):
        return InlinedRepresentation(
            {"R": Relation(("A", "$w"), ())},
            Relation(("$w",), ()),
            ("$w",),
        )

    def test_rep_is_the_empty_world_set(self):
        decoded = self.rep().rep()
        assert len(decoded) == 0
        assert decoded.signature == (("R", Schema(("A",))),)

    def test_backend_reports_zero_worlds(self):
        session = backend_session(self.rep())
        assert session.world_count() == 0
        assert len(session.world_set) == 0

    def test_queries_decode_to_no_worlds(self):
        session = backend_session(self.rep())
        result = session.query("select possible A from R;")
        assert result.world_count() == 0
        assert result.possible().rows == set()


class TestNullaryWorldTable:
    def rep(self):
        return InlinedRepresentation(
            {"R": Relation(("A",), [(1,), (2,)])}, Relation.unit(), ()
        )

    def test_rep_is_a_single_complete_world(self):
        decoded = self.rep().rep()
        assert decoded == WorldSet.single(
            World.of({"R": Relation(("A",), [(1,), (2,)])})
        )

    def test_backend_round_trip(self):
        session = backend_session(self.rep())
        assert session.world_count() == 1
        assert session.query("select certain A from R;").relation.rows == {
            (1,),
            (2,),
        }

    def test_initial_state_is_the_nullary_form(self):
        initial = InlinedRepresentation.initial()
        assert initial.world_table == Relation.unit()
        assert initial.rep() == WorldSet.single(World.of({}))


class TestDanglingWorldIds:
    """Ids in W with no rows in any table: worlds with empty relations."""

    def rep(self):
        return InlinedRepresentation(
            {"R": Relation(("A", "$w"), [(1, 0)])},
            Relation(("$w",), [(0,), (1,)]),
            ("$w",),
        )

    def test_rep_keeps_the_empty_world(self):
        decoded = self.rep().rep()
        assert decoded == WorldSet(
            [
                World.of({"R": Relation(("A",), [(1,)])}),
                World.of({"R": Relation(("A",), ())}),
            ]
        )

    def test_backend_counts_both_worlds(self):
        session = backend_session(self.rep())
        assert session.world_count() == 2

    def test_certain_respects_the_empty_world(self):
        session = backend_session(self.rep())
        result = session.query("select certain A from R;")
        assert result.relation.rows == set()
        possible = session.query("select possible A from R;")
        assert possible.relation.rows == {(1,)}

    def test_duplicate_ids_collapse_in_rep_but_not_in_world_count(self):
        representation = InlinedRepresentation(
            {"R": Relation(("A", "$w"), ())},
            Relation(("$w",), [(0,), (1,)]),
            ("$w",),
        )
        assert representation.world_count() == 2  # ids counted apart
        assert representation.distinct_world_count() == 1  # worlds collapse
        assert len(representation.rep()) == 1


class TestValidation:
    def test_table_referencing_unknown_world_id_rejected(self):
        with pytest.raises(RepresentationError, match="not in the world table"):
            InlinedRepresentation(
                {"R": Relation(("A", "$w"), [(1, 99)])},
                Relation(("$w",), [(0,)]),
                ("$w",),
            )

    def test_subset_tables_round_trip_through_strict(self):
        lazy = InlinedRepresentation(
            {"R": Relation(("A",), [(1,)])},
            Relation(("$w",), [(0,), (1,)]),
            ("$w",),
        )
        strict = lazy.strict()
        assert strict.table_id_attrs("R") == ("$w",)
        assert len(strict.tables["R"]) == 2  # replicated per world
        assert strict.rep() == lazy.rep()


# -- every edge shape through one encoding ------------------------------------------

F_R1 = Relation(("$r1",), [(0,), (1,)])
F_R2 = Relation(("$r2",), [(0,), (1,), (2,)])


def _empty():
    return InlinedRepresentation(
        {"R": Relation(("A", "$w"), ())}, Relation(("$w",), ()), ("$w",)
    )


def _empty_nullary():
    return InlinedRepresentation(
        {"R": Relation(("A",), [(1,)])}, Relation((), ()), ()
    )


def _single():
    return InlinedRepresentation(
        {"R": Relation(("A",), [(1,), (2,)])}, Relation.unit(), ()
    )


def _joint():
    """Two correlated ids in one table: W is not a product."""
    return InlinedRepresentation(
        {
            "R": Relation(
                ("A", "$a", "$b"), [("x", 0, 0), ("y", 0, 1), ("x", 1, 1)]
            ),
            "S": Relation(("B", "$a"), [("p", 0), ("q", 1)]),
        },
        Relation(("$b", "$a"), [(0, 0), (1, 0), (1, 1)]),
        ("$a", "$b"),
    )


def _wild():
    """The repair-by-key shape: one wild single-attribute factor per group."""
    rows = [("base", PAD, PAD), ("a0", 0, PAD), ("a1", 1, PAD)]
    rows += [(f"b{j}", PAD, j) for j in range(3)]
    return InlinedRepresentation(
        {"R": Relation(("A", "$r1", "$r2"), rows)},
        FactoredWorld((F_R1, F_R2)),
        ("$r1", "$r2"),
        wild_attrs=("$r1", "$r2"),
    )


def _worlds(*worlds):
    return WorldSet(
        [
            World.of(
                {name: Relation(attrs, rows) for name, (attrs, rows) in world.items()}
            )
            for world in worlds
        ]
    )


EDGE_SHAPES = [
    pytest.param(
        _empty,
        WorldSet([], (("R", Schema(("A",))),)),
        0,
        0,
        0,
        True,
        id="empty-world-set",
    ),
    pytest.param(
        _empty_nullary,
        WorldSet([], (("R", Schema(("A",))),)),
        0,
        0,
        1,
        True,
        id="empty-nullary-world-set",
    ),
    pytest.param(
        _single,
        _worlds({"R": (("A",), [(1,), (2,)])}),
        1,
        1,
        3,
        True,
        id="single-world",
    ),
    pytest.param(
        _joint,
        _worlds(
            {"R": (("A",), [("x",)]), "S": (("B",), [("p",)])},
            {"R": (("A",), [("y",)]), "S": (("B",), [("p",)])},
            {"R": (("A",), [("x",)]), "S": (("B",), [("q",)])},
        ),
        3,
        3,
        8,
        True,
        id="multi-attribute-joint",
    ),
    pytest.param(
        _wild,
        _worlds(
            *(
                {"R": (("A",), [("base",), (f"a{i}",), (f"b{j}",)])}
                for i in range(2)
                for j in range(3)
            )
        ),
        6,
        6,
        11,
        False,
        id="wild-factored",
    ),
]


@pytest.mark.parametrize(
    "build, decoded, worlds, distinct, size, one_table", EDGE_SHAPES
)
def test_edge_shape_decodes_counts_and_compares(
    build, decoded, worlds, distinct, size, one_table
):
    representation = build()
    assert representation.rep() == decoded
    assert representation.world_count() == worlds
    assert representation.distinct_world_count() == distinct
    assert representation.size() == size
    twin = build()
    assert representation == twin and hash(representation) == hash(twin)
    assert (representation == _single()) == (build is _single)
    text = render_representation(representation)
    if one_table:
        assert text.endswith(render_relation(representation.world_table, title="W"))
    else:
        assert text.endswith(render_relation(F_R2, title="W1"))
    # The joint form decodes to the same worlds.
    assert representation.materialized().rep() == decoded


#: One session per evaluation route over the same representation.
ROUTES = (
    ("explicit", lambda rep: ExplicitBackend(rep.rep())),
    ("physical", lambda rep: InlineBackend(rep)),
    ("translate", lambda rep: InlineBackend(rep, strategy="translate")),
)


@pytest.mark.parametrize(
    "query",
    ["select A from R;", "select possible A from R;", "select certain A from R;"],
)
@pytest.mark.parametrize("route, backend", ROUTES, ids=[r[0] for r in ROUTES])
def test_the_empty_world_set_without_ids_answers_in_no_world(route, backend, query):
    """W = ∅ over V = ∅ is the empty world-set, not the single world
    {⟨⟩}: R's stored row lives in no world, so every route answers as
    the explicit enumeration of zero worlds does."""
    result = ISQLSession(backend=backend(_empty_nullary())).query(query)
    assert result.answers() == frozenset()
    assert result.possible() == Relation(("A",), ())
    assert result.certain() == Relation(("A",), ())
    assert result.world_count() == 0


@pytest.mark.parametrize("route, backend", ROUTES, ids=[r[0] for r in ROUTES])
def test_a_repair_over_the_empty_world_set_mints_no_world(route, backend):
    representation = InlinedRepresentation(
        {"R": Relation(("K", "V"), [(1, "a"), (1, "b")])}, Relation((), ()), ()
    )
    session = ISQLSession(backend=backend(representation))
    result = session.query("select V from R repair by key K;")
    assert result.answers() == frozenset()
    assert result.possible() == Relation(("V",), ())
    assert result.world_count() == 0


def test_session_over_a_wild_factored_world_round_trips():
    session = backend_session(_wild())
    assert session.world_count() == 6
    assert session.query("select certain A from R;").relation.rows == {("base",)}
    assert session.query("select possible A from R;").relation.rows == {
        ("base",), ("a0",), ("a1",), ("b0",), ("b1",), ("b2",)
    }
