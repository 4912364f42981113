"""Property-based differential suite for DML with subqueries (ISSUE 4).

PR 4 moved the last documented residue — condition subqueries under
``or``, non-aggregate scalar subqueries, and DML whose conditions or
set expressions contain subqueries — from the explicit fallback onto
the inlined representation. This suite holds the flat DML evaluation to
the engine's Section 3 semantics: randomized scripts build a split
session state, run subquery-bearing delete/update statements on it, and
must leave identical states and answers on the explicit backend, the
inline physical backend, the Figure 6 translate backend and the tuple
kernel — with the inline routes asserted fallback-free.

Cases are generated deterministically from a seed so failures replay.
Deterministic edge tests pin the corners randomized scripts would make
flaky: the scalar cardinality error, key-constraint rejection, empty
tables, and worlds whose table empties out (dangling world ids).
"""

from __future__ import annotations

import random

import pytest

from repro.backend import InlineBackend
from repro.backend.testing import assert_backends_agree, fuzz_range
from repro.datagen import Scenario, census
from repro.errors import EvaluationError
from repro.inline.representation import InlinedRepresentation
from repro.isql import ISQLSession
from repro.relational import Relation
from repro.relational.array_kernel import have_numpy

BACKENDS = (
    "explicit",
    "inline",
    "inline-translate",
    ("inline-tuple", lambda: InlineBackend(kernel="tuple")),
) + (
    (("inline-array", lambda: InlineBackend(kernel="array")),)
    if have_numpy()
    else ()
)

FALLBACK_FREE = BACKENDS[1:]


def _relations(rng: random.Random) -> tuple[tuple[str, Relation], ...]:
    """Target T(K, V, W) and helper H(X, Y); H is unique on X so that
    non-aggregate scalar subqueries keyed on X stay single-valued."""
    t_rows = {
        (k, rng.randrange(4), rng.randrange(1, 5) * 10)
        for k in range(rng.randrange(3, 8))
    }
    xs = rng.sample(range(4), k=rng.randrange(2, 5))
    h_rows = {(x, rng.randrange(1, 4) * 100) for x in xs}
    return (
        ("T", Relation(("K", "V", "W"), t_rows)),
        ("H", Relation(("X", "Y"), h_rows)),
    )


CONDITIONS = (
    "V in (select X from H)",
    "V not in (select X from H)",
    "exists (select * from H where X = V)",
    "not exists (select * from H where X = V and Y > 100)",
    "W > (select min(Y) from H where X = V)",
    "W + 100 >= (select Y from H where X = V)",
    "V in (select X from H) or W > 30",
    "exists (select * from H where X = V) or K in (select X from H)",
    "not (V in (select X from H) and W > 20)",
    # Subqueries over the *split* relation: their answers vary per
    # world, so these route through the general id-expanded
    # mask/scatter path rather than the value-determined one — both
    # flat DML routes stay under randomized differential coverage.
    "K in (select K from Split where W > 10)",
    "W >= (select max(W) from Split)",
    "exists (select * from Split where W > 20) or V in (select X from H)",
)

SET_CLAUSES = (
    "W = W + 1",
    "W = (select count(Y) from H where X = V) * 10",
    "W = (select Y from H where X = V) + K",
    "V = (select min(X) from H)",
    "W = (select sum(Y) from H) - W",
    # Split-keyed set input: the general path's per-world-id scatter.
    "W = (select count(K) from Split) * 10",
)


def _dml_case(rng: random.Random, index: int) -> Scenario:
    split_attr = rng.choice(("V", "W"))
    statements = [f"Split <- select * from T choice of {split_attr};"]
    for _ in range(rng.randrange(1, 4)):
        target = rng.choice(("Split", "Split", "T"))
        if rng.random() < 0.5:
            statements.append(
                f"delete from {target} where {rng.choice(CONDITIONS)};"
            )
        else:
            statements.append(
                f"update {target} set {rng.choice(SET_CLAUSES)} "
                f"where {rng.choice(CONDITIONS)};"
            )
    closing = rng.choice(("possible", "certain"))
    return Scenario(
        name=f"dml_{index}",
        relations=_relations(rng),
        script="".join(statements),
        query=f"select {closing} K, V, W from Split;",
        approx_worlds=5,
    )


@pytest.mark.parametrize("index", fuzz_range(64))
def test_randomized_dml_scripts_agree(index):
    rng = random.Random(4000 + index)
    scenario = _dml_case(rng, index)
    assert_backends_agree(scenario, BACKENDS)


@pytest.mark.parametrize("index", fuzz_range(16))
def test_randomized_dml_scripts_are_fallback_free(index):
    """Every generated statement must stay on the flat tables."""
    from repro.backend.testing import run_scenario

    rng = random.Random(4000 + index)
    scenario = _dml_case(rng, index)
    for label, backend in (b if isinstance(b, tuple) else (b, b) for b in FALLBACK_FREE):
        session, _ = run_scenario(scenario, backend)
        assert not list(session.backend.fallback_events), (
            label,
            list(session.backend.fallback_events),
        )


def _session(backend, keys: dict | None = None) -> ISQLSession:
    s = ISQLSession(backend=backend)
    s.register("T", Relation(("K", "V", "W"), [(1, 0, 10), (2, 1, 20), (3, 0, 30)]))
    s.register("H", Relation(("X", "Y"), [(0, 100), (1, 200)]))
    for relation, attributes in (keys or {}).items():
        s.declare_key(relation, attributes)
    return s


@pytest.mark.parametrize("backend", ["explicit", "inline", "inline-translate"])
class TestDeterministicEdges:
    def test_scalar_cardinality_error_parity(self, backend):
        """A many-valued scalar subquery errors on every route alike."""
        s = _session(backend)
        s.register("Multi", Relation(("X", "Y"), [(0, 1), (0, 2)]))
        with pytest.raises(EvaluationError, match="more than one row"):
            s.run("update T set W = (select Y from Multi where X = V) "
                      "where V = 0;")

    def test_scalar_error_is_lazy_when_no_row_matches(self, backend):
        """No matched row ever reads the ambiguous group: no error."""
        s = _session(backend)
        s.register("Multi", Relation(("X", "Y"), [(9, 1), (9, 2)]))
        s.run("update T set W = (select Y from Multi where X = V) "
                  "where V in (select X from Multi);")
        assert s.world_set.the_world()["T"].rows == {
            (1, 0, 10), (2, 1, 20), (3, 0, 30)
        }

    def test_empty_scalar_subquery_defaults_to_zero(self, backend):
        """The engine's empty scalar subquery evaluates to 0."""
        s = _session(backend)
        s.run("update T set W = (select Y from H where X = W) "
                  "where V = 1;")
        assert s.world_set.the_world()["T"].rows == {
            (1, 0, 10), (2, 1, 0), (3, 0, 30)
        }

    def test_key_violation_discards_in_all_worlds(self, backend):
        s = _session(backend, keys={"Split": ("K",)})
        s.run("Split <- select * from T choice of V;")
        # V=0 worlds hold K ∈ {1, 3}: collapsing K to 9 collides there,
        # so the update must be discarded in *every* world.
        s.run("update Split set K = 9 "
                  "where V in (select X from H where Y >= 100);")
        worlds = {frozenset(w["Split"].rows) for w in s.world_set.worlds}
        assert worlds == {
            frozenset({(1, 0, 10), (3, 0, 30)}),
            frozenset({(2, 1, 20)}),
        }

    def test_delete_emptying_one_world_keeps_the_world(self, backend):
        """A world whose table empties still exists (dangling world id)."""
        s = _session(backend)
        s.run("Split <- select * from T choice of V;")
        s.run("delete from Split where exists "
                  "(select * from H where X = V and Y <= 100);")
        assert s.world_count() == 2
        worlds = {frozenset(w["Split"].rows) for w in s.world_set.worlds}
        assert worlds == {frozenset(), frozenset({(2, 1, 20)})}

    def test_dml_on_empty_relation(self, backend):
        s = ISQLSession(backend=backend)
        s.register("T", Relation(("K", "V", "W"), []))
        s.register("H", Relation(("X", "Y"), [(0, 100)]))
        s.run("delete from T where V in (select X from H);")
        s.run("update T set W = (select Y from H where X = V) "
                  "where exists (select * from H where X = V);")
        assert s.world_set.the_world()["T"].rows == set()

    def test_update_reads_preupdate_rows(self, backend):
        """Every set clause evaluates against the original row."""
        s = _session(backend)
        s.run("update T set V = W, W = (select count(Y) from H "
                  "where X = V) where K in (select X from H) or K >= 1;")
        # V := old W; W := count keyed on old V (0→1 match, 1→1 match).
        assert s.world_set.the_world()["T"].rows == {
            (1, 10, 1), (2, 20, 1), (3, 30, 1)
        }

    def test_non_world_local_dml_subquery_parity(self, backend):
        """A world-splitting DML subquery raises on every route alike."""
        s = _session(backend)
        with pytest.raises(EvaluationError):
            s.run("delete from T where V in "
                      "(select X from H choice of X);")


class TestErrorOrderParity:
    """The flat route raises exactly where the engine's row-at-a-time
    left-to-right short-circuit does — pinned after review found two
    divergences in the first cut of ISSUE 4."""

    ROWS = [(1, 10), (2, 20)]
    MULTI = [(5, 1), (6, 1)]  # two C values for every D: ambiguous

    def _sessions(self):
        for backend in ("explicit", "inline", "inline-translate"):
            s = ISQLSession(backend=backend)
            s.register("R", Relation(("A", "B"), self.ROWS))
            s.register("S", Relation(("C", "D"), self.MULTI))
            yield backend, s

    def test_scalar_under_or_agrees_via_fallback(self):
        """`A = 1 or B = (sub)`: the engine short-circuits, so the row
        with A = 1 never reads the ambiguous scalar — a union branch
        would. The compiler routes scalar-under-or to the fallback, so
        both backends return the same answer (and the same error when
        every row reaches the subquery)."""
        query = (
            "select A from R where A = 1 or "
            "B = (select C from S where D = A);"
        )
        outcomes = {}
        for backend, s in self._sessions():
            try:
                outcomes[backend] = s.query(query).relation.sorted_rows()
            except EvaluationError as error:
                outcomes[backend] = str(error)
        assert len(set(map(repr, outcomes.values()))) == 1, outcomes

    def test_conjunct_order_preserves_engine_laziness(self):
        """`A = 99 and B = (sub)`: no row survives the first conjunct,
        so the engine never reads the ambiguous scalar — neither may
        the flat route (conjuncts compile in syntactic order)."""
        query = (
            "select A from R where A = 99 and "
            "B = (select C from S where D = 1);"
        )
        for backend, s in self._sessions():
            assert s.query(query).relation.sorted_rows() == [], backend

    def test_conjunct_order_preserves_engine_errors(self):
        """`B = (sub) and A = 99`: the engine evaluates the scalar
        first, for every row — the flat route must raise too, not hide
        the error behind a reordered plain filter."""
        query = (
            "select A from R where B = (select C from S where D = 1) "
            "and A = 99;"
        )
        for backend, s in self._sessions():
            with pytest.raises(EvaluationError, match="more than one row"):
                s.query(query)


class TestNoOpDMLStaysLazy:
    """A DML statement matching nothing must not commit an id-expanded
    copy of a lazily stored table (review finding on _apply_delete)."""

    @pytest.mark.parametrize("statement", [
        "delete from U where P in (select X from H where Y = 99);",
        "update U set P = (select min(X) from H) where P in "
        "(select X from H where Y = 99);",
    ])
    def test_table_keeps_its_id_columns(self, statement):
        s = ISQLSession(backend="inline")
        s.register("T", Relation(("K", "V"), [(1, 0), (2, 1), (3, 2)]))
        s.register("H", Relation(("X", "Y"), [(0, 100), (1, 200)]))
        s.register("U", Relation(("P",), [(7,), (8,)]))
        s.run("Split <- select * from T choice of V;")  # 3 worlds
        before = s.backend.representation.tables["U"]
        assert s.backend.representation.table_id_attrs("U") == ()
        s.run(statement)  # matches nothing; H/Split ids must not leak
        after = s.backend.representation.tables["U"]
        assert s.backend.representation.table_id_attrs("U") == ()
        assert after.rows == before.rows


class TestValueDeterminedDMLNeverExpands:
    """A value-determined statement — every relation its subqueries
    read is stored without id columns — applies its id-free answer to
    the repaired table as stored: no id expansion at any point, wild
    PAD columns kept, and the footprint never grows (2¹³ worlds)."""

    @pytest.fixture(
        params=("columnar", "tuple") + (("array",) if have_numpy() else ())
    )
    def session(self, request, monkeypatch):
        s = ISQLSession(backend=InlineBackend(kernel=request.param))
        s.register("Census", census(24, seed=7, duplicates=13))
        regions = [(f"City{i}", f"Reg{i % 4}") for i in range(12)]
        s.register("Regions", Relation(("City", "Region"), regions))
        blocked = [("City1",), ("City3",), ("City5",)]
        s.register("Blocked", Relation(("Town",), blocked))
        s.declare_key("Clean", ("SSN",))
        s.run("Clean <- select * from Census repair by key SSN;")
        assert s.backend.representation.world_count() == 2**13

        def refuse(*args, **kwargs):
            raise AssertionError("value-determined DML expanded a table")

        monkeypatch.setattr(InlinedRepresentation, "expanded", refuse)
        return s

    def test_update_rewrites_the_stored_rows_in_place(self, session):
        rep = session.backend.representation
        before, size = rep.tables["Clean"], rep.size()
        session.run(
            "update Clean set Name = (select min(Region) from Regions "
            "where City = POW) where POW in (select City from Regions);"
        )
        after = session.backend.representation
        assert session.backend.fallback_total == 0
        assert after.tables["Clean"].rows != before.rows  # rows were rewritten
        assert after.tables["Clean"].schema == before.schema
        assert after.size() == size

    def test_delete_masks_the_stored_rows(self, session):
        rep = session.backend.representation
        before, size = rep.tables["Clean"], rep.size()
        session.run(
            "delete from Clean where exists "
            "(select * from Blocked where Town = POB);"
        )
        after = session.backend.representation
        assert session.backend.fallback_total == 0
        assert after.tables["Clean"].rows < before.rows  # a strict subset
        assert after.size() == size - (len(before) - len(after.tables["Clean"]))
