"""Batched DML ≡ statement-at-a-time, property-based (ISSUE 5).

``ISQLSession.run`` coalesces consecutive subquery-free DML statements
against one relation into a single ``backend.run_dml_batch`` call; the
inline backend applies the whole run in one pass over the flat table
and commits once. That is allowed to change *cost* only: this suite
holds ``run(script)`` to row-for-row (and applied-flag-for-applied-flag)
equivalence with one ``run()`` call per statement — a reference that
is checked never to coalesce a batch — on every backend (explicit,
inline physical, Figure 6 translate) under every execution kernel, and
additionally holds all backends to each other on the batched route.

Randomized scripts mix inserts, updates and deletes over a split
relation (by choice, or by repair with PAD-wildcard id columns) and a
complete one (batch boundaries arise from relation switches), with
key constraints generating mid-batch discards. A string column draws
mixed-type comparisons (str vs int) and mixed-type storage, and a
collapsing update makes rewritten rows collide. The
deterministic edge tests pin the corners randomized scripts would make
flaky: key-violation rejection *ordering* inside a batch, the
no-op-DML laziness edge (a batch over a lazily stored table must not
make it grow id columns), mid-batch error parity, insert
deduplication (also under a key), DML on repaired tables, and the
kernel-op route every subquery-free statement takes.
"""

from __future__ import annotations

import random

import pytest

from repro.backend import InlineBackend
from repro.backend.testing import (
    assert_backends_agree,
    fuzz_range,
    no_dml_batches,
    statement_texts,
)
from repro.datagen import Scenario
from repro.errors import SchemaError
from repro.isql import ISQLSession
from repro.relational import Relation
from repro.relational.array_kernel import have_numpy
from repro.testing.faults import count_ops

BACKENDS = (
    ("explicit", "explicit"),
    ("inline[columnar]", lambda: InlineBackend(kernel="columnar")),
    ("inline[tuple]", lambda: InlineBackend(kernel="tuple")),
    (
        "translate[columnar]",
        lambda: InlineBackend(strategy="translate", kernel="columnar"),
    ),
    (
        "translate[tuple]",
        lambda: InlineBackend(strategy="translate", kernel="tuple"),
    ),
) + (
    (
        ("inline[array]", lambda: InlineBackend(kernel="array")),
        (
            "translate[array]",
            lambda: InlineBackend(strategy="translate", kernel="array"),
        ),
    )
    if have_numpy()
    else ()
)

CONDITIONS = (
    "V = 1",
    "W > 20",
    "K != 2 and V = 0",
    "V = 1 or W >= 30",
    "not (W <= 20)",
    "K + V > 2",
    # Mixed-type comparisons: str vs int orders false, = false, != true
    # (the columnar TypeError fallback and the array dtype shortcuts).
    "S < 2",
    "S = 1 or V = 0",
    "S != 0 and W >= 20",
    "not (W < 'b') and S >= 'b'",
)

SET_CLAUSES = (
    "W = W + 1",
    "V = 3",
    "W = K * 10",
    "K = 1",  # collides under a key on K: exercises mid-batch discards
    "V = W, W = V",  # every clause reads the pre-update row
    "S = 'z'",
    "S = 7",  # an int into the string column: mixed-type storage
    "K = 0, V = 0, W = 0, S = 'a'",  # matched rows collide: dedup
)

INSERT_ROWS = ("9, 0, 90, 'a'", "1, 1, 11, 'b'", "2, 5, 50, 3")


def _relations(rng: random.Random) -> tuple[tuple[str, Relation], ...]:
    t_rows = {
        (k, rng.randrange(3), rng.randrange(1, 5) * 10, rng.choice("abc"))
        for k in range(rng.randrange(3, 7))
    }
    u_rows = {(p,) for p in rng.sample(range(6), k=rng.randrange(1, 4))}
    return (
        ("T", Relation(("K", "V", "W", "S"), t_rows)),
        ("U", Relation(("P",), u_rows)),
    )


def _statement(rng: random.Random, target: str) -> str:
    roll = rng.random()
    if target == "U":
        if roll < 0.4:
            return f"insert into U values ({rng.randrange(8)});"
        return f"delete from U where P >= {rng.randrange(6)};"
    if roll < 0.25:
        return f"insert into {target} values ({rng.choice(INSERT_ROWS)});"
    if roll < 0.6:
        return (
            f"update {target} set {rng.choice(SET_CLAUSES)} "
            f"where {rng.choice(CONDITIONS)};"
        )
    return f"delete from {target} where {rng.choice(CONDITIONS)};"


def _batch_case(rng: random.Random, index: int) -> Scenario:
    # A split target and a complete one; consecutive same-relation
    # statements batch, relation switches close batches mid-script.
    # The split is a choice (concrete id columns) or a repair (wild,
    # PAD-pattern id columns).
    targets = [rng.choice(("Split", "Split", "T", "U")) for _ in range(rng.randrange(2, 7))]
    statements = [_statement(rng, target) for target in targets]
    keys = (("Split", ("K",)),) if rng.random() < 0.5 else ()
    closing = rng.choice(("possible", "certain"))
    split = rng.choice(("choice of V", "repair by key V"))
    return Scenario(
        name=f"dml_batch_{index}",
        relations=_relations(rng),
        keys=keys,
        script=f"Split <- select * from T {split};" + "".join(statements),
        query=f"select {closing} K, V, W, S from Split;",
        approx_worlds=8,
    )


def _run(session: ISQLSession, script: str, batched: bool):
    """``run(script)``, or the reference: one ``run()`` per statement."""
    if batched:
        return session.run(script)
    with no_dml_batches(session):
        return [
            result for text in statement_texts(script) for result in session.run(text)
        ]


def _replay(scenario: Scenario, backend, batched: bool):
    resolved = backend() if callable(backend) else backend
    session = ISQLSession(backend=resolved)
    for name, relation in scenario.relations:
        session.register(name, relation)
    for relation, attributes in scenario.keys:
        session.declare_key(relation, attributes)
    flags = [
        (result.kind, result.applied)
        for result in _run(session, scenario.script, batched)
        if result.applied is not None
    ]
    return session, flags


@pytest.mark.parametrize("index", fuzz_range(48))
def test_batched_equals_statement_at_a_time_per_backend(index):
    """run(script) vs run() per statement: same flags, same state,
    every backend."""
    rng = random.Random(5000 + index)
    scenario = _batch_case(rng, index)
    for label, backend in BACKENDS:
        batched_session, batched_flags = _replay(scenario, backend, batched=True)
        plain_session, plain_flags = _replay(scenario, backend, batched=False)
        assert batched_flags == plain_flags, (label, scenario.script)
        assert batched_session.world_count() == plain_session.world_count(), (
            label,
            scenario.script,
        )
        assert batched_session.world_set == plain_session.world_set, (
            label,
            scenario.script,
        )


@pytest.mark.parametrize("index", fuzz_range(24))
def test_batched_backends_agree_with_each_other(index):
    """The batched route itself, differentially across all backends
    (run_scenario runs each script through one run() call)."""
    rng = random.Random(5000 + index)
    assert_backends_agree(_batch_case(rng, index), BACKENDS)


@pytest.mark.parametrize("index", fuzz_range(24))
def test_batched_scripts_are_fallback_free(index):
    from repro.backend.testing import run_scenario

    rng = random.Random(5000 + index)
    scenario = _batch_case(rng, index)
    for label, backend in BACKENDS[1:]:
        session, _ = run_scenario(scenario, backend)
        assert not list(session.backend.fallback_events), (
            label,
            list(session.backend.fallback_events),
        )


def _session(backend="inline", key: bool = True) -> ISQLSession:
    session = ISQLSession(backend=backend)
    session.register(
        "T", Relation(("K", "V", "W"), [(1, 0, 10), (2, 1, 20), (3, 0, 30)])
    )
    if key:
        session.declare_key("T", ("K",))
    return session


@pytest.mark.parametrize("backend", ["explicit", "inline", "inline-translate"])
class TestBatchEdges:
    def test_key_rejection_ordering_inside_a_batch(self, backend):
        """A discarded statement is discarded *alone*: earlier and later
        statements of the same batch still apply, in order."""
        session = _session(backend)
        results = session.run(
            "insert into T values (4, 2, 40);"   # applies
            "insert into T values (1, 9, 99);"   # key collision: discarded
            "update T set K = 1 where V = 0;"    # collides (two V=0 rows → K=1): discarded
            "delete from T where K = 2;"         # still applies
            "update T set W = 0 where K = 4;"    # applies to the first insert's row
        )
        assert [r.applied for r in results] == [True, False, False, True, True]
        assert session.world_set.the_world()["T"].rows == {
            (1, 0, 10),
            (3, 0, 30),
            (4, 2, 0),
        }

    def test_noop_batch_keeps_lazily_stored_table(self, backend):
        """A batch matching nothing must not expand or replicate a
        lazily stored table over the session's world ids."""
        session = _session(backend, key=False)
        session.register("Solo", Relation(("P",), [(7,), (8,)]))
        session.run("Split <- select * from T choice of V;")
        session.run(
            "delete from Solo where P = 99;"
            "update Solo set P = 0 where P = 99;"
        )
        assert {frozenset(w["Solo"].rows) for w in session.world_set.worlds} == {
            frozenset({(7,), (8,)})
        }
        if backend != "explicit":
            inline_rep = session.backend.representation
            assert inline_rep.table_id_attrs("Solo") == ()

    def test_mid_batch_error_commits_applied_prefix(self, backend):
        """An arity error mid-batch raises like the statement-at-a-time
        reference — with the statements before it already applied."""
        for batched in (False, True):
            session = _session(backend, key=False)
            script = (
                "delete from T where K = 1;"
                "insert into T values (5, 5);"  # arity 2 ≠ 3: raises
                "delete from T where K = 2;"
            )
            with pytest.raises(SchemaError):
                _run(session, script, batched)
            assert session.world_set.the_world()["T"].rows == {
                (2, 1, 20),
                (3, 0, 30),
            }, ("batched" if batched else "plain")

    def test_insert_dedup_and_reinsert(self, backend):
        """Inserting an existing row is a set-semantics no-op (applied),
        and a batch of identical inserts collapses to one row."""
        session = _session(backend, key=False)
        results = session.run(
            "insert into T values (1, 0, 10);"
            "insert into T values (6, 0, 60);"
            "insert into T values (6, 0, 60);"
        )
        assert [r.applied for r in results] == [True, True, True]
        assert session.world_set.the_world()["T"].rows == {
            (1, 0, 10),
            (2, 1, 20),
            (3, 0, 30),
            (6, 0, 60),
        }

    def test_reinserting_a_present_row_under_a_key_applies(self, backend):
        """A row already present is no key violation in the worlds
        holding it (set semantics): the insert applies, lands in the
        worlds lacking it, and only a *different* row claiming the key
        rejects."""
        for batched in (False, True):
            session = _session(backend)
            session.run("Split <- select * from T choice of V;")
            session.declare_key("Split", ("K",))
            results = _run(
                session,
                "insert into T values (1, 0, 10);"
                "insert into Split values (1, 0, 10);"
                "insert into Split values (2, 0, 99);",
                batched,
            )
            label = (backend, "batched" if batched else "plain")
            assert [r.applied for r in results] == [True, True, False], label
            worlds = {frozenset(w["Split"].rows) for w in session.world_set.worlds}
            assert worlds == {
                frozenset({(1, 0, 10), (3, 0, 30)}),
                frozenset({(1, 0, 10), (2, 1, 20)}),
            }, label

    def test_batch_over_split_relation_inserts_per_world(self, backend):
        """An insert inside a batch lands in every world of a split
        relation; a later delete in the same batch sees it."""
        session = _session(backend, key=False)
        session.run("Split <- select * from T choice of V;")
        results = session.run(
            "insert into Split values (9, 9, 90);"
            "update Split set W = 91 where K = 9;"
            "delete from Split where V = 1;"
        )
        assert [r.applied for r in results] == [True, True, True]
        worlds = {frozenset(w["Split"].rows) for w in session.world_set.worlds}
        assert worlds == {
            frozenset({(1, 0, 10), (3, 0, 30), (9, 9, 91)}),
            frozenset({(9, 9, 91)}),
        }


@pytest.mark.parametrize("backend", ["explicit", "inline", "inline-translate"])
def test_empty_declared_key_is_no_constraint_in_batches(backend):
    """A degenerate ``declare_key(T, ())`` constrains nothing on the
    statement-at-a-time paths; the batch pipeline must agree (review
    finding: ``key is not None`` vs truthiness diverged here)."""
    for batched in (False, True):
        session = _session(backend, key=False)
        session.declare_key("T", ())
        results = _run(
            session,
            "insert into T values (4, 4, 40);"
            "insert into T values (5, 5, 50);"
            "update T set W = 0 where K = 4;",
            batched,
        )
        assert [r.applied for r in results] == [True, True, True], (
            backend,
            "batched" if batched else "plain",
        )
        assert session.world_set.the_world()["T"].rows == {
            (1, 0, 10),
            (2, 1, 20),
            (3, 0, 30),
            (4, 4, 0),
            (5, 5, 50),
        }


PIPELINE_SCRIPTS = (
    ("update Split set W = 0 where K >= 2;", 1),
    ("delete from Split where K = 3;", 1),
    ("delete from Split where K + V > 2;", 1),  # arithmetic condition
    ("update Split set V = 5 where W / 10 = 1 or K - V = 0;", 1),
    ("insert into Split values (9, 9, 90);", 0),
    (
        "update Split set W = 0 where K >= 2;"
        "update Split set V = 5 where W = 10;"
        "delete from Split where K = 3;"
        "insert into Split values (9, 9, 90);",
        3,
    ),
)


@pytest.mark.parametrize("script,masks", PIPELINE_SCRIPTS)
@pytest.mark.parametrize(
    "kernel", ("columnar", "tuple") + (("array",) if have_numpy() else ())
)
def test_subquery_free_dml_runs_the_kernel_op_pipeline(kernel, script, masks):
    """A subquery-free delete/update — alone or batched, with or without
    arithmetic — crosses ``predicate_mask`` once, on every kernel, and
    ends in the explicit engine's worlds."""
    reference = _session("explicit", key=False)
    reference.run("Split <- select * from T choice of V;")
    expected = [r.applied for r in reference.run(script)]
    session = _session(InlineBackend(kernel=kernel), key=False)
    session.run("Split <- select * from T choice of V;")
    results = []
    crossings = count_ops(
        lambda: results.extend(session.run(script)), op="predicate_mask"
    )
    assert crossings == masks
    assert [r.applied for r in results] == expected
    assert not session.backend.fallback_events
    assert session.world_set == reference.world_set


WILD_SCRIPTS = (
    # (1, 1, 10) is present in the worlds that kept it and rivalled by
    # (1, 2, 20) in the others: a violation somewhere, so discarded.
    "insert into C values (1, 1, 10);"
    "update C set W = 0 where V = 1;"
    "delete from C where W >= 30;",
    # Equal value rows under compatible id patterns are one tuple in
    # the worlds holding both — no key violation, and a re-insert of a
    # row present everywhere applies without adding one.
    "update C set V = 1, W = 10 where K = 1;"
    "update C set K = 1, V = 1, W = 10 where K = 2;"
    "insert into C values (1, 1, 10);"
    "insert into C values (3, 0, 0);",
)


def _wild_session(backend) -> ISQLSession:
    session = ISQLSession(backend=backend)
    session.register(
        "T",
        Relation(("K", "V", "W"), [(1, 1, 10), (1, 2, 20), (2, 1, 30), (3, 3, 30)]),
    )
    session.run("C <- select * from T repair by key K;")
    session.declare_key("C", ("K",))
    return session


@pytest.mark.parametrize("script", WILD_SCRIPTS, ids=["rival-row", "equal-rows"])
@pytest.mark.parametrize(
    "backend", [b for _, b in BACKENDS[1:]], ids=[label for label, _ in BACKENDS[1:]]
)
def test_dml_on_wild_tables_matches_explicit(backend, script):
    """Subquery-free DML on a repaired (PAD-wildcard) table, one
    statement at a time and as one batch, equals the explicit engine
    flag for flag and world for world — and never grows the table."""
    reference = _wild_session("explicit")
    expected = [r.applied for r in reference.run(script)]
    for batched in (False, True):
        session = _wild_session(backend())
        representation = session.backend.representation
        assert representation.table_wild_attrs("C")
        rows = len(representation.tables["C"])
        flags = [r.applied for r in _run(session, script, batched)]
        label = "batched" if batched else "plain"
        assert flags == expected, label
        assert session.world_set == reference.world_set, label
        assert len(session.backend.representation.tables["C"]) <= rows, label
        assert not session.backend.fallback_events, label


def test_batched_run_keeps_statement_kinds():
    """Non-DML statements pass through unchanged, one result per
    statement, DML kinds preserved across a coalesced batch."""
    session = _session("inline", key=False)
    results = session.run(
        "Split <- select * from T choice of V;"
        "insert into T values (7, 7, 70);"
        "delete from T where K = 7;"
        "select possible K from Split;"
    )
    assert [r.kind for r in results] == ["assign", "insert", "delete", "select"]
    assert results[0].answer is None
    assert results[3].possible() == Relation(("K",), [(1,), (2,), (3,)])


def test_reference_guard_catches_a_coalesced_batch():
    """The statement-at-a-time reference is checked never to batch: the
    guard fires as soon as a DML run reaches ``run_dml_batch``."""
    session = _session("inline", key=False)
    with no_dml_batches(session):
        session.run("delete from T where K = 1;")
    with pytest.raises(AssertionError, match="coalesced DML batches of \\[2\\]"):
        with no_dml_batches(session):
            session.run("delete from T where K = 2; delete from T where K = 3;")
    assert session.world_set.the_world()["T"].rows == set()
