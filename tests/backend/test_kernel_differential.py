"""Kernel equivalence: the array, columnar and tuple engines everywhere.

`REPRO_KERNEL=array|columnar|tuple` (or `InlineBackend(kernel=...)`)
selects how the inline backend's flat-table plans execute; it must
never change what they compute. This suite replays every datagen
scenario and a randomized world-set-algebra differential on all
kernels (with the explicit backend as the reference semantics), covers
the translate strategy's kernel routes, and pins the dangling-world-id
decode edge (world ids with no rows encode empty worlds on any
kernel). Without numpy the array entries drop out cleanly — the
remaining 2-way differential still runs.
"""

import pytest

from repro.backend import InlineBackend
from repro.backend.testing import assert_backends_agree
from repro.core import evaluate, rel
from repro.datagen import random_query, random_world_set, scenarios
from repro.datagen.workloads import (
    ACQUISITION_SCRIPT,
    TPCH_SCRIPT,
    census,
    census_blocks,
    company,
    flights,
    lineitem,
)
from repro.inline.physical import PhysicalState
from repro.inline.representation import InlinedRepresentation
from repro.isql import ISQLSession
from repro.relational import Relation
from repro.relational.array_kernel import have_numpy
from repro.relational.guards import op_hook
from repro.service import connect

SMALL = {s.name: s for s in scenarios("small")}

#: Every registered kernel; "array" joins when numpy is importable.
KERNEL_NAMES = ("columnar", "tuple") + (("array",) if have_numpy() else ())

KERNELS = tuple(
    (f"inline[{name}]", lambda name=name: InlineBackend(kernel=name))
    for name in KERNEL_NAMES
)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_kernels_agree_with_explicit_on_every_scenario(name):
    assert_backends_agree(SMALL[name], ("explicit",) + KERNELS)


@pytest.mark.parametrize(
    "name", sorted(n for n, s in SMALL.items() if not s.uses_fallback)
)
def test_translate_strategy_agrees_on_every_kernel(name):
    """The Figure 6 RA DAG route also runs in-kernel (Literal world
    tables mix tuple relations into a kernel plan — the coercion
    boundary must hold there too)."""
    assert_backends_agree(
        SMALL[name],
        ("explicit",)
        + tuple(
            (
                f"inline-translate[{kernel}]",
                lambda kernel=kernel: InlineBackend(
                    strategy="translate", kernel=kernel
                ),
            )
            for kernel in KERNEL_NAMES
        ),
    )


@pytest.mark.parametrize("seed", range(60))
def test_random_wsa_agrees_across_kernels(seed, monkeypatch):
    """Randomized WSA differential, kernel selected via REPRO_KERNEL."""
    world_set = random_world_set(seed)
    query = random_query(seed + 3, depth=3)
    monkeypatch.setenv("REPRO_KERNEL", "tuple")
    tuple_result = evaluate(query, world_set, name="Q", backend="inline")
    monkeypatch.setenv("REPRO_KERNEL", "columnar")
    columnar_result = evaluate(query, world_set, name="Q", backend="inline")
    assert tuple_result == columnar_result
    if have_numpy():
        monkeypatch.setenv("REPRO_KERNEL", "array")
        assert tuple_result == evaluate(
            query, world_set, name="Q", backend="inline"
        )
    assert columnar_result == evaluate(
        query, world_set, name="Q", backend="explicit"
    )


@pytest.mark.parametrize("kernel", list(KERNEL_NAMES))
def test_dangling_world_ids_decode_to_empty_worlds(kernel):
    """World ids carried by no row are worlds with empty relations —
    the decode must keep them on any kernel."""
    representation = InlinedRepresentation(
        {"R": Relation(("A", "$w"), [(1, 0)])},
        Relation(("$w",), [(0,), (1,), (2,)]),
        ("$w",),
    )
    backend = InlineBackend(representation, kernel=kernel)
    world_set = backend.to_world_set()
    # World 0 holds {1}; worlds 1 and 2 are empty and collapse to one.
    assert backend.world_count() == 2
    instances = {world["R"] for world in world_set.worlds}
    assert instances == {
        Relation(("A",), [(1,)]),
        Relation(("A",), []),
    }


def test_unknown_kernel_rejected():
    from repro.errors import EvaluationError

    with pytest.raises(EvaluationError, match="unknown kernel"):
        InlineBackend(kernel="vectorized")


def test_env_kernel_validation(monkeypatch):
    from repro.errors import EvaluationError
    from repro.relational import active_kernel

    monkeypatch.setenv("REPRO_KERNEL", "Tuple ")
    assert active_kernel() == "tuple"
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    with pytest.raises(EvaluationError, match="unknown kernel"):
        active_kernel()


# -- the array kernel without numpy --------------------------------------------------


def test_array_kernel_without_numpy_raises_cleanly(monkeypatch):
    """`REPRO_KERNEL=array` in a numpy-less environment must fail with
    an actionable error at kernel *selection* time, not deep inside a
    plan — and must not break the other kernels."""
    from repro.errors import EvaluationError
    from repro.relational import array_kernel, columnar, kernel_ops

    monkeypatch.setattr(array_kernel, "np", None)
    # Evict the memoized ops so selection re-runs the loader, as it
    # would in a fresh numpy-less interpreter.
    monkeypatch.delitem(columnar._KERNEL_OPS, "array", raising=False)
    with pytest.raises(EvaluationError, match="numpy"):
        kernel_ops("array")
    with pytest.raises(EvaluationError, match="numpy"):
        InlineBackend(kernel="array")
    # The registry still lists array (it is installed, just unloadable),
    # and the other kernels stay selectable.
    InlineBackend(kernel="columnar")
    InlineBackend(kernel="tuple")


def test_kernel_registry_lists_all_kernels():
    from repro.relational import kernel_names

    names = kernel_names()
    assert "columnar" in names and "tuple" in names and "array" in names


# -- the array kernel keeps what-if plans in typed columns --------------------------

#: name → (set-up script, what-if select, kernel ops its plan crosses).
WHAT_IF = {
    "acquisition": (
        ACQUISITION_SCRIPT,
        "select certain CID, Skill from V, Emp_Skills "
        "where V.EID = Emp_Skills.EID and V.EID != 'e4' group worlds by CID;",
        {"join_on", "group_worlds"},
    ),
    "tpch": (
        TPCH_SCRIPT,
        "select possible Year from YearQuantity as Y "
        "where (select sum(Price) from Lineitem "
        "where Lineitem.Year = Y.Year) - Y.Revenue > 300;",
        {"join_on", "aggregate_by", "left_outer_join_padded", "select"},
    ),
    "census": (
        "",
        "select certain SSN, Name from Census where SSN != 5 repair by key SSN;",
        {"select", "project"},
    ),
}


def _what_if_session(name: str, backend) -> ISQLSession:
    if name == "acquisition":
        company_emp, emp_skills = company(3, 3, 6, 2, seed=1)
        relations = {"Company_Emp": company_emp, "Emp_Skills": emp_skills}
    elif name == "census":
        relations = {"Census": census(64, seed=1, duplicates=13)}
    else:
        relations = {
            "Lineitem": lineitem(
                years=(2001, 2002, 2003), n_products=4, n_quantities=3,
                rows_per_year=4, seed=1,
            )
        }
    session = ISQLSession(backend=backend)
    for relation_name, relation in relations.items():
        session.register(relation_name, relation)
    if WHAT_IF[name][0]:
        session.run(WHAT_IF[name][0])
    return session


@pytest.mark.skipif(not have_numpy(), reason="the array kernel needs numpy")
@pytest.mark.parametrize("name", sorted(WHAT_IF))
def test_array_what_if_plans_never_enter_the_row_path(name, monkeypatch):
    """The acquisition, TPC-H and census what-if selects run their
    joins, padded joins, selections and aggregates as array ops, and
    decode their answers by world fingerprints: the inherited row-path
    operators, the selection's row-closure fallback, the shared Python
    fold and the per-world decode are never entered. No column holding
    only ints and ⊥ — the repaired ids above all — is ever an object
    array."""
    from repro.relational import aggregates
    from repro.relational.array_kernel import ArrayRelation, _Column
    from repro.relational.columnar import ColumnarRelation
    from repro.relational.pad import PadConstant

    session = _what_if_session(name, InlineBackend(kernel="array"))
    entered = []
    for owner, attribute in (
        (ColumnarRelation, "join_on"),
        (ColumnarRelation, "aggregate_by"),
        (ColumnarRelation, "left_outer_join_padded"),
        (ColumnarRelation, "product"),
        (ArrayRelation, "_row_mask"),
        (aggregates, "aggregate_rows"),
        (PhysicalState, "answers_by_world"),
    ):
        original = getattr(owner, attribute)

        def counted(*args, original=original, attribute=attribute, **kwargs):
            entered.append(attribute)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, counted)
    columns = []
    from_values, from_acols = _Column.from_values, ArrayRelation._from_acols

    def typed(values):
        column = from_values(values)
        columns.append(column)
        return column

    def built(schema, acols, nrows):
        columns.extend(acols)
        return from_acols(schema, acols, nrows)

    monkeypatch.setattr(_Column, "from_values", typed)
    monkeypatch.setattr(ArrayRelation, "_from_acols", built)
    ops = set()
    with op_hook(lambda op, rows: ops.add(op)):
        result = session.run(WHAT_IF[name][1])[-1]
        answers = result.answers()
    assert result.route == "inline"
    assert entered == []
    assert WHAT_IF[name][2] <= ops
    object_ints = [
        c
        for c in columns
        if c.values.dtype == object
        and {int, PadConstant} >= set(map(type, c.tolist())) >= {int}
    ]
    assert object_ints == []
    if name == "census":
        # The repaired ids: int64 plus a pad mask.
        padded = [c for c in columns if c.pad is not None]
        assert padded and all(c.values.dtype.kind == "i" for c in padded)
    monkeypatch.undo()
    explicit = _what_if_session(name, "explicit")
    assert answers == explicit.run(WHAT_IF[name][1])[-1].answers()
    assert any(len(answer) for answer in answers)


# -- the columnar kernel filters by column passes ------------------------------------

#: name → (set-up script, statement): the point-read selects, the
#: read-write update's match and the decorrelated TPC-H comparison.
COLUMN_PASSES = {
    "point Dep = ?": (
        "",
        "select certain Arr from HFlights where Dep = 'D1' choice of Dep;",
    ),
    "point Arr != ?": (
        "",
        "select certain Arr from HFlights where Arr != 'A0' choice of Dep;",
    ),
    "write Dep = ? and Arr = ?": (
        "Itin <- select * from HFlights choice of Dep;",
        "update Itin set Arr = 'MARK' where Dep = 'D1' and Arr = 'A0';",
    ),
    "tpch PadDefault - Revenue > c": (TPCH_SCRIPT, WHAT_IF["tpch"][1]),
}


def _column_pass_session(script: str, backend) -> ISQLSession:
    session = ISQLSession(backend=backend)
    session.register("HFlights", flights(6, 4, 3, seed=1))
    session.register(
        "Lineitem",
        lineitem(
            years=(2001, 2002, 2003), n_products=4, n_quantities=3,
            rows_per_year=4, seed=1,
        ),
    )
    if script:
        session.run(script)
    return session


@pytest.mark.parametrize("name", sorted(COLUMN_PASSES))
def test_columnar_selections_bind_no_row_closure(name, monkeypatch):
    """On the columnar kernel these selections and matches run as
    column passes: no comparison or conjunction is bound to a per-row
    closure, and the answers are the explicit backend's."""
    from repro.relational.predicates import And, Comparison

    script, statement = COLUMN_PASSES[name]
    session = _column_pass_session(script, InlineBackend(kernel="columnar"))
    bound = []
    for owner in (Comparison, And):
        original = owner.bind

        def counted(self, schema, original=original):
            bound.append(self)
            return original(self, schema)

        monkeypatch.setattr(owner, "bind", counted)
    ops = set()
    with op_hook(lambda op, rows: ops.add(op)):
        result = session.run(statement)[-1]
    assert result.route == "inline"
    assert ops & {"select", "predicate_mask"}
    assert bound == []
    monkeypatch.undo()
    explicit = _column_pass_session(script, "explicit")
    expected = explicit.run(statement)[-1]
    if result.answer is None:
        assert session.world_set == explicit.world_set
    else:
        assert result.answers() == expected.answers()


def test_columnar_select_filters_column_only_inputs_by_column():
    """A column-only relation (what ``copy_attribute`` returns) is
    filtered column by column: its row list is never built, and an
    aliased column stays one object."""
    from repro.relational import as_columnar
    from repro.relational.predicates import Const, eq, neq

    base = flights(6, 4, 3, seed=1)
    for predicate in (eq("Dep", Const("D1")), neq("Arr", Const("A0"))):
        source = as_columnar(base).copy_attribute("Dep", "$Dep")
        selected = source.select(predicate)
        assert source._row_list is None and selected._row_list is None
        assert selected.columns[0] is selected.columns[2]
        assert 0 < len(selected) < len(source)
        assert selected.project(("Dep", "Arr")) == base.select(predicate)


#: A blocks-shaped DML batch: constant updates (the second meets kept
#: rows already holding its value), a delete and an insert.
BLOCKS_BATCH = (
    "update Clean set Name = 'REDACTED' where SSN >= 40; "
    "update Clean set POW = 'City0' where POW = 'City1'; "
    "delete from Clean where SSN < 5; "
    "insert into Clean values (-1, -7, 'AUDIT', 'City0', 'City0');"
)
BLOCKS_QUERY = "select certain SSN, Name from Clean;"


def _blocks_session(backend) -> ISQLSession:
    session = ISQLSession(backend=backend)
    session.register("Census", census_blocks(16))
    session.run("Clean <- select * from Census choice of Block;")
    return session


@pytest.mark.skipif(not have_numpy(), reason="the array kernel needs numpy")
def test_array_dml_batch_stays_in_codes(monkeypatch):
    """On the array kernel a constant update row-codes only the rows
    that can collide — the rewritten ones and the kept ones already
    holding the written value — and the batch commits a table whose
    non-int columns all keep their cached codes (an insert extends
    them by one repeated code)."""
    from repro.relational.array_kernel import ArrayRelation, as_array
    from repro.relational.relation import written_constant

    session = _blocks_session(InlineBackend(kernel="array"))
    assign, row_codes = ArrayRelation.masked_assign, ArrayRelation._row_codes
    coded, updates = [], []

    def counted_row_codes(self, positions):
        coded.append(self._nrows)
        return row_codes(self, positions)

    def counted_assign(self, mask, settings):
        position, value = written_constant(settings)
        column = self.arrays()[position].tolist()
        holding = sum(
            1 for hit, held in zip(mask.tolist(), column) if hit or held == value
        )
        del coded[:]
        result = assign(self, mask, settings)
        updates.append((len(self), holding, list(coded)))
        return result

    monkeypatch.setattr(ArrayRelation, "_row_codes", counted_row_codes)
    monkeypatch.setattr(ArrayRelation, "masked_assign", counted_assign)
    ops = set()
    with op_hook(lambda op, rows: ops.add(op)):
        session.run(BLOCKS_BATCH)
    monkeypatch.undo()
    assert {"masked_assign", "compress", "append"} <= ops
    assert len(updates) == 2
    for rows, holding, sizes in updates:
        assert sizes == [holding] and holding < rows
    table = as_array(session.backend.representation.tables["Clean"])
    columns = [c for c in table.arrays() if c.values.dtype.kind != "i"]
    assert columns and all(c._codes is not None for c in columns)

    explicit = _blocks_session("explicit")
    explicit.run(BLOCKS_BATCH)
    expected = explicit.run(BLOCKS_QUERY)[-1].answers()
    assert session.run(BLOCKS_QUERY)[-1].answers() == expected


@pytest.mark.parametrize("kernel", list(KERNEL_NAMES))
def test_cursor_decodes_a_world_splitting_answer_once(kernel):
    """The cursor's bind and the caller's ``result.answers()`` share one
    decode of the per-world answers: one ``world_answers`` kernel op."""
    session = _what_if_session("acquisition", InlineBackend(kernel=kernel))
    decodes = []

    def record(op, rows):
        if op == "world_answers":
            decodes.append(rows)

    cursor = connect(session).cursor()
    with op_hook(record):
        cursor.execute(WHAT_IF["acquisition"][1])
        answers = cursor.result.answers()
        assert cursor.result.answers() is answers
    assert len(answers) > 1
    assert len(decodes) == 1
