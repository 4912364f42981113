"""ColumnarRelation/ArrayRelation ≡ Relation on every operator.

A kernel is only allowed to change *how* operators run, never what
they return: for every relational algebra operator and any input,
evaluating columnar (and, with numpy, array) must equal evaluating
tuple-at-a-time. This suite drives randomized inputs through the
kernels and compares against the tuple engine — including the empty
relation, the nullary schema (the unit world table {⟨⟩}), PAD-carrying
rows, and mixed value types. Every test is parametrized over the
non-tuple kernels, so the same property holds 3-way.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError, SchemaError
from repro.relational import ColumnarRelation, Relation, as_columnar, as_tuple
from repro.relational.array_kernel import ArrayRelation, as_array, have_numpy
from repro.relational.columnar import _transpose
from repro.relational.guards import op_hook
from repro.relational.pad import PAD
from repro.relational.predicates import (
    FALSE,
    TRUE,
    And,
    Arith,
    Const,
    Not,
    Or,
    PadDefault,
    eq,
    ge,
    gt,
    le,
    lt,
    neq,
)
from repro.relational.schema import Schema

#: The kernels under differential test, against the tuple reference.
#: Direct parametrization (not fixtures) so @given tests compose with
#: it — hypothesis rejects function-scoped fixtures.
KERNEL_PARAMS = [pytest.param(as_columnar, ColumnarRelation, id="columnar")]
if have_numpy():
    KERNEL_PARAMS.append(pytest.param(as_array, ArrayRelation, id="array"))

for_each_kernel = pytest.mark.parametrize(
    "convert", [pytest.param(p.values[0], id=p.id) for p in KERNEL_PARAMS]
)
for_each_kernel_cls = pytest.mark.parametrize(
    "kernel_cls", [pytest.param(p.values[1], id=p.id) for p in KERNEL_PARAMS]
)
for_each_kernel_pair = pytest.mark.parametrize("convert,kernel_cls", KERNEL_PARAMS)


#: Numbers where int64 and float64 part ways: 2**53 + 1 has no float64,
#: and -0.0 == 0 with a sign a fold order can flip.
EDGE_NUMBERS = st.sampled_from([2**53 + 1, 2.0**53, 1.5, -0.0])

VALUES = st.one_of(
    st.integers(min_value=-2, max_value=3),
    st.sampled_from(["x", "y", "z"]),
    st.booleans(),
    st.none(),
    st.just(PAD),
    EDGE_NUMBERS,
)

#: Values sum/avg/min/max accept: int-only columns (the int64 array
#: path) and mixed numeric columns (the shared fold).
INTS = st.one_of(st.integers(min_value=-3, max_value=3), st.just(2**53 + 1))
NUMBERS = st.one_of(INTS, EDGE_NUMBERS, st.booleans())

#: Int-or-PAD and float-or-PAD values: a column drawn from one of them
#: is int64 or float64 plus a pad mask on the array kernel.
INT_OR_PAD = st.one_of(INTS, st.just(PAD))
FLOAT_OR_PAD = st.one_of(
    EDGE_NUMBERS.filter(lambda value: type(value) is float), st.just(PAD)
)

#: The value strategy each column of a generated relation draws from:
#: mixed values, or one of the typed-PAD kinds.
COLUMN_VALUES = (VALUES, VALUES, INT_OR_PAD, FLOAT_OR_PAD)


def relations(attributes: tuple[str, ...], max_rows: int = 7, values=None):
    """A strategy of tuple-engine relations over *attributes*.

    Every value comes from *values* when given; otherwise each column
    draws its own strategy from :data:`COLUMN_VALUES`.
    """
    if values is None:
        columns = st.tuples(*(st.sampled_from(COLUMN_VALUES) for _ in attributes))
        return columns.flatmap(lambda kinds: _relations(attributes, max_rows, kinds))
    return _relations(attributes, max_rows, (values,) * len(attributes))


def _relations(attributes, max_rows, kinds):
    return st.lists(st.tuples(*kinds), max_size=max_rows).map(
        lambda rows: Relation(attributes, rows)
    )


def assert_same(kernel_result, tuple_result, context: str = "") -> None:
    assert isinstance(kernel_result, ColumnarRelation), context
    assert (
        tuple(kernel_result.schema) == tuple(tuple_result.schema)
    ), f"{context}: schemas diverge"
    assert as_tuple(kernel_result) == tuple_result, f"{context}: rows diverge"
    # Distinct rows are an invariant of every kernel relation, not just
    # of its row set: a duplicate would skew every count-based check.
    assert len(kernel_result) == len(tuple_result), f"{context}: duplicate rows"
    # The cross-kernel comparison itself must agree, both directions.
    assert kernel_result == tuple_result, context
    assert hash(kernel_result) == hash(tuple_result), context


PREDICATES = [
    TRUE,
    FALSE,
    eq("A", Const(1)),
    neq("A", "B"),
    lt("A", Const("y")),
    And(neq("A", Const(None)), ge("B", Const(0))),
    Or(eq("A", "B"), eq("B", Const("x"))),
    Not(eq("A", Const(True))),
    # PAD orders before every value, so these hold on every other row.
    gt("A", Const(PAD)),
    le(Const(PAD), "B"),
    # Arithmetic and PAD defaults under a comparison (the decorrelated
    # scalar-subquery shape): may raise, on every kernel alike.
    gt(Arith("-", "A", "B"), Const(0)),
    le(Arith("*", "A", Const(2)), "B"),
    ge(Arith("/", "A", "B"), Const(1)),
    gt(Arith("-", PadDefault("A", 0), "B"), Const(-1)),
    lt(PadDefault("A", 0), "B"),
    neq(PadDefault("A", None), Const(1)),
    eq(Arith("+", PadDefault("A", None), Const(1)), "B"),
    And(ge("B", Const(1)), lt(Arith("/", Const(6), "B"), Const(4))),
    # The right operand runs only on the rows the left one leaves
    # undecided: 6/B never meets a zero B in the first, and in the
    # second only numbers reach it, so its one error is a zero divisor.
    Or(le("B", Const(0)), gt(Arith("/", Const(6), "B"), Const(1))),
    Not(And(ge("B", Const(0)), lt(Arith("/", Const(6), "B"), Const(4)))),
]

#: The selections that can raise only one error kind on any relation.
EXACT = {PREDICATES[-1]}


def _selected(relation, predicate):
    """``(rows, None)`` of a selection, or ``(None, message)`` when it
    raises an EvaluationError."""
    try:
        return relation.select(predicate), None
    except EvaluationError as error:
        return None, str(error)


def assert_same_selection(in_kernel, relation, predicate, exact=False) -> None:
    """The kernel selects the tuple engine's rows, through ``select``
    and through ``predicate_mask``, or raises its EvaluationError —
    with the same message when *exact* (one error kind possible)."""
    expected, message = _selected(relation, predicate)
    paths = (
        ("select", lambda: in_kernel.select(predicate)),
        (
            "predicate_mask",
            lambda: in_kernel.compress(in_kernel.predicate_mask(predicate)),
        ),
    )
    for name, path in paths:
        context = f"{name} {predicate!r}"
        if message is None:
            assert_same(path(), expected, context)
            continue
        with pytest.raises(EvaluationError) as raised:
            path()
        if exact:
            assert str(raised.value) == message, context
        else:
            # Which row raises first depends on the row order, which
            # the kernels do not share.
            assert {message, str(raised.value)} <= ARITH_MESSAGES, context


#: The arithmetic errors a random relation can raise.
ARITH_MESSAGES = {
    "arithmetic over an undefined (empty) aggregate",
    "arithmetic '-' over incompatible values",
    "arithmetic '*' over incompatible values",
    "arithmetic '/' over incompatible values",
    "arithmetic '+' over incompatible values",
    "arithmetic '/' divides by zero",
}


@for_each_kernel
@settings(max_examples=60, deadline=None)
@given(relation=relations(("A", "B")), index=st.integers(0, len(PREDICATES) - 1))
def test_select_matches(convert, relation, index):
    predicate = PREDICATES[index]
    in_kernel = convert(relation)
    for view in (in_kernel, column_only(in_kernel)):
        assert_same_selection(view, relation, predicate, exact=predicate in EXACT)


def column_only(relation):
    """*relation* rebuilt from its columns alone (the kernel relation
    ``copy_attribute`` returns): no row list, no typed arrays."""
    columns = _transpose(relation.row_list(), len(relation.schema))
    return type(relation)._from_columns(relation.schema, columns, len(relation))


@settings(max_examples=60, deadline=None)
@given(relation=relations(("A", "B")), index=st.integers(0, len(PREDICATES) - 1))
def test_select_fires_the_same_checkpoints_on_every_kernel(relation, index):
    """One ``select`` checkpoint with the input's row count, on every
    kernel and view, whether the selection returns or raises."""
    predicate = PREDICATES[index]
    inputs = [relation] + [
        view
        for convert in (p.values[0] for p in KERNEL_PARAMS)
        for view in (convert(relation), column_only(convert(relation)))
    ]
    for source in inputs:
        fired = []
        with op_hook(lambda op, rows: fired.append((op, rows))):
            _selected(source, predicate)
        assert fired == [("select", len(relation))], (type(source), predicate)


@for_each_kernel
@settings(max_examples=60, deadline=None)
@given(relation=relations(("A", "B", "C")), value=VALUES)
def test_select_values_and_distinct_values_match(convert, relation, value):
    in_kernel = convert(relation)
    assert_same(
        in_kernel.select_values({"B": value}), relation.select_values({"B": value})
    )
    assert in_kernel.distinct_values(("C", "A")) == relation.distinct_values(
        ("C", "A")
    )
    assert in_kernel.active_domain() == relation.active_domain()
    assert in_kernel.sorted_rows() == relation.sorted_rows()
    assert in_kernel.named_rows() == relation.named_rows()


@for_each_kernel
@settings(max_examples=60, deadline=None)
@given(
    relation=relations(("A", "B", "C")),
    keep=st.lists(st.sampled_from(["A", "B", "C"]), unique=True),
)
def test_project_rename_copy_match(convert, relation, keep):
    in_kernel = convert(relation)
    assert_same(in_kernel.project(keep), relation.project(keep), f"π{keep}")
    mapping = {"A": "Z"}
    assert_same(in_kernel.rename(mapping), relation.rename(mapping))
    assert_same(
        in_kernel.copy_attribute("B", "B2"), relation.copy_attribute("B", "B2")
    )
    # The alias-projection fast path: copy then drop the source.
    assert_same(
        in_kernel.copy_attribute("B", "B2").project(("A", "B2", "C")),
        relation.copy_attribute("B", "B2").project(("A", "B2", "C")),
        "alias projection",
    )
    assert_same(
        in_kernel.extend("D", lambda row: (row["A"], 1)),
        relation.extend("D", lambda row: (row["A"], 1)),
    )


@for_each_kernel
@settings(max_examples=80, deadline=None)
@given(left=relations(("A", "B")), right=relations(("B", "A")))
def test_set_operators_match(convert, left, right):
    kernel_left = convert(left)
    for op in ("union", "difference", "intersection", "semijoin", "antijoin"):
        assert_same(
            getattr(kernel_left, op)(convert(right)),
            getattr(left, op)(right),
            op,
        )
        # Mixed operands: kernel-left with a tuple right operand.
        assert_same(
            getattr(kernel_left, op)(right), getattr(left, op)(right), op
        )


@for_each_kernel
@settings(max_examples=80, deadline=None)
@given(left=relations(("A", "B")), right=relations(("B", "C")))
def test_join_operators_match(convert, left, right):
    kernel_left = convert(left)
    kernel_right = convert(right)
    assert_same(
        kernel_left.natural_join(kernel_right),
        left.natural_join(right),
        "⋈",
    )
    assert_same(
        kernel_left.semijoin(kernel_right), left.semijoin(right), "⋉"
    )
    assert_same(
        kernel_left.antijoin(kernel_right), left.antijoin(right), "▷"
    )
    assert_same(
        kernel_left.left_outer_join_padded(kernel_right),
        left.left_outer_join_padded(right),
        "=⊳⊲",
    )
    assert_same(
        kernel_left.join_on(kernel_right, [("B", "B"), ("A", "C")]),
        left.join_on(right, [("B", "B"), ("A", "C")]),
        "join_on",
    )


@for_each_kernel
def test_join_on_with_right_only_columns_and_duplicate_keys(convert):
    left = Relation(("A", "B"), [(1, "x"), (2, "y"), (2, "z"), (3, None)])
    right = Relation(
        ("B", "C", "D"),
        [("x", 1, 10), ("x", 1, 11), ("y", 2, 12), ("z", 2, 13), ("z", 9, 14)],
    )
    pairs = [("B", "B"), ("A", "C")]  # a shared key and a cross-named one
    expected = left.join_on(right, pairs)
    assert len(expected) == 4
    assert_same(convert(left).join_on(convert(right), pairs), expected, "join_on")
    # Operands of another kernel are accepted on the right.
    assert_same(convert(left).join_on(right, pairs), expected, "join_on/tuple")


@for_each_kernel
@settings(max_examples=60, deadline=None)
@given(left=relations(("A", "B")), right=relations(("C", "D")))
def test_product_theta_equi_match(convert, left, right):
    kernel_left = convert(left)
    kernel_right = convert(right)
    assert_same(kernel_left.product(kernel_right), left.product(right), "×")
    predicate = And(eq("A", "C"), neq("B", "D"))
    assert_same(
        kernel_left.theta_join(kernel_right, predicate),
        left.theta_join(right, predicate),
        "θ",
    )
    assert_same(
        kernel_left.equi_join(kernel_right, [("B", "D")]),
        left.equi_join(right, [("B", "D")]),
        "equi",
    )


@for_each_kernel
@settings(max_examples=60, deadline=None)
@given(dividend=relations(("A", "B"), max_rows=9), divisor=relations(("B",)))
def test_divide_matches(convert, dividend, divisor):
    assert_same(
        convert(dividend).divide(convert(divisor)),
        dividend.divide(divisor),
        "÷",
    )


def _aggregate_matches(convert, relation, specs) -> None:
    for keys in (("A",), ("B", "A"), ()):
        # Global (empty-key) aggregation included — with SQL's one empty
        # group over the empty relation.
        assert_same(
            convert(relation).aggregate_by(keys, specs),
            relation.aggregate_by(keys, specs),
            f"aggregate_by{keys}",
        )


@for_each_kernel
@settings(max_examples=40, deadline=None)
@given(relation=relations(("A", "B", "C"), max_rows=9))
def test_aggregate_by_matches(convert, relation):
    """aggregate_by: grouped count(*)/count(C)/single(C), 3-way vs the
    tuple engine, over every value kind."""
    from repro.relational.aggregates import AggSpec

    specs = (
        AggSpec("N", "count", None),
        AggSpec("K", "count", "C"),
        AggSpec("S", "single", "C"),
    )
    _aggregate_matches(convert, relation, specs)


@for_each_kernel
@settings(max_examples=60, deadline=None)
@given(
    relation=st.one_of(
        st.tuples(relations(("A",), 9), relations(("B", "C"), 9, INTS)),
        st.tuples(relations(("A",), 9), relations(("B", "C"), 9, NUMBERS)),
    ).map(lambda pair: pair[0].product(pair[1]))
)
def test_numeric_aggregates_match(convert, relation):
    """sum/avg/min/max over int-only and mixed numeric columns."""
    from repro.relational.aggregates import AggSpec

    specs = tuple(
        AggSpec(function.upper(), function, "C")
        for function in ("sum", "avg", "min", "max")
    ) + (AggSpec("N", "count", None),)
    _aggregate_matches(convert, relation, specs)


@for_each_kernel
def test_int_sum_beyond_int64_matches_the_tuple_engine(convert):
    from repro.relational.aggregates import AggSpec

    relation = Relation(("A", "B", "C"), [(0, b, 2**62) for b in range(3)])
    specs = (AggSpec("S", "sum", "C"), AggSpec("V", "avg", "C"))
    expected = relation.aggregate_by(("A",), specs)
    assert expected == Relation(("A", "S", "V"), [(0, 3 * 2**62, 2.0**62)])
    assert_same(convert(relation).aggregate_by(("A",), specs), expected, "sum")


@for_each_kernel
def test_grouping_over_wide_key_domains(convert):
    """Keys whose combined code domain dwarfs the row count take the
    sort-based grouping path instead of the dense scatter."""
    from repro.relational.aggregates import AggSpec

    rng = random.Random(7)
    relation = Relation(
        ("A", "G", "P", "W"),
        [
            (f"a{rng.randrange(300)}", rng.randrange(3), rng.randrange(300), rng.randrange(40))
            for _ in range(600)
        ],
    )
    specs = (
        AggSpec("N", "count", None),
        AggSpec("K", "count", "P"),
        AggSpec("S", "sum", "P"),
        AggSpec("V", "avg", "P"),
        AggSpec("L", "min", "P"),
        AggSpec("H", "max", "P"),
        AggSpec("O", "single", "G"),
    )
    for keys in (("A", "P"), ("W", "A")):
        assert_same(
            convert(relation).aggregate_by(keys, specs),
            relation.aggregate_by(keys, specs),
            f"aggregate_by{keys}",
        )
    for certain in (False, True):
        for ids, group in ((("W", "A"), ("G",)), (("W",), ("G", "A"))):
            assert_same(
                convert(relation).group_worlds(ids, group, ("P",), certain),
                relation.group_worlds(ids, group, ("P",), certain),
                f"group_worlds{ids}{group}",
            )


@for_each_kernel
@settings(max_examples=80, deadline=None)
@given(
    relation=relations(("A", "G", "P", "W"), max_rows=12),
    certain=st.booleans(),
)
def test_group_worlds_matches(convert, relation, certain):
    """group_worlds 3-way vs the tuple engine, W the world id."""
    for ids, group, proj in (
        (("W",), ("G",), ("P",)),
        (("W",), ("G", "A"), ("P", "A")),
        (("A", "W"), (), ("P",)),
    ):
        assert_same(
            convert(relation).group_worlds(ids, group, proj, certain),
            relation.group_worlds(ids, group, proj, certain),
            f"group_worlds{ids}{group}{proj}",
        )


def _decoded_answers(relation, ids, world):
    """The reference decode: one relation per world id, deduplicated."""
    from repro.inline.factors import FactoredWorld
    from repro.inline.physical import PhysicalState

    state = PhysicalState(relation, ids, FactoredWorld((world,)))
    return frozenset(state.answers_by_world().values())


def assert_world_answers_match(convert, relation, ids, world) -> None:
    """world_answers on every kernel, with the world table in the
    answer's kernel or as tuples, equals the reference decode."""
    expected = _decoded_answers(relation, ids, world)
    values = tuple(a for a in relation.schema if a not in ids)
    in_kernel = convert(relation)
    for engine, table in (
        (relation, world),
        (in_kernel, world),
        (in_kernel, convert(world)),
    ):
        answers = engine.world_answers(ids, values, table)
        assert answers == expected, (type(engine).__name__, ids)
        assert all(isinstance(answer, Relation) for answer in answers)


@for_each_kernel
@settings(max_examples=80, deadline=None)
@given(
    rows=st.tuples(
        st.sampled_from(COLUMN_VALUES), st.sampled_from(COLUMN_VALUES)
    ).flatmap(
        lambda kinds: st.lists(st.tuples(*kinds, st.integers(0, 4)), max_size=12)
    ),
    extra=st.lists(st.integers(0, 6), max_size=3),
)
def test_world_answers_match_the_per_world_decode(convert, rows, extra):
    """world_answers vs the per-world decode, W (and A, B) the world
    ids; *extra* ids hold no row — empty worlds."""
    relation = Relation(("A", "B", "W"), rows)
    for ids in (("W",), ("A", "W"), ("A", "B", "W")):
        present = set(as_columnar(relation).tuples(ids))
        padding = ("x",) * (len(ids) - 1)
        world = Relation(ids, present | {padding + (w,) for w in extra})
        assert_world_answers_match(convert, relation, ids, world)


@for_each_kernel
def test_world_answers_edges(convert):
    """Distinct NaN objects stay distinct answers, 1/1.0/True are one,
    PAD is a value, and zero value attributes still split on presence."""
    nan, other_nan = float("nan"), float("nan")
    relation = Relation(
        ("A", "W"),
        [
            (nan, 0), (other_nan, 1), (nan, 2), (nan, 3), (other_nan, 3),
            (1, 4), (1.0, 5), (True, 6), (PAD, 7), (PAD, 8), (-0.0, 9), (0, 10),
        ],
    )
    world = Relation(("W",), [(w,) for w in range(12)])
    assert_world_answers_match(convert, relation, ("W",), world)
    assert len(_decoded_answers(relation, ("W",), world)) == 7
    presence = Relation(("W",), [(0,), (2,)])
    assert_world_answers_match(convert, presence, ("W",), world)
    assert_world_answers_match(convert, presence, ("W",), presence)
    # No rows: one empty answer per non-empty world table, else none.
    empty = Relation(("A", "W"), [])
    assert_world_answers_match(convert, empty, ("W",), world)
    assert_world_answers_match(convert, empty, ("W",), Relation(("W",), []))
    # No ids: the whole table is the one world's answer.
    unit = Relation((), [()])
    assert convert(relation).world_answers((), ("A", "W"), unit) == frozenset(
        (relation,)
    )


# -- deterministic edge cases -------------------------------------------------------


@for_each_kernel_pair
def test_nullary_schema_unit_and_empty(convert, kernel_cls):
    unit = kernel_cls.unit()
    assert as_tuple(unit) == Relation.unit()
    assert len(unit) == 1 and list(unit) == [()]
    empty_nullary = kernel_cls((), [])
    assert as_tuple(empty_nullary) == Relation((), [])
    # {⟨⟩} × R and ∅₀ × R.
    r = Relation(("A",), [(1,), (2,)])
    assert as_tuple(unit.product(convert(r))) == Relation.unit().product(r)
    assert as_tuple(empty_nullary.product(convert(r))) == Relation((), []).product(r)
    # Projection of a populated relation onto zero attributes is {⟨⟩}.
    assert as_tuple(convert(r).project(())) == r.project(())
    assert as_tuple(convert(Relation(("A",), [])).project(())) == Relation(
        ("A",), []
    ).project(())
    # Dividing by the nullary unit keeps every row.
    assert as_tuple(convert(r).divide(unit)) == r.divide(Relation.unit())


@for_each_kernel
def test_empty_relation_operators(convert):
    empty = convert(Relation.empty(("A", "B")))
    other = convert(Relation(("B", "C"), [(1, 2)]))
    assert len(empty.select(TRUE)) == 0
    assert len(empty.natural_join(other)) == 0
    assert len(other.natural_join(empty)) == 0
    assert as_tuple(empty.union(empty)) == Relation.empty(("A", "B"))
    assert empty.rows == frozenset()
    assert not empty


@for_each_kernel_cls
def test_duplicate_rows_are_deduplicated_like_the_tuple_engine(kernel_cls):
    rows = [(1, "x"), (1, "x"), (2, "y")]
    assert as_tuple(kernel_cls(("A", "B"), rows)) == Relation(("A", "B"), rows)


@for_each_kernel
def test_union_incompatible_schemas_raise_like_the_tuple_engine(convert):
    left = convert(Relation(("A",), [(1,)]))
    right = convert(Relation(("B",), [(1,)]))
    with pytest.raises(SchemaError):
        left.union(right)
    with pytest.raises(SchemaError):
        left.product(convert(Relation(("A",), [(2,)])))


@for_each_kernel_cls
def test_schema_instance_accepted(kernel_cls):
    relation = kernel_cls(Schema(("A",)), [(1,)])
    assert as_tuple(relation) == Relation(Schema(("A",)), [(1,)])


@for_each_kernel_pair
def test_kernel_results_stay_in_kernel(convert, kernel_cls):
    """Operators must not silently fall out of the requested kernel."""
    left = convert(Relation(("A", "B"), [(1, "x"), (2, "y")]))
    right = convert(Relation(("B", "C"), [("x", 3)]))
    for result in (
        left.select(TRUE),
        left.project(("A",)),
        left.rename({"A": "Z"}),
        left.natural_join(right),
        left.union(left),
        left.difference(left),
        left.copy_attribute("A", "A2"),
    ):
        assert isinstance(result, kernel_cls), type(result)


# -- the DML kernel ops: mask / scatter_update ---------------------------------------


@for_each_kernel
@settings(max_examples=60, deadline=None)
@given(relation=relations(("A", "B")), matched=relations(("B", "C")))
def test_mask_matches_on_explicit_attributes(convert, relation, matched):
    assert_same(
        convert(relation).mask(matched, ("B",)),
        relation.mask(matched, ("B",)),
        "mask[B]",
    )


@for_each_kernel
@settings(max_examples=60, deadline=None)
@given(relation=relations(("A", "B")), matched=relations(("A", "B", "C")))
def test_mask_defaults_to_full_row_identity(convert, relation, matched):
    assert_same(
        convert(relation).mask(convert(matched)),
        relation.mask(matched),
        "mask[*]",
    )


SETTERS = [
    ("A", lambda match: match[2]),
    ("B", lambda match: (match[0], match[1])),
]


@for_each_kernel
@settings(max_examples=60, deadline=None)
@given(
    relation=relations(("A", "B")),
    matches=relations(("A", "B", "C")),
    count=st.integers(0, len(SETTERS)),
)
def test_scatter_update_matches(convert, relation, matches, count):
    setters = SETTERS[:count]
    assert_same(
        convert(relation).scatter_update(matches, setters),
        relation.scatter_update(matches, setters),
        f"scatter_update[{count} setters]",
    )


#: Setters over a ``(B, C)`` match keyed on ``B``: one rewrites a
#: column outside the key, one the key itself.
KEYED_SETTERS = [
    ("A", lambda match: match[1]),
    ("B", lambda match: (match[0], match[1])),
]


@for_each_kernel
@settings(max_examples=60, deadline=None)
@given(
    relation=relations(("A", "B")),
    matches=relations(("B", "C")),
    count=st.integers(0, len(KEYED_SETTERS)),
)
def test_scatter_update_matches_on_explicit_attributes(
    convert, relation, matches, count
):
    setters = KEYED_SETTERS[:count]
    assert_same(
        convert(relation).scatter_update(matches, setters, ("B",)),
        relation.scatter_update(matches, setters, ("B",)),
        f"scatter_update[B, {count} setters]",
    )


def _keyed_scatter_reference(relation, matches, setters, key):
    """Keyed scatter, spelled out row by row."""
    def key_of(row, schema):
        return tuple(row[schema.index(a)] for a in key)

    rows = set()
    for row in relation.rows:
        target = key_of(row, relation.schema)
        hits = [m for m in matches.rows if key_of(m, matches.schema) == target]
        if not hits:
            rows.add(row)
        for match in hits:
            new = list(row)
            for attribute, function in setters:
                new[relation.schema.index(attribute)] = function(match)
            rows.add(tuple(new))
    return Relation(relation.schema.attributes, rows)


@settings(max_examples=80, deadline=None)
@given(
    relation=relations(("A", "B", "C")),
    matches=relations(("A", "B", "D")),
    key=st.sampled_from([("A",), ("A", "B"), ("B",), ("B", "A")]),
    setter=st.sampled_from(["A", "B", "C"]),
)
def test_keyed_scatter_matches_a_row_by_row_reference(
    relation, matches, key, setter
):
    """Every key layout — leading in order (the rewritten-key path),
    out of order or not leading (the gather path) — and setters inside
    and outside the key rewrite exactly the rows the reference does."""
    setters = [(setter, lambda match: ("new", match[2]))]
    assert relation.scatter_update(matches, setters, key) == (
        _keyed_scatter_reference(relation, matches, setters, key)
    )


@for_each_kernel
def test_keyed_scatter_rewrites_only_present_rows(convert):
    relation = Relation(("A", "B"), [(1, "x"), (2, "y")])
    # Two matches on key x rewrite that row twice; the match on the
    # absent key w contributes nothing; A, outside the key, is kept.
    matches = Relation(("B", "C"), [("x", 10), ("x", 20), ("w", 30)])
    setters = [("B", lambda match: match[1])]
    expected = Relation(("A", "B"), [(1, 10), (1, 20), (2, "y")])
    assert relation.scatter_update(matches, setters, ("B",)) == expected
    assert as_tuple(
        convert(relation).scatter_update(matches, setters, ("B",))
    ) == expected
    absent = Relation(("A", "B"), [(3, "w")])
    assert relation.scatter_update(absent, setters) == relation
    assert as_tuple(convert(relation).scatter_update(absent, setters)) == relation


@for_each_kernel
def test_mask_scatter_edges(convert):
    relation = Relation(("A", "B"), [(1, "x"), (2, "y")])
    empty_match = Relation(("A", "B"), [])
    # Masking with an empty match set keeps every row (and both kernels
    # may return the operand itself).
    assert relation.mask(empty_match) == relation
    assert as_tuple(convert(relation).mask(empty_match)) == relation
    # A rewrite colliding with a kept row deduplicates (set semantics).
    matches = Relation(("A", "B"), [(2, "y")])
    collided = relation.scatter_update(matches, [("A", lambda m: 1), ("B", lambda m: "x")])
    assert collided == Relation(("A", "B"), [(1, "x")])
    assert as_tuple(
        convert(relation).scatter_update(matches, [("A", lambda m: 1), ("B", lambda m: "x")])
    ) == collided
    # Unknown-attribute errors raise alike on every kernel.
    for engine in (relation, convert(relation)):
        with pytest.raises(SchemaError):
            engine.mask(empty_match, ("Nope",))
        with pytest.raises(SchemaError):
            engine.scatter_update(matches, [("Nope", lambda m: 0)])
        with pytest.raises(SchemaError):
            engine.scatter_update(matches, [], ("Nope",))


@for_each_kernel
def test_mask_accepts_cross_kernel_operands(convert):
    relation = Relation(("A", "B"), [(1, "x"), (2, "y"), (3, "z")])
    matched = Relation(("B",), [("y",)])
    expected = Relation(("A", "B"), [(1, "x"), (3, "z")])
    assert relation.mask(convert(matched), ("B",)) == expected
    assert as_tuple(convert(relation).mask(matched, ("B",))) == expected


# -- the DML batch ops: predicate_mask / compress / masked_assign / … ---------------

BATCH_PREDICATES = PREDICATES + [
    lt("A", Const(2)),  # str/None/PAD vs int: the per-row TypeError net
    ge(Const("x"), "B"),  # constant on the left
    Or(lt("A", "B"), neq("B", Const(3))),
]

ASSIGNMENTS = [
    ((0, "const", 1),),
    ((0, "const", PAD), (1, "const", None)),
    ((1, "const", "x"), (0, "col", 1)),  # every source reads the pre-update row
    ((0, "col", 1), (1, "col", 0)),  # a swap
    ((0, "const", 9), (0, "col", 1)),  # a later setting overrides
]


@for_each_kernel
@settings(max_examples=80, deadline=None)
@given(
    relation=relations(("A", "B")),
    index=st.integers(0, len(BATCH_PREDICATES) - 1),
)
def test_predicate_mask_compress_matches_select(convert, relation, index):
    predicate = BATCH_PREDICATES[index]
    expected, message = _selected(relation, predicate)
    if message is None:
        assert relation.compress(relation.predicate_mask(predicate)) == expected
    assert_same_selection(convert(relation), relation, predicate)


@for_each_kernel
@settings(max_examples=80, deadline=None)
@given(
    relation=relations(("A", "B")),
    index=st.integers(0, len(BATCH_PREDICATES) - 1),
    assignment=st.integers(0, len(ASSIGNMENTS) - 1),
)
def test_masked_assign_matches_rebuilding(convert, relation, index, assignment):
    from repro.relational.relation import row_rewriter

    predicate, settings_ = BATCH_PREDICATES[index], ASSIGNMENTS[assignment]
    in_kernel = convert(relation)
    if _selected(relation, predicate)[1] is not None:
        with pytest.raises(EvaluationError):
            in_kernel.predicate_mask(predicate)
        return
    check, rewrite = predicate.bind(relation.schema), row_rewriter(settings_)
    # Rewritten rows colliding with kept or other rewritten rows collapse.
    expected = Relation(
        relation.schema,
        [rewrite(row) if check(row) else row for row in relation.rows],
    )
    mask = relation.predicate_mask(predicate)
    assert relation.masked_assign(mask, settings_) == expected
    assert_same(
        in_kernel.masked_assign(in_kernel.predicate_mask(predicate), settings_),
        expected,
        f"{predicate!r} {settings_}",
    )


#: name → (rows of (A, B), the masked_assign settings, the A values
#: the mask selects) — each rewrite lands on some other row.
COLLISIONS = {
    "const meets a kept row": ([(1, "x"), (2, "x"), (3, "y")], ((0, "const", 1),), {2}),
    "const meets a rewritten row": (
        [(1, "x"), (2, "x"), (3, "y")], ((0, "const", 9),), {1, 2}
    ),
    "column copy": ([(1, 2), (2, 2), (3, 4)], ((0, "col", 1),), {1}),
    "object-dtype const column": (
        [(1, "x"), ("s", "x"), (None, "y"), (2.5, "x")], ((0, "const", 1.0),), {2.5}
    ),
    "bool meets an int": ([(1, "x"), (0, "x"), (2, "x")], ((0, "const", True),), {2}),
    "const then column copy": (
        [(2, 2), (3, 2), (5, 6)], ((0, "const", 9), (0, "col", 1)), {3}
    ),
}


@pytest.mark.parametrize(
    "convert", [pytest.param(as_tuple, id="tuple")] + [
        pytest.param(p.values[0], id=p.id) for p in KERNEL_PARAMS
    ]
)
@pytest.mark.parametrize("case", sorted(COLLISIONS))
def test_masked_assign_collapses_every_collision(convert, case):
    """A rewritten row meeting a kept or another rewritten row collapses
    into one, whichever rows the kernel chooses to dedup."""
    from repro.relational.relation import row_rewriter

    rows, settings_, selected = COLLISIONS[case]
    relation = Relation(("A", "B"), rows)
    rewrite = row_rewriter(settings_)
    expected = Relation(
        relation.schema,
        [rewrite(row) if row[0] in selected else row for row in rows],
    )
    assert len(expected) < len(relation)
    predicate = FALSE
    for value in selected:
        predicate = Or(predicate, eq("A", Const(value)))
    in_kernel = convert(relation)
    result = in_kernel.masked_assign(in_kernel.predicate_mask(predicate), settings_)
    assert len(result) == len(expected)
    assert as_tuple(result) == expected


@for_each_kernel
@settings(max_examples=60, deadline=None)
@given(relation=relations(("A", "I")), value=VALUES, ids=st.lists(VALUES, max_size=5))
def test_claimed_ids_and_append_broadcast_match(convert, relation, value, ids):
    claimed = {(i,) for a, i in relation.rows if (a,) == (value,)}
    in_kernel = convert(relation)
    assert relation.claimed_ids(("A",), (value,), ("I",)) == claimed
    assert in_kernel.claimed_ids(("A",), (value,), ("I",)) == claimed
    fresh = [(i,) for i in dict.fromkeys(ids) if (i,) not in claimed]
    expected = Relation(
        relation.schema, list(relation.rows) + [(value, i) for (i,) in fresh]
    )
    assert relation.append_broadcast((value, None), (1,), fresh) == expected
    assert_same(
        in_kernel.append_broadcast((value, None), (1,), fresh), expected, "broadcast"
    )


@for_each_kernel
@settings(max_examples=60, deadline=None)
@given(relation=relations(("A", "B", "C")))
def test_distinct_probes_match(convert, relation):
    in_kernel = convert(relation)
    for attributes in ((), ("A",), ("C", "A")):
        expected = set(as_columnar(relation).tuples(attributes))
        for engine in (relation, in_kernel):
            assert engine.distinct_count(attributes) == len(expected)
            distinct = engine.distinct_tuples(attributes)
            assert len(distinct) == len(expected) and set(distinct) == expected


BEYOND_2_53 = [
    (Relation(("A",), [(2**53 + 1,), (5,)]), eq("A", Const(2.0**53))),
    (Relation(("A",), [(2.0**53,), (5.0,)]), eq("A", Const(2**53 + 1))),
    (Relation(("A", "B"), [(2**53 + 1, 2.0**53), (5, 5.0)]), eq("A", "B")),
    (Relation(("A", "B"), [(2.0**53, 2**53 + 1), (5.0, 5)]), lt("A", "B")),
    (Relation(("A",), [(-(2**53) - 1,), (5,)]), ge("A", Const(-(2.0**53)))),
]


@for_each_kernel
@pytest.mark.parametrize("case", range(len(BEYOND_2_53)))
def test_int_meets_float_beyond_2_53_compares_exactly(convert, case):
    """int64 against float64 is exact in Python, lossy in a numpy cast:
    2**53 + 1 != 2.0**53, on selection and on the DML mask alike."""
    relation, predicate = BEYOND_2_53[case]
    expected = relation.select(predicate)
    in_kernel = convert(relation)
    assert_same(in_kernel.select(predicate), expected, repr(predicate))
    assert_same(
        in_kernel.compress(in_kernel.predicate_mask(predicate)),
        expected,
        repr(predicate),
    )


#: name → (relation, predicate) where numpy and Python arithmetic part
#: ways: int64 overflow near ±2**63, int division beyond 2**53 (numpy
#: rounds both operands first), zero divisors and a None PAD default.
ARITH_EDGES = {
    "+ overflows": (
        Relation(("A", "B"), [(2**63 - 1, 1), (-(2**63), -1), (2, 3)]),
        gt(Arith("+", "A", "B"), Const(0)),
    ),
    "- overflows": (
        Relation(("A", "B"), [(-(2**62), 2**62 + 1), (1, 2)]),
        lt(Arith("-", "A", "B"), Const(0)),
    ),
    "* overflows": (
        Relation(("A", "B"), [(2**32, 2**31), (3, -2)]),
        gt(Arith("*", "A", "B"), Const(0)),
    ),
    "/ beyond 2**53": (
        Relation(("A", "B"), [(2**53 + 1, 3), (6, 3)]),
        eq(Arith("/", "A", "B"), Const(3002399751580331.0)),
    ),
    "2**53+1 meets a float": (
        Relation(("A", "B"), [(2**53 + 1, 0.5), (2**53 + 3, 1.5), (4, 0.25)]),
        ge(Arith("+", "A", "B"), Const(2.0**53)),
    ),
    "int zero divisor": (
        Relation(("A", "B"), [(1, 0), (4, 2)]),
        gt(Arith("/", "A", "B"), Const(1)),
    ),
    "float zero divisor": (
        Relation(("A", "B"), [(1.5, -0.0), (4.0, 2.0)]),
        gt(Arith("/", "A", "B"), Const(1)),
    ),
    "None default over PAD": (
        Relation(("A", "B"), [(PAD, 1), (3, 2), (5, 7)]),
        gt(Arith("-", PadDefault("A", None), "B"), Const(0)),
    ),
    "None default compared": (
        Relation(("A", "B"), [(PAD, 1), (3, 2), (5, 7)]),
        neq(PadDefault("A", None), "B"),
    ),
    "zero default over PAD": (
        Relation(("A", "B"), [(PAD, 1), (3, 2), (5, 7)]),
        gt(Arith("-", PadDefault("A", 0), "B"), Const(-2)),
    ),
    "float default over PAD": (
        Relation(("A", "B"), [(PAD, 1.5), (3.0, 2.5), (-0.0, 0.5)]),
        le(Arith("*", PadDefault("A", 0.5), "B"), Const(0.75)),
    ),
}


@for_each_kernel
@pytest.mark.parametrize("case", sorted(ARITH_EDGES))
def test_arithmetic_predicates_match_the_tuple_engine(convert, case):
    """Each edge either selects the tuple engine's rows or raises its
    EvaluationError, with the same message (one error kind per case)."""
    relation, predicate = ARITH_EDGES[case]
    assert_same_selection(convert(relation), relation, predicate, exact=True)


#: Operands that raise different errors on different rows: only
#: evaluation row by row, in the bound closure's order, raises its error.
ORDERED_ERRORS = [
    lt(Arith("/", Const(6), "A"), Arith("-", "B", Const(1))),
    gt(Arith("+", Arith("/", Const(6), "A"), "B"), Const(0)),
    Not(eq(Arith("-", PadDefault("B", None), Const(1)), Arith("/", Const(6), "A"))),
    And(
        gt(Arith("/", Const(6), "A"), Const(0)),
        lt(Arith("-", "B", Const(1)), Const(9)),
    ),
]


@for_each_kernel_cls
@pytest.mark.parametrize("index", range(len(ORDERED_ERRORS)))
def test_first_error_is_the_row_closures(kernel_cls, index):
    """A kernel raises the error the closure meets first over its rows,
    in either row order — not the first error of a whole operand."""
    predicate = ORDERED_ERRORS[index]
    rows = [(1, 2), (2, "x"), (3, PAD), (0, 3)]
    for ordered in (rows, rows[::-1]):
        in_kernel = kernel_cls._from_rows(Schema(("A", "B")), ordered)
        with pytest.raises(EvaluationError) as expected:
            list(map(predicate.bind(in_kernel.schema), ordered))
        for path in (in_kernel.select, in_kernel.predicate_mask):
            with pytest.raises(EvaluationError) as raised:
                path(predicate)
            assert str(raised.value) == str(expected.value), (ordered, predicate)


#: name → a key array for the sort-based (wide-domain) grouping path.
WIDE_KEYS = {
    "empty": [],
    "single row": [7],
    "all equal": [5] * 9,
    "62-bit limit": [(1 << 62) - 1, 0, (1 << 62) - 1, 1 << 61, 0, (1 << 62) - 2],
    "random": list(random.Random(3).choices(range(1 << 40), k=200)) * 2,
}


@pytest.mark.skipif(not have_numpy(), reason="the array kernel needs numpy")
@pytest.mark.parametrize("case", sorted(WIDE_KEYS))
def test_wide_key_grouping_matches_np_unique(case):
    """The one-sort wide path of ``_group_index``/``_first_rows`` gives
    what ``np.unique(return_index=True)`` gives: first rows in row
    order, groups numbered by first occurrence."""
    import numpy as np

    from repro.relational.array_kernel import _first_rows, _group_index

    code = np.array(WIDE_KEYS[case], dtype=np.int64)
    domain = 1 << 62  # wide: the dense scatter path is never taken
    _, first, inverse = np.unique(code, return_index=True, return_inverse=True)
    by_row = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_row] = np.arange(len(first))
    group, group_first = _group_index(code, domain)
    assert group.tolist() == rank[inverse.reshape(-1)].tolist()
    assert group_first.tolist() == first[by_row].tolist()
    assert _first_rows(code, domain).tolist() == sorted(first.tolist())


@pytest.mark.parametrize(
    "convert", [pytest.param(as_tuple, id="tuple")] + [
        pytest.param(p.values[0], id=p.id) for p in KERNEL_PARAMS
    ]
)
def test_batch_op_edges(convert):
    relation = convert(Relation(("A", "I"), [(1, 0), (2, 1)]))
    # A rewrite landing on a kept row collapses into it.
    collided = relation.masked_assign(
        relation.predicate_mask(eq("A", Const(2))), ((0, "const", 1), (1, "const", 0))
    )
    assert len(collided) == 1 and as_tuple(collided) == Relation(("A", "I"), [(1, 0)])
    # No-ops hand back the operand itself.
    nothing = relation.predicate_mask(FALSE)
    assert relation.compress(relation.predicate_mask(TRUE)) is relation
    assert relation.masked_assign(nothing, ((0, "const", 9),)) is relation
    assert relation.append_broadcast((3, None), (1,), []) is relation
    assert relation.claimed_ids(("A",), (1,), ()) == {()}
    assert relation.claimed_ids(("A",), (7,), ("I",)) == set()
    with pytest.raises(SchemaError):
        relation.distinct_count(("Nope",))
