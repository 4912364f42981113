"""Abstract syntax of I-SQL (Figure 1 of the paper).

The statement forms are::

    select [possible | certain] sellist
    from   qlist
    [where cond]
    [group by attrlist]
    [choice of attrlist]
    [repair by key attrlist]
    [group worlds by sqlquery | attrlist];

    insert into relname values (v, …);
    delete from relname [where cond];
    update relname set settings [where cond];

plus the ``create view name as query`` used throughout Section 2 and
the materializing assignment ``name <- query`` with which the paper
builds up the acquisition scenario (U ←, V ←, W ←).

Value expressions cover what the Section 2 examples need: column
references (qualified or not), literals, arithmetic, aggregates
(sum/count/min/max/avg), and scalar subqueries; conditions add the
comparisons, boolean connectives, [not] in ⟨subquery⟩ and [not] exists
⟨subquery⟩.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Sequence, Union


def _cached_hash(node) -> int:
    """The dataclass hash of a statement node, computed once per node.

    Statements key the plan cache and the result memo, and a hot
    statement comes back as the same parsed object from the parse
    cache, so its deep hash is paid on the first lookup only. The
    value is the generated hash's: equal nodes hash equal.
    """
    cached = node.__dict__.get("_hash")
    if cached is None:
        cached = hash(tuple(getattr(node, f.name) for f in fields(node) if f.compare))
        object.__setattr__(node, "_hash", cached)
    return cached

# -- value expressions ------------------------------------------------------------


@dataclass(frozen=True)
class Column:
    """A column reference, optionally qualified: ``Y.Revenue`` or ``Arr``."""

    qualifier: str | None
    name: str

    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Literal:
    """A constant: number or string."""

    value: object


@dataclass(frozen=True)
class Arithmetic:
    """Binary arithmetic over value expressions: + − * /."""

    op: str
    left: "ValueExpr"
    right: "ValueExpr"


@dataclass(frozen=True)
class Aggregate:
    """An aggregate call in a select list: ``sum(Price)``, ``count(*)``."""

    function: str
    argument: Column | None  # None encodes count(*)


@dataclass(frozen=True)
class ScalarSubquery:
    """A parenthesized subquery used as a value (must yield one value)."""

    query: "SelectQuery"
    #: Source span of the parenthesized subquery (parser-set).
    span: tuple[int, int] | None = field(default=None, compare=False)


ValueExpr = Union[Column, Literal, Arithmetic, Aggregate, ScalarSubquery]


# -- conditions ----------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    """``left op right`` with op ∈ {=, !=, <, <=, >, >=}."""

    op: str
    left: ValueExpr
    right: ValueExpr


@dataclass(frozen=True)
class InSubquery:
    """``expr [not] in (subquery)``."""

    needle: ValueExpr
    query: "SelectQuery"
    negated: bool
    #: Source span of the whole membership condition (parser-set).
    span: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class ExistsSubquery:
    """``[not] exists (subquery)``."""

    query: "SelectQuery"
    negated: bool
    #: Source span of the whole existence condition (parser-set).
    span: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class BoolOp:
    """``and`` / ``or`` over two conditions."""

    op: str
    left: "Condition"
    right: "Condition"


@dataclass(frozen=True)
class NotOp:
    """Negation of a condition."""

    operand: "Condition"


Condition = Union[Comparison, InSubquery, ExistsSubquery, BoolOp, NotOp]


# -- queries -------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry: an expression plus an optional alias.

    *span* is the item's source character range ``(start, end)`` when
    the item came from the parser (None for programmatic ASTs); it is
    excluded from equality/hashing so spans never affect semantics.
    """

    expression: ValueExpr
    alias: str | None = None
    span: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Star:
    """The ``*`` select list."""


@dataclass(frozen=True)
class TableRef:
    """A from-list item naming a base relation or view, with an alias."""

    name: str
    alias: str


@dataclass(frozen=True)
class SubqueryRef:
    """A from-list item holding a parenthesized subquery, with an alias."""

    query: "SelectQuery"
    alias: str


FromItem = Union[TableRef, SubqueryRef]


@dataclass(frozen=True)
class GroupWorldsBy:
    """The world-grouping clause: an attribute list or a subquery."""

    attributes: tuple[str, ...] | None = None
    query: "SelectQuery | None" = None
    #: Source span of the whole ``group worlds by …`` clause (parser-set).
    span: tuple[int, int] | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SelectQuery:
    """A full I-SQL select statement (Figure 1)."""

    select_list: tuple[SelectItem, ...] | Star
    from_items: tuple[FromItem, ...]
    where: Condition | None = None
    group_by: tuple[str, ...] = ()
    choice_of: tuple[str, ...] = ()
    repair_by_key: tuple[str, ...] = ()
    group_worlds_by: GroupWorldsBy | None = None
    closing: str | None = None  # "possible" | "certain" | None
    #: Source span of the ``group by`` clause, when parsed (parser-set;
    #: excluded from equality so spans never affect semantics).
    group_by_span: tuple[int, int] | None = field(default=None, compare=False)

    __hash__ = _cached_hash


# -- statements ------------------------------------------------------------------------


@dataclass(frozen=True)
class CreateView:
    """``create view name as query`` — a lazily expanded macro."""

    name: str
    query: SelectQuery


@dataclass(frozen=True)
class Assignment:
    """``name <- query`` — materialize the answer into every world.

    This is the mechanism of the paper's stepwise scenarios: the result
    becomes a base relation of the world-set, so later statements can
    reference it repeatedly *with correlation* (unlike a view, which is
    re-expanded — and thus re-splits worlds — on every reference).
    """

    name: str
    query: SelectQuery


@dataclass(frozen=True)
class Insert:
    """``insert into relname values (v, …)``.

    *span* is the statement's source extent (start/end character
    offsets), recorded by the parser and carried on all three DML nodes
    so session errors can point at the offending statement text; it
    never participates in equality or hashing.
    """

    relation: str
    values: tuple[object, ...]
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Delete:
    """``delete from relname [where cond]``."""

    relation: str
    where: Condition | None = None
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    __hash__ = _cached_hash


@dataclass(frozen=True)
class SetClause:
    """One ``attr = expr`` of an update statement."""

    attribute: str
    expression: ValueExpr


@dataclass(frozen=True)
class Update:
    """``update relname set settings [where cond]``."""

    relation: str
    settings: tuple[SetClause, ...]
    where: Condition | None = None
    span: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    __hash__ = _cached_hash


Statement = Union[SelectQuery, CreateView, Assignment, Insert, Delete, Update]


def select_item_output_name(item: SelectItem, index: int) -> str:
    """The output attribute name of one select item.

    The single definition shared by the engine's projection and the
    compiler's aggregation tail — their answer schemas must match bit
    for bit for the backend differential to hold.
    """
    if item.alias:
        return item.alias
    if isinstance(item.expression, Column):
        return item.expression.name
    if isinstance(item.expression, Aggregate):
        argument = item.expression.argument
        inner = argument.name if argument else "*"
        return f"{item.expression.function}({inner})"
    return f"expr{index}"


def expression_subqueries(expression: ValueExpr) -> list[SelectQuery]:
    """All scalar subqueries nested anywhere in a value expression."""
    found: list[SelectQuery] = []

    def visit(expr: ValueExpr) -> None:
        if isinstance(expr, ScalarSubquery):
            found.append(expr.query)
        elif isinstance(expr, Arithmetic):
            visit(expr.left)
            visit(expr.right)

    visit(expression)
    return found


def condition_subqueries(condition: Condition | None) -> list[SelectQuery]:
    """All subqueries appearing anywhere in a condition."""
    if condition is None:
        return []
    found: list[SelectQuery] = []

    def visit_value(expr: ValueExpr) -> None:
        found.extend(expression_subqueries(expr))

    def visit(cond: Condition) -> None:
        if isinstance(cond, Comparison):
            visit_value(cond.left)
            visit_value(cond.right)
        elif isinstance(cond, InSubquery):
            visit_value(cond.needle)
            found.append(cond.query)
        elif isinstance(cond, ExistsSubquery):
            found.append(cond.query)
        elif isinstance(cond, BoolOp):
            visit(cond.left)
            visit(cond.right)
        elif isinstance(cond, NotOp):
            visit(cond.operand)

    visit(condition)
    return found


def referenced_relations(
    query: SelectQuery, views: dict[str, SelectQuery]
) -> set[str]:
    """All base relation names *query* reads, recursively.

    Follows from-subqueries, view references (expanded through
    *views*), condition subqueries, scalar subqueries in the select
    list, and the ``group worlds by`` companion query. Names that are
    neither views nor known relations are returned as-is (resolution
    errors stay the evaluator's job). The inline backend uses this to
    decide whether a DML subquery's answer can depend on the world id:
    a world-local subquery reading only world-uniform relations is the
    same in every world.
    """
    found: set[str] = set()
    expanded_views: set[str] = set()
    pending = [query]
    while pending:
        for name in _named_relations(pending.pop()):
            if name not in views:
                found.add(name)
            elif name not in expanded_views:
                expanded_views.add(name)
                pending.append(views[name])
    return found


def _named_relations(query: SelectQuery) -> frozenset[str]:
    """The relation and view names *query*'s from-lists mention, in
    every nested subquery too (cached on the node, like its hash)."""
    cached = query.__dict__.get("_names")
    if cached is not None:
        return cached
    names: set[str] = set()
    for item in query.from_items:
        if isinstance(item, SubqueryRef):
            names |= _named_relations(item.query)
        else:
            names.add(item.name)
    subqueries = condition_subqueries(query.where)
    if not isinstance(query.select_list, Star):
        for select_item in query.select_list:
            subqueries += expression_subqueries(select_item.expression)
    if query.group_worlds_by is not None and query.group_worlds_by.query is not None:
        subqueries.append(query.group_worlds_by.query)
    for sub in subqueries:
        names |= _named_relations(sub)
    cached = frozenset(names)
    object.__setattr__(query, "_names", cached)
    return cached


def is_world_splitting(query: SelectQuery, views: dict[str, SelectQuery]) -> bool:
    """True iff evaluating *query* can change the set of worlds.

    Choice-of and repair-by-key split worlds; a referenced view splits
    if its definition does; from-subqueries and condition subqueries
    propagate the property. (possible/certain/group-worlds-by merge
    information across worlds but keep the world count, so they do not
    count as splitting — but they do make a subquery non-world-local;
    see :func:`is_world_local`.)
    """
    if query.choice_of or query.repair_by_key:
        return True
    for item in query.from_items:
        if isinstance(item, SubqueryRef) and is_world_splitting(item.query, views):
            return True
        if isinstance(item, TableRef) and item.name in views:
            if is_world_splitting(views[item.name], views):
                return True
    for sub in condition_subqueries(query.where):
        if is_world_splitting(sub, views):
            return True
    return False


def is_world_local(query: SelectQuery, views: dict[str, SelectQuery]) -> bool:
    """True iff the query can be evaluated inside a single world.

    World-local queries neither split worlds nor look across world
    borders (possible/certain/group-worlds-by). Only world-local
    subqueries may be correlated with outer rows.
    """
    if query.closing is not None or query.group_worlds_by is not None:
        return False
    if query.choice_of or query.repair_by_key:
        return False
    for item in query.from_items:
        if isinstance(item, SubqueryRef) and not is_world_local(item.query, views):
            return False
        if isinstance(item, TableRef) and item.name in views:
            if not is_world_local(views[item.name], views):
                return False
    for sub in condition_subqueries(query.where):
        if not is_world_local(sub, views):
            return False
    return True
