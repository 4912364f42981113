"""Columnar vectorized execution kernel for the inline hot path.

The tuple engine (:class:`repro.relational.relation.Relation`) stores a
relation as a frozenset of row tuples and pays, on *every* operator, a
per-row Python loop plus a fresh frozenset build — exactly the
tuple-at-a-time evaluation shape the paper's §8 performance discussion
warns turns polynomial plans into slow ones in practice. This module is
the alternative: a :class:`ColumnarRelation` stores the table as one
sequence per attribute and implements the same operator set with
vectorized passes —

* selection is ``compress(predicate_mask(...))`` over column passes (no
  set rebuild: selections of a distinct relation stay distinct), and
  ``Attr = Const`` on a committed table is one hash-index probe;
* projection and renaming are column slices; the column-copy projection
  of the choice-of translation (§5.2) is a single column alias, O(1)
  regardless of row count;
* joins, semijoins and antijoins hash column slices and probe with
  C-speed ``zip`` iteration; :meth:`ColumnarRelation.join_on`
  additionally fuses σ(R × S) plans into one hash join pass;
* the ``cert``/``÷ W`` closing is a single ``Counter`` pass over a
  column slice (see :func:`repro.inline.physical`).

Distinctness is an invariant, not a per-operator pass: every public
``ColumnarRelation`` holds distinct rows, and operators that provably
preserve distinctness (selection, renaming, column copies, hash joins
of distinct operands, set differences) skip deduplication entirely.
Only projection onto a proper attribute subset and union pay one
``dict.fromkeys`` pass — and a projection that drops only aliases of
kept columns (the world id of a ``choice of`` is its value column) is
zero-copy. Filters (``compress``) and updates (``masked_assign``) keep
column identity: each distinct column object is compressed once, and
an update rebuilds only the columns it writes, sharing the rest by
object. A committed table therefore keeps its aliases from one
statement to the next, and the read after an update still projects
without deduplicating.

A committed table also keeps hash indexes. A relation is *resident*
when it is paired with a tuple-engine :class:`Relation`: the twin that
:func:`as_columnar` caches on a session table, or a result handed back
through :meth:`ColumnarRelation.to_relation` when a statement commits
it. The first ``Attr = Const`` selection or DML match on a resident
relation (or on a rename of one, which shares its indexes) builds the
column's index, value → ascending row positions, through the same
``_index`` partition that ``select_values`` and the hash joins use;
later statements probe it. Intermediate relations never build one, so
a one-shot plan pays only its column passes. ``masked_assign`` hands
its result a new dict with the indexes on unwritten columns when it
drops no row, so an update of one column keeps the others indexed and
the parent, which a rollback or a pool sibling may still hold, is left
as it was. ``compress``, ``append_broadcast`` and every other operator
start their results without indexes. The array kernel keeps its numpy
masks.

Which engine runs is a process-wide switch: ``REPRO_KERNEL=columnar``
(the default) or ``REPRO_KERNEL=tuple`` keeps the original tuple-at-a-
time path alive for differential testing; evaluators also accept an
explicit ``kernel=`` argument overriding the environment. Conversions
(:func:`as_columnar` / :func:`as_tuple`) are cached on the source
object, so routing a session's base tables through the kernel costs one
transposition per table, not one per statement.
"""

from __future__ import annotations

import os
from itertools import compress, repeat
from operator import itemgetter, not_
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from repro.errors import EvaluationError, SchemaError
from repro.relational.guards import checkpoint
from repro.relational.pad import PAD, row_sort_key
from repro.relational.predicates import (
    _OPS,
    And,
    Attr,
    Comparison,
    Const,
    Not,
    Or,
    PadDefault,
    Predicate,
    _Boolean,
)
from repro.relational.relation import (
    Relation,
    Row,
    _coerce_row,
    broadcast_rows,
    check_join_pairs_cover_shared,
    oriented_equality_pairs,
    scattered_rows,
    tuple_getter,
    written_constant,
)
from repro.relational.schema import Schema

#: Environment variable selecting the execution kernel.
KERNEL_ENV = "REPRO_KERNEL"


class KernelOps(NamedTuple):
    """The per-kernel operation table the evaluators dispatch through.

    Every kernel switch site (the physical evaluator, the translate
    route, the representation's expansion cache, the DML paths) asks
    the registry for these three functions instead of branching on the
    kernel name, so adding a kernel is one :func:`register_kernel`
    call, not an edit at every site.
    """

    name: str
    #: Relation | ColumnarRelation → this kernel's representation (cached
    #: on the source object at the conversion boundary).
    convert: Callable[["Relation | ColumnarRelation"], "Relation | ColumnarRelation"]
    #: (schema, distinct aligned row tuples) → kernel relation.
    from_distinct_rows: Callable[..., "Relation | ColumnarRelation"]
    #: The nullary one-row relation {⟨⟩} (a single complete world's W).
    unit: Callable[[], "Relation | ColumnarRelation"]


#: name → lazy :class:`KernelOps` loader. Loaders run on first *use*, so
#: a kernel with an optional dependency (``array`` needs numpy) is
#: always a *valid name*; the dependency error surfaces only when that
#: kernel is actually selected.
_KERNEL_LOADERS: dict[str, Callable[[], KernelOps]] = {}
_KERNEL_OPS: dict[str, KernelOps] = {}


def register_kernel(name: str, loader: Callable[[], KernelOps]) -> None:
    """Register an execution kernel under *name* (one line per kernel)."""
    _KERNEL_LOADERS[name] = loader


def kernel_names() -> tuple[str, ...]:
    """The registered kernel names, in registration order."""
    return tuple(_KERNEL_LOADERS)


def active_kernel() -> str:
    """The kernel selected by ``REPRO_KERNEL`` (default ``columnar``)."""
    kernel = os.environ.get(KERNEL_ENV, "columnar").strip().lower()
    if kernel not in _KERNEL_LOADERS:
        raise EvaluationError(
            f"unknown kernel {kernel!r} in ${KERNEL_ENV}; "
            f"expected one of {kernel_names()}"
        )
    return kernel


def resolve_kernel(kernel: str | None) -> str:
    """An explicit kernel choice, falling back to :func:`active_kernel`."""
    if kernel is None:
        return active_kernel()
    if kernel not in _KERNEL_LOADERS:
        raise EvaluationError(
            f"unknown kernel {kernel!r}; expected one of {kernel_names()}"
        )
    return kernel


def kernel_ops(kernel: str | None = None) -> KernelOps:
    """The :class:`KernelOps` of *kernel* (or the active kernel).

    Loads the kernel lazily on first use and caches the table; a kernel
    whose loader fails (e.g. ``array`` without numpy installed) raises
    its loader's :class:`EvaluationError` here, at selection time.
    """
    name = resolve_kernel(kernel)
    ops = _KERNEL_OPS.get(name)
    if ops is None:
        ops = _KERNEL_LOADERS[name]()
        _KERNEL_OPS[name] = ops
    return ops


def _transpose(rows: Sequence[Row], width: int) -> tuple[tuple, ...]:
    """Rows → columns. ``zip(*rows)`` runs at C speed."""
    if width == 0:
        return ()
    if not rows:
        return ((),) * width
    return tuple(zip(*rows))


class ColumnarRelation:
    """An immutable relation stored column-wise; rows are distinct.

    Mirrors the public operator surface of :class:`Relation` (the two
    are interchangeable inside the inline evaluator), caching both the
    column view and the row view — whichever an operator needs — plus
    hash indexes keyed by attribute positions, like the tuple engine.
    """

    __slots__ = (
        "schema",
        "_nrows",
        "_columns",
        "_row_list",
        "_rowset",
        "_indexes",
        "_twin",
        "_hash",
        "_resident",
    )

    def __init__(self, schema: Schema | Sequence[str], rows: Iterable[object] = ()) -> None:
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        coerced = dict.fromkeys(_coerce_row(schema, row) for row in rows)
        self.schema = schema
        self._row_list: list[Row] | None = list(coerced)
        self._nrows = len(self._row_list)
        self._columns: tuple[tuple, ...] | None = None
        self._rowset: frozenset[Row] | None = None
        self._indexes: dict[tuple[int, ...], dict[tuple, list[int]]] = {}
        self._twin: Relation | None = None
        self._hash: int | None = None
        self._resident = False

    # -- trusted constructors ------------------------------------------------

    @classmethod
    def _blank(cls, schema: Schema, nrows: int) -> "ColumnarRelation":
        relation = object.__new__(cls)
        relation.schema = schema
        relation._nrows = nrows
        relation._columns = None
        relation._row_list = None
        relation._rowset = None
        relation._indexes = {}
        relation._twin = None
        relation._hash = None
        relation._resident = False
        return relation

    @classmethod
    def _from_rows(cls, schema: Schema, rows: Sequence[Row]) -> "ColumnarRelation":
        """Internal constructor: *rows* must be distinct aligned tuples."""
        rows = rows if isinstance(rows, list) else list(rows)
        relation = cls._blank(schema, len(rows))
        relation._row_list = rows
        return relation

    @classmethod
    def _from_columns(
        cls, schema: Schema, columns: Sequence[Sequence], nrows: int
    ) -> "ColumnarRelation":
        """Internal constructor: *columns* must hold distinct rows."""
        relation = cls._blank(schema, nrows)
        relation._columns = tuple(columns)
        return relation

    @classmethod
    def _deduped(cls, schema: Schema, rows: Iterable[Row]) -> "ColumnarRelation":
        """Internal constructor deduplicating aligned row tuples."""
        return cls._from_rows(schema, list(dict.fromkeys(rows)))

    @staticmethod
    def unit() -> "ColumnarRelation":
        """The nullary relation {⟨⟩} (a single complete world's W)."""
        return ColumnarRelation._from_rows(Schema(()), [()])

    @staticmethod
    def empty(attributes: Sequence[str]) -> "ColumnarRelation":
        return ColumnarRelation._from_rows(Schema(attributes), [])

    @staticmethod
    def from_relation(relation: Relation) -> "ColumnarRelation":
        columnar = ColumnarRelation._from_rows(relation.schema, list(relation.rows))
        columnar._rowset = relation.rows
        columnar._twin = relation
        columnar._resident = True
        return columnar

    def to_relation(self) -> Relation:
        if self._twin is None:
            if self._rowset is not None:
                twin = Relation._raw(self.schema, self._rowset)
            else:
                # Defer the tuple materialization: the twin reads rows
                # through this relation only if something needs them.
                twin = Relation._from_kernel(self.schema)
            twin._columnar = self
            self._twin = twin
            self._resident = True
        return self._twin

    # -- the two cached views -------------------------------------------------

    @property
    def columns(self) -> tuple[tuple, ...]:
        if self._columns is None:
            self._columns = _transpose(self._row_list, len(self.schema))
        return self._columns

    def row_list(self) -> list[Row]:
        if self._row_list is None:
            if len(self.schema) == 0:
                self._row_list = [()] * self._nrows
            else:
                self._row_list = list(zip(*self._columns))
        return self._row_list

    @property
    def rows(self) -> frozenset[Row]:
        if self._rowset is None:
            self._rowset = frozenset(self.row_list())
        return self._rowset

    def tuples(self, attributes: Sequence[str]) -> Iterator[tuple]:
        """C-speed iterator over the sub-tuples of *attributes*.

        The workhorse of the vectorized passes: world-id extraction,
        join keys, group fingerprints and cert counting all reduce to
        zipping a handful of column slices.
        """
        if not attributes:
            return repeat((), self._nrows)
        schema = self.schema
        if self._columns is not None:
            return zip(*(self._columns[schema.index(a)] for a in attributes))
        # Row-list representation: extract at C speed without a full
        # transpose. itemgetter over several positions yields tuples
        # directly; for one position, zip() over the scalar stream
        # wraps each value into a 1-tuple, still at C speed.
        positions = schema.indices(attributes)
        if len(positions) == 1:
            return zip(map(itemgetter(positions[0]), self._row_list))
        return map(itemgetter(*positions), self._row_list)

    def column_values(self, attribute: str):
        """One column's value stream (C-speed; never transposes)."""
        position = self.schema.index(attribute)
        if self._columns is not None:
            return self._columns[position]
        return map(itemgetter(position), self._row_list)

    def _index(self, positions: tuple[int, ...]) -> dict[tuple, list[int]]:
        """Hash partition: key sub-tuple → ascending row indices (cached).

        Built into a local dict and published whole, so a thread reading
        ``_indexes`` (pool siblings share committed tables) never sees a
        partial index; two threads building at once each get a complete
        one, and the later publish wins.
        """
        cached = self._indexes.get(positions)
        if cached is None:
            attributes = tuple(self.schema[p] for p in positions)
            cached = {}
            for where, key in enumerate(self.tuples(attributes)):
                bucket = cached.get(key)
                if bucket is None:
                    cached[key] = [where]
                else:
                    bucket.append(where)
            self._indexes[positions] = cached
        return cached

    def _hits(self, positions: tuple[int, ...], key: tuple) -> list[int]:
        """The ascending positions of the rows whose *positions* sub-tuple
        is *key*: one index probe (the caller must not mutate the list)."""
        return self._index(positions).get(key, [])

    def _gather(self, indices: Sequence[int]) -> "ColumnarRelation":
        """The rows at *indices*, in that order (see :meth:`_per_column`)."""
        if not self._columns:
            rows = self.row_list()
            return type(self)._from_rows(self.schema, [rows[i] for i in indices])
        return self._per_column(lambda column: tuple(map(column.__getitem__, indices)))

    def _per_column(self, transform) -> "ColumnarRelation":
        """*transform* applied to each distinct column object once, so
        aliased columns (a ``copy_attribute`` world id) stay one object."""
        distinct = {id(column): column for column in self._columns}
        done = {key: transform(column) for key, column in distinct.items()}
        columns = tuple(done[id(column)] for column in self._columns)
        return type(self)._from_columns(self.schema, columns, len(columns[0]))

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return self._nrows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.row_list())

    def __contains__(self, row: object) -> bool:
        return row in self.rows

    def __bool__(self) -> bool:
        return self._nrows > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ColumnarRelation) or isinstance(other, Relation):
            if self.schema == other.schema:
                return self.rows == other.rows
            if not self.schema.same_attributes(other.schema):
                return False
            aligned = frozenset(
                as_columnar(other).tuples(self.schema.attributes)
            )
            return self.rows == aligned
        return NotImplemented

    def __hash__(self) -> int:
        # Matches Relation.__hash__ for equal content, so mixed-kernel
        # relations can coexist in one set or dict.
        if self._hash is None:
            canonical_attrs = tuple(sorted(self.schema.attributes))
            if canonical_attrs == self.schema.attributes:
                canonical_rows = self.rows
            else:
                canonical_rows = frozenset(self.tuples(canonical_attrs))
            self._hash = hash((canonical_attrs, canonical_rows))
        return self._hash

    def __repr__(self) -> str:
        return f"ColumnarRelation({list(self.schema)!r}, {self._nrows} rows)"

    def sorted_rows(self) -> list[Row]:
        return sorted(self.row_list(), key=row_sort_key)

    def named_rows(self) -> list[dict[str, object]]:
        attrs = self.schema.attributes
        return [dict(zip(attrs, row)) for row in self.sorted_rows()]

    def _reordered(self, attributes: Sequence[str]) -> "ColumnarRelation":
        positions = self.schema.indices(attributes)
        if positions == tuple(range(len(self.schema))):
            return self
        columns = self.columns
        return type(self)._from_columns(
            Schema(attributes), tuple(columns[p] for p in positions), self._nrows
        )

    # -- unary operators -------------------------------------------------------

    def select(self, predicate: Predicate) -> "ColumnarRelation":
        checkpoint("select", self._nrows)
        hits = self._indexed_hits(predicate)
        if hits is None:
            return self._keep(self._mask(predicate))
        return self._gather(hits)

    def select_values(self, assignment: Mapping[str, object]) -> "ColumnarRelation":
        positions = self.schema.indices(assignment)
        return self._gather(self._hits(positions, tuple(assignment.values())))

    def project(self, attributes: Sequence[str]) -> "ColumnarRelation":
        checkpoint("project", self._nrows)
        schema = self.schema.project(attributes)
        positions = self.schema.indices(attributes)
        if positions == tuple(range(len(self.schema))):
            return type(self)._share(self, schema)
        if len(positions) == len(self.schema):
            # A permutation of all attributes: distinctness is preserved.
            return self._reordered(attributes)
        if not positions:
            return type(self)._from_rows(
                schema, [()] if self._nrows else []
            )
        columns = self._columns
        if columns is not None:
            kept = set(positions)
            kept_objects = {id(columns[p]) for p in positions}
            if all(
                id(columns[q]) in kept_objects
                for q in range(len(columns))
                if q not in kept
            ):
                # Every dropped column is the *same object* as a kept
                # one (a copy_attribute alias, e.g. dropping Dep while
                # keeping the world id $Dep): rows stay pairwise
                # distinct, so this is a zero-copy column selection.
                return type(self)._from_columns(
                    schema, tuple(columns[p] for p in positions), self._nrows
                )
        return type(self)._deduped(schema, self.tuples(attributes))

    @classmethod
    def _share(cls, source: "ColumnarRelation", schema: Schema) -> "ColumnarRelation":
        """The same rows under a renamed/reordered-free schema (zero copy)."""
        relation = cls._blank(schema, source._nrows)
        relation._columns = source._columns
        relation._row_list = source._row_list
        relation._rowset = source._rowset
        relation._indexes = source._indexes
        relation._resident = source._resident
        return relation

    def rename(self, mapping: Mapping[str, str]) -> "ColumnarRelation":
        return type(self)._share(self, self.schema.rename(mapping))

    def extend(
        self, attribute: str, function: Callable[[dict[str, object]], object]
    ) -> "ColumnarRelation":
        if attribute in self.schema:
            raise SchemaError(f"attribute {attribute!r} already exists")
        checkpoint("extend", self._nrows)
        attrs = self.schema.attributes
        schema = Schema(attrs + (attribute,))
        rows = [
            row + (function(dict(zip(attrs, row))),) for row in self.row_list()
        ]
        return type(self)._from_rows(schema, rows)

    def copy_attribute(self, source: str, target: str) -> "ColumnarRelation":
        """π_{*, source as target}: O(1) — the column object is aliased."""
        if target in self.schema:
            raise SchemaError(f"attribute {target!r} already exists")
        position = self.schema.index(source)
        columns = self.columns
        return type(self)._from_columns(
            Schema(self.schema.attributes + (target,)),
            columns + (columns[position],),
            self._nrows,
        )

    # -- binary operators --------------------------------------------------------

    def _aligned_tuples(self, other: "ColumnarRelation | Relation", op: str) -> Iterator[tuple]:
        if not self.schema.same_attributes(other.schema):
            raise SchemaError(
                f"{op} operands must have equal attribute sets; "
                f"got {list(self.schema)} vs {list(other.schema)}"
            )
        return as_columnar(other).tuples(self.schema.attributes)

    def union(self, other: "ColumnarRelation | Relation") -> "ColumnarRelation":
        checkpoint("union", self._nrows + len(other))
        aligned = self._aligned_tuples(other, "union")
        combined = dict.fromkeys(self.row_list())
        combined.update(dict.fromkeys(aligned))
        return type(self)._from_rows(self.schema, list(combined))

    def difference(self, other: "ColumnarRelation | Relation") -> "ColumnarRelation":
        checkpoint("difference", self._nrows + len(other))
        drop = frozenset(self._aligned_tuples(other, "difference"))
        return type(self)._from_rows(
            self.schema, [row for row in self.row_list() if row not in drop]
        )

    def intersection(self, other: "ColumnarRelation | Relation") -> "ColumnarRelation":
        checkpoint("intersection", self._nrows + len(other))
        keep = frozenset(self._aligned_tuples(other, "intersection"))
        return type(self)._from_rows(
            self.schema, [row for row in self.row_list() if row in keep]
        )

    def product(self, other: "ColumnarRelation | Relation") -> "ColumnarRelation":
        other = as_columnar(other)
        checkpoint("product", self._nrows + len(other))
        schema = self.schema.concat(other.schema)
        if not self.schema:
            # {⟨⟩} × R = R (the unit world table is a frequent operand).
            if self._nrows == 0:
                return type(self)._from_rows(schema, [])
            return type(other)._share(other, schema)
        if not other.schema:
            if len(other) == 0:
                return type(self)._from_rows(schema, [])
            return type(self)._share(self, schema)
        right = other.row_list()
        rows = [left + r for left in self.row_list() for r in right]
        return type(self)._from_rows(schema, rows)

    def natural_join(self, other: "ColumnarRelation | Relation") -> "ColumnarRelation":
        other = as_columnar(other)
        common = self.schema.common(other.schema)
        return self.join_on(other, [(a, a) for a in common])

    def equi_join(
        self, other: "ColumnarRelation | Relation", pairs: Sequence[tuple[str, str]]
    ) -> "ColumnarRelation":
        other = as_columnar(other)
        self.schema.concat(other.schema)  # equi-join requires disjoint schemas
        return self.join_on(other, pairs)

    def join_on(
        self, other: "ColumnarRelation | Relation", pairs: Sequence[tuple[str, str]]
    ) -> "ColumnarRelation":
        """Hash join on explicit ``(left_attr, right_attr)`` key pairs.

        The one build/probe loop behind :meth:`natural_join` (all shared
        names as ``(a, a)`` pairs) and :meth:`equi_join` (disjoint
        schemas): shared attribute names join positionally when listed
        as ``(a, a)``, and cross-named equalities keep both columns. The
        output schema is the left schema followed by the right
        attributes not named on the left. This is also the fused
        evaluation of σ_{eq}(R × S) plans — the product is never
        materialized.
        """
        other = as_columnar(other)
        if not pairs:
            return self.product(other)
        checkpoint("join_on", self._nrows + len(other))
        left_set = self.schema.as_set()
        check_join_pairs_cover_shared(left_set, other.schema, pairs)
        right_key = other.schema.indices(b for _, b in pairs)
        buckets = other._index(right_key)
        right_rest = tuple(
            i for i, a in enumerate(other.schema) if a not in left_set
        )
        schema = Schema(
            self.schema.attributes + tuple(other.schema[i] for i in right_rest)
        )
        left_keys = self.tuples(tuple(a for a, _ in pairs))
        if not right_rest:
            # Right side is pure key: the join degenerates to a semijoin
            # (the answer ⋈ world-projection pattern of the lazy §5.3 form).
            return type(self)._from_rows(
                schema,
                [
                    row
                    for row, key in zip(self.row_list(), left_keys)
                    if key in buckets
                ],
            )
        rest_of = tuple_getter(right_rest)
        right_rows = other.row_list()
        rows: list[Row] = []
        append = rows.append
        for left, key in zip(self.row_list(), left_keys):
            bucket = buckets.get(key)
            if bucket is not None:
                for i in bucket:
                    append(left + rest_of(right_rows[i]))
        return type(self)._from_rows(schema, rows)

    def theta_join(
        self, other: "ColumnarRelation | Relation", predicate: Predicate
    ) -> "ColumnarRelation":
        other = as_columnar(other)
        pairs = predicate.equality_pairs()
        if pairs is not None:
            oriented = oriented_equality_pairs(self.schema.as_set(), pairs)
            if oriented is not None:
                return self.equi_join(other, oriented)
        return self.product(other).select(predicate)

    def semijoin(self, other: "ColumnarRelation | Relation") -> "ColumnarRelation":
        other = as_columnar(other)
        common = self.schema.common(other.schema)
        if not common:
            return self if len(other) else type(self)._from_rows(self.schema, [])
        checkpoint("semijoin", self._nrows + len(other))
        keys = other._index(other.schema.indices(common))
        return type(self)._from_rows(
            self.schema,
            [
                row
                for row, key in zip(self.row_list(), self.tuples(common))
                if key in keys
            ],
        )

    def antijoin(self, other: "ColumnarRelation | Relation") -> "ColumnarRelation":
        other = as_columnar(other)
        common = self.schema.common(other.schema)
        if not common:
            return type(self)._from_rows(self.schema, []) if len(other) else self
        checkpoint("antijoin", self._nrows + len(other))
        keys = other._index(other.schema.indices(common))
        return type(self)._from_rows(
            self.schema,
            [
                row
                for row, key in zip(self.row_list(), self.tuples(common))
                if key not in keys
            ],
        )

    def divide(self, other: "ColumnarRelation | Relation") -> "ColumnarRelation":
        other = as_columnar(other)
        divisor_attrs = other.schema.as_set()
        if not divisor_attrs <= self.schema.as_set():
            raise SchemaError(
                f"division requires divisor attributes {sorted(divisor_attrs)} "
                f"⊆ dividend attributes {list(self.schema)}"
            )
        checkpoint("divide", self._nrows + len(other))
        keep = tuple(a for a in self.schema if a not in divisor_attrs)
        required = other.rows
        need = len(required)
        seen: dict[tuple, set[tuple]] = {}
        for quotient, divisor in zip(
            self.tuples(keep), self.tuples(other.schema.attributes)
        ):
            group = seen.get(quotient)
            if group is None:
                seen[quotient] = {divisor}
            else:
                group.add(divisor)
        return type(self)._from_rows(
            Schema(keep),
            [d for d, vs in seen.items() if len(vs) >= need and required <= vs],
        )

    # -- DML kernel ops: mask / scatter -------------------------------------------

    def mask(
        self,
        matched: "ColumnarRelation | Relation",
        attributes: Sequence[str] | None = None,
    ) -> "ColumnarRelation":
        """Boolean-keep by hashed key lookup (see :meth:`Relation.mask`).

        One build pass over *matched*'s key columns and one C-speed
        zip-and-probe over this relation's row view — the columnar hot
        path of ``delete``: no tuple materialization beyond the key
        sub-tuples, and the kept rows are shared, not copied.
        """
        matched = as_columnar(matched)
        checkpoint("mask", self._nrows + len(matched))
        attrs = (
            tuple(attributes) if attributes is not None else self.schema.attributes
        )
        self.schema.indices(attrs)  # validate eagerly, like the tuple twin
        drop = set(matched.tuples(attrs))
        if not drop:
            return self
        return type(self)._from_rows(
            self.schema,
            [
                row
                for row, key in zip(self.row_list(), self.tuples(attrs))
                if key not in drop
            ],
        )

    def scatter_update(
        self,
        matches: "ColumnarRelation | Relation",
        setters: Sequence[tuple[str, Callable[[Row], object]]],
        attributes: Sequence[str] | None = None,
    ) -> "ColumnarRelation":
        """Rewrite the rows a match names (see :meth:`Relation.scatter_update`).

        One pass over each side's row list; only the rewritten rows are
        materialized anew.
        """
        matches = as_columnar(matches)
        checkpoint("scatter_update", self._nrows + len(matches))
        attrs = (
            tuple(attributes) if attributes is not None else self.schema.attributes
        )
        rows = scattered_rows(
            self.schema,
            setters,
            attrs,
            matches.schema,
            matches.row_list(),
            self.row_list(),
        )
        return self if rows is None else type(self)._deduped(self.schema, rows)

    # -- selection and DML batch kernel ops (see Relation.predicate_mask) --------
    #
    # ``select`` is ``compress(predicate_mask(...))`` under its own
    # checkpoint. Masks are lists of bools; a comparison is one C-speed
    # ``map(operator.<op>, left, right)`` over its Term.column operands.

    def predicate_mask(self, predicate: Predicate) -> list[bool]:
        checkpoint("predicate_mask", self._nrows)
        hits = self._indexed_hits(predicate)
        if hits is None:
            return self._mask(predicate)
        mask = [False] * self._nrows
        for i in hits:
            mask[i] = True
        return mask

    def _indexed_hits(self, predicate: Predicate) -> list[int] | None:
        """The ascending positions of the rows satisfying *predicate*,
        read from a hash index, or None for the column-pass mask.

        Serves ``Attr = Const`` in either orientation, and an ``and``
        whose left conjunct it serves: the right conjunct then runs on
        the index's rows alone, in row order, so its first error is the
        row closure's. Any relation probes the indexes it holds; only a
        resident one (see the module docstring) builds one here. A
        constant that is not equal to itself (NaN) falls back to the
        mask: a dict probe matches by identity first, where ``==`` is
        False.
        """
        if isinstance(predicate, And):
            hits = self._indexed_hits(predicate.left)
            if not hits:
                return hits
            verdicts = self._gather(hits)._mask(predicate.right)
            return list(compress(hits, verdicts))
        if not (isinstance(predicate, Comparison) and predicate.op == "="):
            return None
        attr, const = predicate.left, predicate.right
        if isinstance(const, Attr):
            attr, const = const, attr
        if not (isinstance(attr, Attr) and isinstance(const, Const)):
            return None
        value = const.value
        try:
            if value != value:
                return None
            key = (value,)
            hash(key)
        except TypeError:
            return None
        positions = (self.schema.index(attr.name),)
        if positions not in self._indexes and not self._resident:
            return None
        return self._hits(positions, key)

    def _mask(self, predicate: Predicate):
        """Column passes where they are exact, else the bound row closure."""
        mask = self._predicate_mask(predicate)
        return self._row_mask(predicate) if mask is None else mask

    def _row_mask(self, predicate: Predicate):
        return list(map(predicate.bind(self.schema), self.row_list()))

    def _predicate_mask(self, predicate: Predicate):
        """Predicate → mask by column passes, or None for the row closure.

        Comparisons of attributes, constants, PAD defaults and
        arithmetic under and/or/not and TRUE/FALSE keep the closure's
        semantics: a comparison meeting mixed types re-runs under its
        ``TypeError → False`` net; arithmetic streams row by row in the
        closure's order, so the first error is the closure's; and/or
        runs its right operand only on the rows the left one leaves
        undecided. When both operands can raise, or a term has no
        column form (scalar guards), this returns None.
        """
        if isinstance(predicate, Comparison):
            return self._compare_mask(predicate)
        if isinstance(predicate, (And, Or)):
            if _may_raise(predicate.left) and _may_raise(predicate.right):
                return None
            left = self._predicate_mask(predicate.left)
            if left is None:
                return None
            conjunction = isinstance(predicate, And)
            undecided = left if conjunction else list(map(not_, left))
            right = self._keep(undecided)._predicate_mask(predicate.right)
            if right is None:
                return None
            verdicts = iter(right)
            if conjunction:
                return [hit and next(verdicts) for hit in left]
            return [hit or next(verdicts) for hit in left]
        if isinstance(predicate, Not):
            inner = self._predicate_mask(predicate.operand)
            return None if inner is None else list(map(not_, inner))
        if isinstance(predicate, _Boolean):
            return [predicate.value] * self._nrows
        return None

    def _compare_mask(self, comparison: Comparison) -> list[bool] | None:
        left = comparison.left.column(self)
        right = None if left is None else comparison.right.column(self)
        if right is None:
            return None
        try:
            return list(map(_OPS[comparison.op], left, right))
        except TypeError:
            return list(map(comparison.bind(self.schema), self.row_list()))

    def compress(self, keep) -> "ColumnarRelation":
        checkpoint("compress", self._nrows)
        return self._keep(keep)

    def _keep(self, keep) -> "ColumnarRelation":
        """The rows *keep* marks: each column compressed, else the row list.

        Each distinct column object is compressed once, so aliased
        columns (a ``copy_attribute`` world id) stay one object.
        """
        if all(keep):
            return self
        if not self._columns:
            return type(self)._from_rows(
                self.schema, list(compress(self.row_list(), keep))
            )
        return self._per_column(lambda column: tuple(compress(column, keep)))

    def masked_assign(self, mask, settings) -> "ColumnarRelation":
        """Rewrite the masked rows column by column; dedup only where a
        collision can be.

        Only the columns the settings write are rebuilt, one pass each.
        Every other column is shared by object, a world id and the
        column it aliases included; a written column splits off from
        its aliases. Kept rows are distinct already, so only a rewritten
        row can collide: with another rewritten row, or with a kept row
        holding a rewritten row's value in every column. One pass over a
        probe column — the written constant's, else the first — finds
        the rows holding such a value; only they are hashed, and the
        later of two equal rows is dropped through :meth:`_keep`.

        When no row is dropped, the hash indexes on unwritten columns
        carry over to the result (a new dict); a dropped row shifts
        positions, so then the result starts without indexes.
        """
        checkpoint("masked_assign", self._nrows)
        hits = _indices_of(mask, True)
        if not hits:
            return self
        old = self.columns
        columns = list(old)
        final = {position: (kind, payload) for position, kind, payload in settings}
        for position, (kind, payload) in final.items():
            column = list(old[position])
            if kind == "const":
                for i in hits:
                    column[i] = payload
            else:
                source = old[payload]
                for i in hits:
                    column[i] = source[i]
            columns[position] = tuple(column)
        result = type(self)._from_columns(self.schema, columns, self._nrows)
        written = written_constant(settings)
        probe = columns[0 if written is None else written[0]]
        values = {probe[i] for i in hits}
        if len(values) == 1:
            candidates = _indices_of(probe, *values)
        else:
            candidates = list(
                compress(range(self._nrows), map(values.__contains__, probe))
            )
        gather = tuple_getter(candidates)
        rows = list(zip(*map(gather, columns)))
        if len(set(rows)) == len(rows):
            # No row dropped: every index off the written columns still
            # holds. The result gets its own dict — the parent stays as
            # it was for a rollback and for the pool siblings sharing it.
            result._indexes = {
                positions: index
                for positions, index in self._indexes.copy().items()
                if final.keys().isdisjoint(positions)
            }
            return result
        first = dict(zip(reversed(rows), reversed(candidates)))
        keep = [True] * self._nrows
        for i in set(candidates).difference(first.values()):
            keep[i] = False
        return result._keep(keep)

    def append_broadcast(self, template, id_positions, id_rows) -> "ColumnarRelation":
        if not id_rows:
            return self
        checkpoint("append", self._nrows + len(id_rows))
        return type(self)._from_rows(
            self.schema,
            self.row_list() + broadcast_rows(template, id_positions, id_rows),
        )

    def distinct_count(self, attributes: Sequence[str]) -> int:
        checkpoint("distinct_count", self._nrows)
        return len(set(self.tuples(attributes)))

    def distinct_tuples(self, attributes: Sequence[str]) -> list[tuple]:
        checkpoint("distinct_tuples", self._nrows)
        return list(dict.fromkeys(self.tuples(attributes)))

    def claimed_ids(self, attributes, values, id_attributes) -> set[tuple]:
        """One column pass narrows the rows to those holding the first
        value (set membership, which tuple equality implies); tuple
        equality then decides, like a row-set probe."""
        checkpoint("claimed_ids", self._nrows)
        target = tuple(values)
        rows = self.row_list()
        if attributes:
            first = map({target[0]}.__contains__, self.column_values(attributes[0]))
            rows = list(compress(rows, first))
        key_of = tuple_getter(self.schema.indices(attributes))
        ids_of = tuple_getter(self.schema.indices(id_attributes))
        return {ids_of(row) for row in rows if key_of(row) == target}

    def aggregate_by(
        self, keys: Sequence[str], specs: Sequence["AggSpec"]
    ) -> "ColumnarRelation":
        """Grouped SQL aggregation, vectorized: one fold pass.

        The group keys stream through :meth:`tuples` and each aggregate
        argument through :meth:`column_values` — C-speed zips feeding
        the shared fold of :mod:`repro.relational.aggregates` — so the
        world-grouped aggregation of the inline hot path (keys = world
        ids + the user's GROUP BY columns) costs one dictionary pass
        over the flat answer table, never a per-world loop. Output rows
        are distinct by construction (one per key).
        """
        from repro.relational.aggregates import aggregate_rows, default_row

        checkpoint("aggregate_by", self._nrows)
        keys = tuple(keys)
        schema = Schema(keys + tuple(spec.output for spec in specs))
        columns = [
            self.column_values(spec.argument)
            if spec.argument is not None
            else repeat(None, self._nrows)
            for spec in specs
        ]
        args = zip(*columns) if columns else repeat((), self._nrows)
        out = aggregate_rows(self.tuples(keys), args, specs)
        if not out and not keys:
            out = [default_row(specs)]
        return type(self)._from_rows(schema, out)

    def group_worlds(
        self,
        ids: Sequence[str],
        group_attrs: Sequence[str],
        proj_attrs: Sequence[str],
        certain: bool,
    ) -> "ColumnarRelation":
        """Group worlds by their *group_attrs* rows and fold each class's
        *proj_attrs* rows (see :func:`group_worlds_rows`)."""
        checkpoint("group_worlds", self._nrows)
        return type(self)._from_rows(
            Schema(tuple(proj_attrs) + tuple(ids)),
            group_worlds_rows(self, ids, group_attrs, proj_attrs, certain),
        )

    def world_answers(
        self,
        ids: Sequence[str],
        values: Sequence[str],
        world: "ColumnarRelation | Relation",
    ) -> frozenset[Relation]:
        """The distinct per-world answers (see :func:`answers_per_world`)."""
        checkpoint("world_answers", self._nrows)
        return frozenset(answers_per_world(self, ids, values, world).values())

    def left_outer_join_padded(self, other: "ColumnarRelation | Relation") -> "ColumnarRelation":
        other = as_columnar(other)
        checkpoint("left_outer_join_padded", self._nrows + len(other))
        common = self.schema.common(other.schema)
        if not common:
            joined = self.natural_join(other)
            pad_attrs = other.schema.attributes
            pad_row = (PAD,) * len(pad_attrs)
            padded = [row + pad_row for row in ([] if other else self.row_list())]
            return joined.union(
                type(self)._from_rows(joined.schema, padded)
            )
        # One fused build/probe pass: each left row emits its join
        # partners, or one PAD-padded row when dangling — instead of
        # separate ⋈, antijoin and ∪ passes over the whole relation
        # (this sits on the scalar-subquery hot path of DML match
        # plans). Joined rows carry real choice values, padded rows
        # carry PAD on the pad attributes — the two row sets are
        # disjoint unless the data itself contains PAD, so the final
        # dedup pass is the safety net, not the common case.
        left_set = self.schema.as_set()
        buckets = other._index(other.schema.indices(common))
        rest_positions = tuple(
            i for i, a in enumerate(other.schema) if a not in left_set
        )
        schema = Schema(
            self.schema.attributes
            + tuple(other.schema[i] for i in rest_positions)
        )
        rest_of = tuple_getter(rest_positions)
        right_rows = other.row_list()
        pad_row = (PAD,) * len(rest_positions)
        rows: list[Row] = []
        append = rows.append
        for left, key in zip(self.row_list(), self.tuples(common)):
            bucket = buckets.get(key)
            if bucket is None:
                append(left + pad_row)
            else:
                for i in bucket:
                    append(left + rest_of(right_rows[i]))
        return type(self)._deduped(schema, rows)

    # -- helpers used by the world-set machinery ---------------------------------

    def distinct_values(self, attributes: Sequence[str]) -> list[tuple]:
        return self.project(attributes).sorted_rows()

    def active_domain(self) -> frozenset[object]:
        return frozenset(
            value for column in self.columns for value in column
        )


# -- kernel conversion boundary -----------------------------------------------------


def _may_raise(predicate: Predicate) -> bool:
    """Whether evaluating *predicate* can raise: it holds a term other
    than an attribute, a constant or a PAD default."""
    if isinstance(predicate, Comparison):
        safe = (Attr, Const, PadDefault)
        return not isinstance(predicate.left, safe) or not isinstance(
            predicate.right, safe
        )
    if isinstance(predicate, (And, Or)):
        return _may_raise(predicate.left) or _may_raise(predicate.right)
    if isinstance(predicate, Not):
        return _may_raise(predicate.operand)
    return not isinstance(predicate, _Boolean)


def _indices_of(column: Sequence, value: object) -> list[int]:
    """The positions of *column* holding *value*: C-speed ``index`` scans,
    one call per hit."""
    found: list[int] = []
    index = column.index
    start = 0
    try:
        while True:
            start = index(value, start) + 1
            found.append(start - 1)
    except ValueError:
        return found


def as_columnar(relation: "Relation | ColumnarRelation") -> ColumnarRelation:
    """The columnar view of *relation*, cached on the source object."""
    if isinstance(relation, ColumnarRelation):
        return relation
    cached = relation._columnar
    if cached is None:
        cached = ColumnarRelation.from_relation(relation)
        relation._columnar = cached
    return cached


def as_tuple(relation: "Relation | ColumnarRelation") -> Relation:
    """The tuple-engine view of *relation*, cached on the source object."""
    if isinstance(relation, Relation):
        return relation
    return relation.to_relation()


def kernel_unit(kernel: str | None) -> "Relation | ColumnarRelation":
    """The nullary one-row relation {⟨⟩} in the *kernel*'s representation."""
    return kernel_ops(kernel).unit()


def tuples_of(
    relation: "Relation | ColumnarRelation", attributes: Sequence[str]
) -> Iterator[tuple]:
    """C-speed iterator over sub-tuples of *attributes*, either kernel."""
    if isinstance(relation, ColumnarRelation):
        return relation.tuples(attributes)
    if not attributes:
        return repeat((), len(relation.rows))
    return map(tuple_getter(relation.schema.indices(attributes)), relation.rows)


def answers_per_world(
    relation: "Relation | ColumnarRelation",
    ids: Sequence[str],
    values: Sequence[str],
    world: "Relation | ColumnarRelation",
) -> dict[tuple, Relation]:
    """Decode a flat answer table: its *values* rows per *ids* value.

    Every world of the *world* table is kept, an empty relation when no
    row carries its id; with no *ids* the table is the answer of the
    one world {⟨⟩} — or of none, when *world* is the empty world-set.
    One hashing pass over the rows — the tuple and columnar kernels'
    shared decode loop.
    """
    if not ids:
        return {(): as_tuple(relation.project(values))} if len(world) else {}
    grouped: dict[tuple, set[tuple]] = {
        row: set() for row in tuples_of(world, ids)
    }
    for world_id, value in zip(
        tuples_of(relation, ids), tuples_of(relation, values)
    ):
        bucket = grouped.get(world_id)
        if bucket is None:
            grouped[world_id] = {value}
        else:
            bucket.add(value)
    schema = Schema(values)
    return {
        world_id: Relation._raw(schema, frozenset(rows))
        for world_id, rows in grouped.items()
    }


def group_worlds_rows(
    relation: "Relation | ColumnarRelation",
    ids: Sequence[str],
    group_attrs: Sequence[str],
    proj_attrs: Sequence[str],
    certain: bool,
) -> list[Row]:
    """The rows of group-worlds-by over a flat answer table.

    Each world (its *ids* value) is fingerprinted by the set of its
    *group_attrs* rows; worlds with equal fingerprints form a class
    whose *proj_attrs* rows fold by union, or by intersection when
    *certain*. Every world then holds its class's folded rows:
    ``proj_attrs + ids`` rows, distinct. One hashing pass over the
    answer, O(worlds × rows) rather than the pairwise equivalence of
    Figure 6 — the tuple and columnar kernels' shared loop.
    """
    per_world_groups: dict[tuple, set[tuple]] = {}
    per_world_rows: dict[tuple, set[tuple]] = {}
    for world_id, group_row, proj_row in zip(
        tuples_of(relation, ids),
        tuples_of(relation, group_attrs),
        tuples_of(relation, proj_attrs),
    ):
        groups = per_world_groups.get(world_id)
        if groups is None:
            per_world_groups[world_id] = {group_row}
            per_world_rows[world_id] = {proj_row}
        else:
            groups.add(group_row)
            per_world_rows[world_id].add(proj_row)

    folded: dict[frozenset, set[tuple]] = {}
    members: dict[tuple, frozenset] = {}
    for world_id, fingerprint_rows in per_world_groups.items():
        fingerprint = frozenset(fingerprint_rows)
        members[world_id] = fingerprint
        rows = per_world_rows[world_id]
        if fingerprint not in folded:
            folded[fingerprint] = set(rows)
        elif certain:
            folded[fingerprint] &= rows
        else:
            folded[fingerprint] |= rows
    return [
        value + world_id
        for world_id, fingerprint in members.items()
        for value in folded[fingerprint]
    ]


# -- kernel registry ----------------------------------------------------------------


def _load_array_kernel() -> KernelOps:
    # Deferred import: the array kernel needs numpy, which is optional;
    # array_kernel_ops raises a clear EvaluationError when it is absent.
    from repro.relational.array_kernel import array_kernel_ops

    return array_kernel_ops()


register_kernel(
    "columnar",
    lambda: KernelOps(
        "columnar", as_columnar, ColumnarRelation._from_rows, ColumnarRelation.unit
    ),
)
register_kernel(
    "tuple", lambda: KernelOps("tuple", as_tuple, Relation._raw, Relation.unit)
)
register_kernel("array", _load_array_kernel)
