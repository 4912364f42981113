"""Immutable set-semantics relations and their algebraic operations.

A :class:`Relation` is a schema plus a frozen set of rows (value tuples
aligned positionally with the schema). All operations are pure and
return new relations. The operation set covers the six base operators of
Section 4.1 (σ, π, δ, ×, ∪, −), the derived operators ∩, ⋈ and ÷, the
semijoin, and the padded left outer join ``=⊳⊲`` of Remark 5.5.

Joins on explicit equality conditions and the natural join use hash
partitioning so that the translation of Figure 6 (which is join-heavy on
world-id attributes) evaluates in near-linear time per operator. Because
relations are immutable, every relation lazily caches

* per-attribute-set hash indexes (:meth:`Relation._index`), shared by
  the hash joins, semijoins and the constant-assignment selection that
  decodes inlined representations world by world — repeated joins on
  the same world-id columns build the partition once;
* its canonical hash, so worlds containing large relations can enter
  world-sets without re-sorting columns on every membership test;
* its display order (:meth:`Relation.sorted_rows`), so an answer the
  result memo serves again is sorted once.

Row tuples are *interned* in a bounded pool: the same value tuple
loaded twice (or appearing in many decoded worlds) is one object, which
makes the set algebra's equality checks short-circuit on identity and
shares memory across the many per-world copies an explicit world-set
drags around.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError
from repro.relational.guards import checkpoint
from repro.relational.pad import PAD, row_sort_key
from repro.relational.predicates import Predicate
from repro.relational.schema import Schema

Row = tuple

#: Bound on the row intern pool; beyond it rows pass through uninterned.
_INTERN_LIMIT = 1 << 20

_INTERNED: dict[Row, Row] = {}

#: Cell types for which type-identical equality implies interchangeability.
_SCALAR_TYPES = frozenset((int, float, str, bool, bytes, type(None)))


def clear_intern_pool() -> None:
    """Empty the process-global row intern pool.

    Interning is a pure optimization (see :func:`intern_row`), so
    clearing never affects correctness — it releases the canonical row
    objects a long-lived process has accumulated across sessions.
    ``ISQLSession.close()`` calls this.
    """
    _INTERNED.clear()


def intern_row(values: Row) -> Row:
    """Return the canonical object for the row tuple *values*.

    When the pool fills it is cleared wholesale (a generational reset):
    interning is purely an optimization, so dropping canonical objects
    only costs sharing, never correctness — and a reset both bounds
    memory when a large throwaway dataset passed through and keeps
    interning effective for whatever data comes next.
    """
    cached = _INTERNED.get(values)
    if cached is not None:
        if cached is values:
            return values
        # Python equality crosses types (1 == 1.0 == True), and for
        # container cells equal types can still hide differently typed
        # contents ((1,) vs (1.0,)). Substituting the canonical row is
        # transparent only when every cell is the same object or a
        # scalar of the identical type; otherwise keep the caller's.
        for canonical, value in zip(cached, values):
            if canonical is value:
                continue
            if type(canonical) is not type(value) or type(value) not in _SCALAR_TYPES:
                return values
        return cached
    if len(_INTERNED) >= _INTERN_LIMIT:
        _INTERNED.clear()
    _INTERNED[values] = values
    return values


def oriented_equality_pairs(
    left_attrs: frozenset[str], pairs: Sequence[tuple[str, str]]
) -> list[tuple[str, str]] | None:
    """Orient attr=attr equality pairs as (left, right), or None.

    Shared by both kernels' θ-joins: each pair must have exactly one
    side among *left_attrs*; otherwise the predicate cannot drive a
    hash equi-join and the caller falls back to σ(×).
    """
    oriented: list[tuple[str, str]] = []
    for a, b in pairs:
        if a in left_attrs and b not in left_attrs:
            oriented.append((a, b))
        elif b in left_attrs and a not in left_attrs:
            oriented.append((b, a))
        else:
            return None
    return oriented


def check_join_pairs_cover_shared(
    left_attrs: frozenset[str], right_schema: Schema, pairs: Sequence[tuple[str, str]]
) -> None:
    """``join_on`` precondition, shared by both kernels: every attribute
    name on both sides must be joined positionally via an ``(a, a)``
    pair — otherwise the output would carry a duplicate column name."""
    listed = set(tuple(pairs))
    for attr in right_schema:
        if attr in left_attrs and (attr, attr) not in listed:
            raise SchemaError(
                f"join_on operands share attribute {attr!r} without an "
                "explicit (a, a) key pair"
            )


def tuple_getter(positions: Sequence[int]) -> Callable[[Row], tuple]:
    """A C-speed extractor mapping a row to the tuple of *positions*."""
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions)


def row_rewriter(settings) -> Callable[[Row], Row]:
    """Row → row with the ``masked_assign`` *settings* applied.

    Each setting is ``(position, "const", value)`` or ``(position,
    "col", source_position)``; every source reads the pre-update row.
    """

    def rewrite(row: Row) -> Row:
        new_row = list(row)
        for position, kind, payload in settings:
            new_row[position] = payload if kind == "const" else row[payload]
        return tuple(new_row)

    return rewrite


def scattered_rows(schema, setters, attributes, matches_schema, matches, rows):
    """The rows of a keyed ``scatter_update``, or None when none is hit.

    Build side, the *matches* (aligned with *matches_schema*): each
    one's rewrite is computed once and filed under its *attributes*
    sub-tuple. Probe side, one pass over the table's *rows*: a row
    whose key is filed is rebuilt once per match filed under it, and
    every column the setters leave keeps the row's value. When the key
    is the schema's leading columns, in order, and holds every set
    column — match-plan DML on a stored table: value attributes ahead
    of the id columns — a match files its rewritten key and a hit row
    is that key plus the row's tail. Otherwise a match files its setter
    values and a hit row is one gather over ``row + values``. The rows
    may repeat (a rewrite can collide with a kept row); callers
    deduplicate.
    """
    pairs = [(schema.index(attribute), function) for attribute, function in setters]
    k = len(attributes)
    leading = schema.attributes[:k] == attributes and all(p < k for p, _ in pairs)
    if not leading:
        key_of = tuple_getter(schema.indices(attributes))  # validates the key
    match_key = tuple_getter(matches_schema.indices(attributes))
    rewrites: dict[tuple, list[tuple]] = {}
    for match in matches:
        key = match_key(match)
        if leading:
            new = list(key)
            for position, function in pairs:
                new[position] = function(match)
        else:
            new = [function(match) for _, function in pairs]
        rewrites.setdefault(key, []).append(tuple(new))
    if not rewrites:
        return None
    out: list[Row] = []
    append = out.append
    hit = False
    if leading:
        for row in rows:
            hits = rewrites.get(row[:k])
            if hits is None:
                append(row)
            else:
                hit = True
                tail = row[k:]
                for new_key in hits:
                    append(new_key + tail)
        return out if hit else None
    width = len(schema)
    slot = {position: width + j for j, (position, _) in enumerate(pairs)}
    rebuild = tuple_getter([slot.get(p, p) for p in range(width)])
    for row in rows:
        hits = rewrites.get(key_of(row))
        if hits is None:
            append(row)
        else:
            hit = True
            for values in hits:
                append(rebuild(row + values))
    return out if hit else None


def written_constant(settings) -> tuple[int, object] | None:
    """``(position, value)``: a constant the ``masked_assign`` *settings*
    leave in every rewritten row, or None when each position they
    write ends with a column copy. A later setting of a position
    overrides an earlier one, as in :func:`row_rewriter`."""
    final = {position: (kind, payload) for position, kind, payload in settings}
    for position, (kind, payload) in final.items():
        if kind == "const":
            return position, payload
    return None


def broadcast_rows(template, id_positions, id_rows) -> list[Row]:
    """*template* once per *id_rows* entry, ids patched in at *id_positions*."""
    if not template:
        return [()] * len(id_rows)
    columns: list = [repeat(value, len(id_rows)) for value in template]
    for j, position in enumerate(id_positions):
        columns[position] = map(itemgetter(j), id_rows)
    return list(zip(*columns))


def _coerce_row(schema: Schema, row: object) -> Row:
    """Normalize a dict / sequence row to an interned positional tuple."""
    if isinstance(row, dict):
        missing = [a for a in schema if a not in row]
        if missing:
            raise SchemaError(f"row {row!r} is missing attributes {missing}")
        extra = [key for key in row if key not in schema]
        if extra:
            raise SchemaError(f"row {row!r} has unknown attributes {extra}")
        return intern_row(tuple(row[a] for a in schema))
    values = tuple(row)  # type: ignore[arg-type]
    if len(values) != len(schema):
        raise SchemaError(
            f"row {values!r} has {len(values)} values; schema {list(schema)} "
            f"expects {len(schema)}"
        )
    return intern_row(values)


class Relation:
    """An immutable relation: a schema and a frozen set of rows."""

    __slots__ = (
        "schema", "_rows", "_indexes", "_hash", "_sorted", "_columnar", "_array"
    )

    def __init__(self, schema: Schema | Sequence[str], rows: Iterable[object] = ()) -> None:
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.schema = schema
        self._rows: frozenset[Row] | None = frozenset(
            _coerce_row(schema, row) for row in rows
        )
        self._indexes: dict[tuple[int, ...], dict[tuple, tuple[Row, ...]]] = {}
        self._hash: int | None = None
        self._sorted: tuple[Row, ...] | None = None
        self._columnar = None
        self._array = None

    @property
    def rows(self) -> frozenset[Row]:
        """The row set; materialized lazily from a kernel twin.

        A relation committed from a columnar/array kernel result
        (:meth:`ColumnarRelation.to_relation`) starts with its rows
        unmaterialized — the kernel twin holds the data as column
        storage, and the tuple set is built only when something actually
        reads it (world decoding, the tuple kernel, equality). Queries
        that stay in one kernel never pay the conversion.
        """
        rows = self._rows
        if rows is None:
            twin = self._array if self._array is not None else self._columnar
            rows = self._rows = twin.rows
        return rows

    @classmethod
    def _raw(cls, schema: Schema, rows: Iterable[Row]) -> "Relation":
        """Internal fast constructor: *rows* must already be aligned tuples."""
        relation = object.__new__(cls)
        relation.schema = schema
        relation._rows = rows if isinstance(rows, frozenset) else frozenset(rows)
        relation._indexes = {}
        relation._hash = None
        relation._sorted = None
        relation._columnar = None
        relation._array = None
        return relation

    @classmethod
    def _from_kernel(cls, schema: Schema) -> "Relation":
        """A relation whose rows materialize lazily from a kernel twin.

        The caller must attach the twin (``_columnar`` or ``_array``)
        before the relation is used — :meth:`rows` reads through it.
        """
        relation = object.__new__(cls)
        relation.schema = schema
        relation._rows = None
        relation._indexes = {}
        relation._hash = None
        relation._sorted = None
        relation._columnar = None
        relation._array = None
        return relation

    def clear_caches(self) -> None:
        """Drop the lazily built hash indexes, hash, row order and
        kernel twins.

        All are rebuilt on demand. The explicit backend's
        ``close()`` calls this on the relations of its materialized
        worlds; the inline backend does not, because pool siblings
        share its tables by reference and clearing would make each of
        them convert again. A lazily committed row set materializes
        first — the twins being dropped are what it would have read
        through.
        """
        if self._rows is None:
            _ = self.rows
        self._indexes = {}
        self._hash = None
        self._sorted = None
        self._columnar = None
        self._array = None

    @staticmethod
    def _coerce_operand(other: "Relation") -> "Relation":
        """Accept a ColumnarRelation operand by converting it (cached).

        Mixed-kernel operand pairs arise at the kernel boundary (e.g. a
        literal world table inside a translated plan whose base tables
        run columnar); each side of the boundary coerces toward itself.
        """
        return other if isinstance(other, Relation) else other.to_relation()

    def _index(self, positions: tuple[int, ...]) -> dict[tuple, tuple[Row, ...]]:
        """Hash partition of the rows by the attribute *positions* (cached)."""
        cached = self._indexes.get(positions)
        if cached is None:
            key_of = tuple_getter(positions)
            groups: dict[tuple, list[Row]] = {}
            for row in self.rows:
                groups.setdefault(key_of(row), []).append(row)
            cached = {key: tuple(rows) for key, rows in groups.items()}
            self._indexes[positions] = cached
        return cached

    # -- constructors --------------------------------------------------------

    @staticmethod
    def empty(attributes: Sequence[str]) -> "Relation":
        """An empty relation over *attributes*."""
        return Relation(attributes, ())

    @staticmethod
    def unit() -> "Relation":
        """The nullary relation {⟨⟩}: one empty tuple, zero attributes.

        This is the world table ``W = {⟨⟩}`` that encodes a single
        (complete) world in Definition 5.1.
        """
        return Relation((), ((),))

    @staticmethod
    def from_named_rows(rows: Iterable[Mapping[str, object]], attributes: Sequence[str]) -> "Relation":
        """Build a relation from dict rows with an explicit attribute order."""
        return Relation(attributes, rows)

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __contains__(self, row: object) -> bool:
        return row in self.rows

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same attribute set and same tuples.

        Attribute *order* is irrelevant (named perspective): the rows of
        the other relation are compared after aligning its columns.
        """
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema == other.schema:
            return self.rows == other.rows
        if not self.schema.same_attributes(other.schema):
            return False
        aligned = other._reordered(self.schema.attributes)
        return self.rows == aligned.rows

    def __hash__(self) -> int:
        if self._hash is None:
            canonical_attrs = tuple(sorted(self.schema.attributes))
            canonical = self._reordered(canonical_attrs) if canonical_attrs != self.schema.attributes else self
            self._hash = hash((canonical_attrs, canonical.rows))
        return self._hash

    def __repr__(self) -> str:
        return f"Relation({list(self.schema)!r}, {len(self.rows)} rows)"

    def sorted_rows(self) -> list[Row]:
        """Rows in a deterministic display order (a fresh list; the
        order is computed once per relation)."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.rows, key=row_sort_key))
        return list(self._sorted)

    def named_rows(self) -> list[dict[str, object]]:
        """Rows as attribute-name dictionaries (deterministic order)."""
        attrs = self.schema.attributes
        return [dict(zip(attrs, row)) for row in self.sorted_rows()]

    def _reordered(self, attributes: Sequence[str]) -> "Relation":
        """The same relation with columns in the given order."""
        positions = self.schema.indices(attributes)
        if positions == tuple(range(len(self.schema))):
            return self
        getter = tuple_getter(positions)
        return Relation._raw(Schema(attributes), map(getter, self.rows))

    # -- unary operators -------------------------------------------------------

    def select(self, predicate: Predicate) -> "Relation":
        """Selection σ_φ: keep rows satisfying *predicate*."""
        checkpoint("select", len(self.rows))
        check = predicate.bind(self.schema)
        return Relation._raw(self.schema, (row for row in self.rows if check(row)))

    def select_values(self, assignment: Mapping[str, object]) -> "Relation":
        """Selection σ_{A=v,...} for a constant assignment.

        Served from the cached hash index on the assignment's attributes,
        so decoding an inlined representation world by world costs one
        partition pass rather than one scan per world.
        """
        positions = self.schema.indices(assignment)
        key = tuple(assignment.values())
        return Relation._raw(self.schema, self._index(positions).get(key, ()))

    def project(self, attributes: Sequence[str]) -> "Relation":
        """Projection π_U with set-semantics deduplication."""
        checkpoint("project", len(self.rows))
        schema = self.schema.project(attributes)
        positions = self.schema.indices(attributes)
        if positions == tuple(range(len(self.schema))):
            return Relation._raw(schema, self.rows)
        getter = tuple_getter(positions)
        return Relation._raw(schema, map(getter, self.rows))

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Renaming δ_{old→new}; value tuples are unchanged."""
        return Relation._raw(self.schema.rename(mapping), self.rows)

    def extend(self, attribute: str, function: Callable[[dict[str, object]], object]) -> "Relation":
        """Append a computed attribute (used by I-SQL expressions).

        *function* receives the row as a dict and returns the new value.
        Not part of world-set algebra proper; the Figure 6 translation
        only ever copies existing attributes (see :meth:`copy_attribute`).
        """
        if attribute in self.schema:
            raise SchemaError(f"attribute {attribute!r} already exists")
        checkpoint("extend", len(self.rows))
        attrs = self.schema.attributes
        schema = Schema(attrs + (attribute,))
        rows = (row + (function(dict(zip(attrs, row))),) for row in self.rows)
        return Relation(schema, rows)

    def copy_attribute(self, source: str, target: str) -> "Relation":
        """π_{*, source as target}: duplicate a column under a new name.

        This is the ``π_{*,Dep as V_Dep}`` step of Example 5.6.
        """
        if target in self.schema:
            raise SchemaError(f"attribute {target!r} already exists")
        position = self.schema.index(source)
        schema = Schema(self.schema.attributes + (target,))
        return Relation._raw(schema, (row + (row[position],) for row in self.rows))

    # -- binary operators --------------------------------------------------------

    def _require_union_compatible(self, other: "Relation", op: str) -> "Relation":
        other = Relation._coerce_operand(other)
        if not self.schema.same_attributes(other.schema):
            raise SchemaError(
                f"{op} operands must have equal attribute sets; "
                f"got {list(self.schema)} vs {list(other.schema)}"
            )
        return other._reordered(self.schema.attributes)

    def union(self, other: "Relation") -> "Relation":
        """Set union ∪ (named perspective: equal attribute sets)."""
        other = self._require_union_compatible(other, "union")
        checkpoint("union", len(self.rows) + len(other.rows))
        return Relation._raw(self.schema, self.rows | other.rows)

    def difference(self, other: "Relation") -> "Relation":
        """Set difference −."""
        other = self._require_union_compatible(other, "difference")
        checkpoint("difference", len(self.rows) + len(other.rows))
        return Relation._raw(self.schema, self.rows - other.rows)

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection ∩."""
        other = self._require_union_compatible(other, "intersection")
        checkpoint("intersection", len(self.rows) + len(other.rows))
        return Relation._raw(self.schema, self.rows & other.rows)

    def product(self, other: "Relation") -> "Relation":
        """Cartesian product ×; attribute sets must be disjoint."""
        other = Relation._coerce_operand(other)
        checkpoint("product", len(self.rows) + len(other.rows))
        schema = self.schema.concat(other.schema)
        rows = (left + right for left in self.rows for right in other.rows)
        return Relation._raw(schema, rows)

    def natural_join(self, other: "Relation") -> "Relation":
        """Natural join ⋈ on all shared attribute names (hash-based)."""
        other = Relation._coerce_operand(other)
        common = self.schema.common(other.schema)
        return self.join_on(other, [(a, a) for a in common])

    def equi_join(self, other: "Relation", pairs: Sequence[tuple[str, str]]) -> "Relation":
        """θ-join on a conjunction of cross-schema equalities (hash-based).

        *pairs* lists ``(left_attr, right_attr)`` equalities. Attribute
        sets must be disjoint (rename first, as the paper does with its
        positional qualifiers like ``1.CID``).
        """
        other = Relation._coerce_operand(other)
        self.schema.concat(other.schema)  # equi-join requires disjoint schemas
        return self.join_on(other, pairs)

    def join_on(self, other: "Relation", pairs: Sequence[tuple[str, str]]) -> "Relation":
        """Hash join on explicit ``(left_attr, right_attr)`` key pairs.

        The one build/probe loop behind :meth:`natural_join` (all shared
        names as ``(a, a)`` pairs) and :meth:`equi_join` (disjoint
        schemas); the tuple-kernel counterpart of
        ``ColumnarRelation.join_on``. Shared attribute names must be
        listed as ``(a, a)`` pairs and join positionally; cross-named
        equalities keep both columns. The output schema is the left
        schema followed by the right attributes not named on the left.
        This also fuses σ_{eq}(R × S) plans into one hash join — the
        product is never materialized.
        """
        other = Relation._coerce_operand(other)
        if not pairs:
            return self.product(other)
        checkpoint("join_on", len(self.rows) + len(other.rows))
        left_set = self.schema.as_set()
        check_join_pairs_cover_shared(left_set, other.schema, pairs)
        left_key = self.schema.indices(a for a, _ in pairs)
        right_key = other.schema.indices(b for _, b in pairs)
        right_rest = tuple(
            i for i, a in enumerate(other.schema) if a not in left_set
        )
        schema = Schema(
            self.schema.attributes + tuple(other.schema[i] for i in right_rest)
        )
        buckets = other._index(right_key)
        key_of = tuple_getter(left_key)
        if not right_rest:
            # Right side is pure key: the join degenerates to a semijoin.
            return Relation._raw(
                schema, (row for row in self.rows if key_of(row) in buckets)
            )
        rest_of = tuple_getter(right_rest)

        def generate() -> Iterator[Row]:
            empty: tuple[Row, ...] = ()
            for left in self.rows:
                for right in buckets.get(key_of(left), empty):  # pragma: no branch
                    yield left + rest_of(right)

        return Relation._raw(schema, generate())

    def theta_join(self, other: "Relation", predicate: Predicate) -> "Relation":
        """θ-join with an arbitrary predicate over the concatenated schema."""
        other = Relation._coerce_operand(other)
        pairs = predicate.equality_pairs()
        if pairs is not None:
            oriented = oriented_equality_pairs(self.schema.as_set(), pairs)
            if oriented is not None:
                return self.equi_join(other, oriented)
        return self.product(other).select(predicate)

    def semijoin(self, other: "Relation") -> "Relation":
        """Left semijoin ⋉ on shared attributes: rows with a join partner."""
        other = Relation._coerce_operand(other)
        common = self.schema.common(other.schema)
        if not common:
            return self if other.rows else Relation(self.schema)
        checkpoint("semijoin", len(self.rows) + len(other.rows))
        key_of = tuple_getter(self.schema.indices(common))
        right_keys = other._index(other.schema.indices(common)).keys()
        return Relation._raw(
            self.schema, (row for row in self.rows if key_of(row) in right_keys)
        )

    def antijoin(self, other: "Relation") -> "Relation":
        """Left antijoin: rows of self with no join partner in other."""
        other = Relation._coerce_operand(other)
        common = self.schema.common(other.schema)
        if not common:
            return Relation(self.schema) if other.rows else self
        checkpoint("antijoin", len(self.rows) + len(other.rows))
        key_of = tuple_getter(self.schema.indices(common))
        right_keys = other._index(other.schema.indices(common)).keys()
        return Relation._raw(
            self.schema, (row for row in self.rows if key_of(row) not in right_keys)
        )

    def divide(self, other: "Relation") -> "Relation":
        """Relational division ÷.

        ``R[D ∪ V] ÷ S[V]`` returns the D-tuples d such that ⟨d, v⟩ ∈ R
        for *every* v ∈ S. Division by an empty relation returns the
        projection π_D(R) (the universally quantified condition is
        vacuously true), matching the classical definition
        π_D(R) − π_D((π_D(R) × S) − R).
        """
        other = Relation._coerce_operand(other)
        divisor_attrs = other.schema.as_set()
        if not divisor_attrs <= self.schema.as_set():
            raise SchemaError(
                f"division requires divisor attributes {sorted(divisor_attrs)} "
                f"⊆ dividend attributes {list(self.schema)}"
            )
        checkpoint("divide", len(self.rows) + len(other.rows))
        keep = tuple(a for a in self.schema if a not in divisor_attrs)
        quotient_of = tuple_getter(self.schema.indices(keep))
        divisor_of = tuple_getter(self.schema.indices(other.schema.attributes))
        required = frozenset(other.rows)
        need = len(required)

        seen: dict[tuple, set[tuple]] = {}
        for row in self.rows:
            seen.setdefault(quotient_of(row), set()).add(divisor_of(row))
        return Relation._raw(
            Schema(keep),
            (d for d, vs in seen.items() if len(vs) >= need and required <= vs),
        )

    # -- DML kernel ops: mask / scatter -------------------------------------------

    def mask(
        self, matched: "Relation", attributes: Sequence[str] | None = None
    ) -> "Relation":
        """Boolean-keep by hashed key lookup: drop the rows *matched* names.

        Keeps exactly the rows whose *attributes* sub-tuple does **not**
        occur in π_attributes(*matched*); *attributes* defaults to the
        whole schema (full-row identity). This is the flat-table form of
        the Section 3 delete rule: the match plan's answer, keyed by
        world ids plus the row values, masks the id-expanded table in
        one hashed pass — the antijoin specialized to an explicit key so
        the two operands may share value columns under different roles.
        """
        matched = Relation._coerce_operand(matched)
        checkpoint("mask", len(self.rows) + len(matched.rows))
        attrs = (
            tuple(attributes) if attributes is not None else self.schema.attributes
        )
        key_of = tuple_getter(self.schema.indices(attrs))
        drop = frozenset(
            map(tuple_getter(matched.schema.indices(attrs)), matched.rows)
        )
        if not drop:
            return self
        return Relation._raw(
            self.schema, (row for row in self.rows if key_of(row) not in drop)
        )

    def scatter_update(
        self,
        matches: "Relation",
        setters: Sequence[tuple[str, Callable[[Row], object]]],
        attributes: Sequence[str] | None = None,
    ) -> "Relation":
        """Rewrite the rows whose *attributes* sub-tuple a match names.

        Each row whose π_attributes occurs in π_attributes(*matches*) is
        replaced, once per match with that key, by the row with every
        ``(attribute, function)`` of *setters* overridden by
        ``function(m)`` (``m`` as a positional tuple aligned with
        *matches*' schema, so value terms bound against the match plan's
        answer schema read the *pre-update* row); columns outside
        *attributes* keep the row's values. *attributes* defaults to the
        whole schema, as in :meth:`mask`. Only rows present are
        rewritten: a match naming no row contributes nothing. This is
        the flat-table form of the Section 3 update rule; the result is
        deduplicated (a rewrite may collide with a kept row).
        """
        matches = Relation._coerce_operand(matches)
        checkpoint("scatter_update", len(self.rows) + len(matches.rows))
        attrs = (
            tuple(attributes) if attributes is not None else self.schema.attributes
        )
        rows = scattered_rows(
            self.schema, setters, attrs, matches.schema, matches.rows, self.rows
        )
        return self if rows is None else Relation._raw(self.schema, rows)

    # -- DML batch kernel ops: row masks ------------------------------------------
    #
    # The batch pipeline of ``InlineBackend.run_dml_batch`` runs on these
    # ops on every kernel. A mask is a per-row boolean sequence aligned
    # with one relation's row order (here: iteration over the immutable
    # ``rows`` set) and only ever applies to the relation that built it.
    # The tuple kernel evaluates bound row closures; the columnar and
    # array kernels override each op with column passes.

    def predicate_mask(self, predicate: Predicate) -> list[bool]:
        """Which rows satisfy *predicate*, as a mask."""
        checkpoint("predicate_mask", len(self.rows))
        return list(map(predicate.bind(self.schema), self.rows))

    def compress(self, keep) -> "Relation":
        """The rows *keep* marks (self when it marks all of them)."""
        checkpoint("compress", len(self.rows))
        if all(keep):
            return self
        return Relation._raw(self.schema, compress(self.rows, keep))

    def masked_assign(self, mask, settings) -> "Relation":
        """The masked rows rewritten by *settings* (see :func:`row_rewriter`).

        Self when the mask selects nothing; rewritten rows that collide
        with other rows collapse (set semantics).
        """
        checkpoint("masked_assign", len(self.rows))
        if not any(mask):
            return self
        rewrite = row_rewriter(settings)
        return Relation._raw(
            self.schema,
            (rewrite(row) if hit else row for row, hit in zip(self.rows, mask)),
        )

    def append_broadcast(self, template, id_positions, id_rows) -> "Relation":
        """Append *template* once per *id_rows* entry (see :func:`broadcast_rows`).

        The caller guarantees the additions are not present yet.
        """
        if not id_rows:
            return self
        checkpoint("append", len(self.rows) + len(id_rows))
        additions = broadcast_rows(template, id_positions, id_rows)
        return Relation._raw(self.schema, self.rows.union(additions))

    def distinct_count(self, attributes: Sequence[str]) -> int:
        """The number of distinct *attributes* sub-tuples."""
        checkpoint("distinct_count", len(self.rows))
        key_of = tuple_getter(self.schema.indices(attributes))
        return len(set(map(key_of, self.rows)))

    def distinct_tuples(self, attributes: Sequence[str]) -> list[tuple]:
        """The distinct *attributes* sub-tuples, in first-occurrence order."""
        checkpoint("distinct_tuples", len(self.rows))
        key_of = tuple_getter(self.schema.indices(attributes))
        return list(dict.fromkeys(map(key_of, self.rows)))

    def claimed_ids(
        self,
        attributes: Sequence[str],
        values: Sequence[object],
        id_attributes: Sequence[str],
    ) -> set[tuple]:
        """The *id_attributes* sub-tuples of rows whose *attributes* equal *values*.

        Equality is tuple equality, the same test a row-set membership
        probe makes.
        """
        checkpoint("claimed_ids", len(self.rows))
        key_of = tuple_getter(self.schema.indices(attributes))
        ids_of = tuple_getter(self.schema.indices(id_attributes))
        target = tuple(values)
        return {ids_of(row) for row in self.rows if key_of(row) == target}

    def aggregate_by(self, keys: Sequence[str], specs: Sequence["AggSpec"]) -> "Relation":
        """Grouped SQL aggregation: one row per distinct *keys* value.

        The I-SQL extension beyond pure relational algebra (like
        repair-by-key): rows are grouped by *keys* and each
        :class:`~repro.relational.aggregates.AggSpec` folds its argument
        column within the group, with the engine's set-based value
        semantics (``count`` distinct, ``sum``/``avg`` over the distinct
        rows). A *global* aggregate (``keys = ()``) over an empty
        relation yields the single default row — SQL's one empty group.
        """
        from repro.relational.aggregates import aggregate_rows, default_row

        checkpoint("aggregate_by", len(self.rows))
        keys = tuple(keys)
        schema = Schema(keys + tuple(spec.output for spec in specs))
        rows = list(self.rows)
        key_of = (
            tuple_getter(self.schema.indices(keys)) if keys else (lambda row: ())
        )
        positions = [
            self.schema.index(spec.argument) if spec.argument is not None else None
            for spec in specs
        ]
        args = (
            tuple(row[p] if p is not None else None for p in positions)
            for row in rows
        )
        out = aggregate_rows(map(key_of, rows), args, specs)
        if not out and not keys:
            out = [default_row(specs)]
        return Relation._raw(schema, out)

    def group_worlds(
        self,
        ids: Sequence[str],
        group_attrs: Sequence[str],
        proj_attrs: Sequence[str],
        certain: bool,
    ) -> "Relation":
        """Group worlds by their *group_attrs* rows and fold each class's
        *proj_attrs* rows (see ``columnar.group_worlds_rows``)."""
        from repro.relational.columnar import group_worlds_rows

        checkpoint("group_worlds", len(self.rows))
        return Relation._raw(
            Schema(tuple(proj_attrs) + tuple(ids)),
            group_worlds_rows(self, ids, group_attrs, proj_attrs, certain),
        )

    def world_answers(
        self, ids: Sequence[str], values: Sequence[str], world: "Relation"
    ) -> frozenset["Relation"]:
        """The distinct per-world answers: this flat answer table's
        *values* rows grouped by world id (see
        ``columnar.answers_per_world``), empty worlds of *world* kept."""
        from repro.relational.columnar import answers_per_world

        checkpoint("world_answers", len(self.rows))
        return frozenset(answers_per_world(self, ids, values, world).values())

    def left_outer_join_padded(self, other: "Relation") -> "Relation":
        """The modified left outer join ``=⊳⊲`` of Remark 5.5.

        ``R =⊳⊲ S = (R ⋈ S) ∪ ((R − R ⋉ S) × {⟨c,…,c⟩})`` — dangling
        R-rows are padded with the special constant :data:`PAD` on S's
        non-shared attributes.
        """
        other = Relation._coerce_operand(other)
        checkpoint("left_outer_join_padded", len(self.rows) + len(other.rows))
        joined = self.natural_join(other)
        dangling = self.difference(self.semijoin(other))
        pad_attrs = tuple(a for a in other.schema if a not in self.schema.as_set())
        pad_row = (PAD,) * len(pad_attrs)
        # joined's schema is self's attributes followed by pad_attrs.
        padded = Relation(
            joined.schema,
            (row + pad_row for row in dangling._reordered(self.schema.attributes).rows),
        )
        return joined.union(padded)

    # -- helpers used by the world-set machinery ---------------------------------

    def distinct_values(self, attributes: Sequence[str]) -> list[tuple]:
        """Distinct value combinations of *attributes*, in stable order."""
        return self.project(attributes).sorted_rows()

    def active_domain(self) -> frozenset[object]:
        """All values appearing anywhere in the relation."""
        return frozenset(value for row in self.rows for value in row)
