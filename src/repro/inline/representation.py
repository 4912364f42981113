"""The inlined representation of world-sets (Definition 5.1).

An inlined representation T = ⟨R₁ᵀ[U₁ ∪ V], …, R_kᵀ[U_k ∪ V], W[V]⟩
stores all instances of each relation across all worlds in one table,
tagged with world-identifier attributes V, plus a world table W of all
world ids. ``rep(T)`` decodes the represented world-set:

    rep(T) = { ⟨π_{U₁}(σ_{V=w}(R₁ᵀ)), …⟩ | w ∈ W }

The world table may contain ids that appear in no table — this encodes
worlds with empty relations; an empty W encodes the empty world-set,
and a nullary W = {⟨⟩} encodes a single (complete) world.

Tables may carry a *subset* of the id attributes V (the lazy §5.3
interpretation): a table without id attributes holds a relation that is
the same in every world, and a table tagged with V_i ⊆ V varies only
with those ids — its instance in world w is σ_{V_i = π_{V_i}(w)}. The
strict Definition 5.1 form (every table carries all of V) is a special
case; :meth:`strict` converts to it. The lazy form is what keeps an
inline-backed session succinct: registering a relation or materializing
a world-uniform answer never replicates rows per world.

W is always stored as a :class:`FactoredWorld`: a product of small
factor relations over disjoint id subsets — the Section 3 reading of
independent choices as independent dimensions. A joint world table is
the one-factor case (the constructor wraps a plain :class:`Relation`),
W = {⟨⟩} is zero factors and the empty world-set one empty factor, so
every consumer reads one encoding. The factored form is the general
one: ``repair by key`` mints one single-attribute factor per violating
key group, and registers that attribute as *wild*: in a wild column
the padding constant ``PAD`` acts as a wildcard (the row is in every
world of that factor). That keeps a repaired table at
Σ-of-group-sizes rows where a joint table pays the ∏-of-group-sizes
product (2²⁰ world ids for the nightly census repair). Consumers that
need the joint table (decoding, pairing, the strict form) go through
:attr:`world_table`, which materializes the product lazily; the hot
paths (validation, counting, DML) operate factor by factor and never
build it.
"""

from __future__ import annotations

from itertools import chain, count, product
from typing import Iterable, Mapping

from repro.errors import RepresentationError
from repro.inline.factors import FactoredWorld
from repro.relational.columnar import (
    as_tuple,
    kernel_ops,
    tuples_of,
)
from repro.relational.database import Database
from repro.relational.guards import checkpoint
from repro.relational.pad import PAD, row_sort_key
from repro.relational.relation import Relation, tuple_getter
from repro.relational.schema import Schema, is_id_attribute
from repro.worlds.world import World
from repro.worlds.worldset import WorldSet

#: Reserved name of the world table inside translation databases.
WORLD_TABLE = "#W"

#: Cache key marker for the PAD-expanded view of a wild table.
_DEWILD = ("$dewild",)

#: Process-global ticker behind :attr:`InlinedRepresentation.versions`.
#: ``next()`` on a count object is atomic under the GIL, and globality
#: is load-bearing: versions must never repeat across representations,
#: or a rollback-and-redo could alias a stale result-memo entry.
_VERSION_TICKER = count(1)


class InlinedRepresentation:
    """A world-set inlined into flat relations plus a world table."""

    __slots__ = (
        "tables",
        "world_factors",
        "id_attrs",
        "wild_attrs",
        "_known_ids",
        "_expanded",
        "_value_schemas",
        "versions",
        "world_version",
    )

    def __init__(
        self,
        tables: Mapping[str, Relation] | Iterable[tuple[str, Relation]],
        world: FactoredWorld | Relation,
        id_attrs: Iterable[str] | None = None,
        *,
        wild_attrs: Iterable[str] = (),
    ) -> None:
        self.tables = Database(tables)
        #: W as stored, in tuple-engine factors: a plain world table
        #: becomes one factor.
        self.world_factors = (
            world if isinstance(world, FactoredWorld) else FactoredWorld((world,))
        ).in_tuple_engine()
        self.wild_attrs = frozenset(wild_attrs)
        self.id_attrs = tuple(
            self.world_factors.ids if id_attrs is None else id_attrs
        )
        #: Per-(V_i) sets of known world ids, shared with derived
        #: representations over the same world table (validation cache).
        self._known_ids: dict[tuple[str, ...], set[tuple]] = {}
        #: Cached id-expanded table views, keyed (name, sorted ids) —
        #: see :meth:`expanded`. Instances are immutable, so entries
        #: never go stale; :meth:`replacing` carries untouched ones over.
        self._expanded: dict[tuple[str, tuple[str, ...]], object] = {}
        self._value_schemas: dict[str, tuple[str, ...]] | None = None
        #: Process-unique version counters, one per table plus one for
        #: the world, the result memo's invalidation keys: a DML delta
        #: (:meth:`replacing`) mints a fresh version for exactly the
        #: table it changed, a from-scratch construction (this path)
        #: mints fresh versions for everything. Versions are drawn from
        #: one global ticker, so a rolled-back-and-redone table can
        #: never alias an old version's memo entries — and because they
        #: live on the (immutable) representation, snapshot restore
        #: carries the old versions back with the old tables.
        self.versions = {name: next(_VERSION_TICKER) for name in self.tables}
        self.world_version = next(_VERSION_TICKER)
        self._validate()

    @property
    def world_table(self) -> Relation:
        """The joint world table W: the product of the factors,
        materialized (and cached) on first access — the factor itself
        when W has one. Hot paths must prefer :attr:`world_factors`;
        this property is the decode/pairing escape hatch and is
        product-sized.
        """
        return self.world_factors.materialize()

    def _validate_table(self, name: str, relation: Relation) -> None:
        """One table's invariants: ids declared, referenced ids known.

        Vectorized: each check is one C-speed pass over id column
        slices (tuples_of), not a Python loop over row tuples —
        representations are re-validated on every session commit.
        """
        stray = [
            a
            for a in relation.schema
            if is_id_attribute(a) and a not in set(self.id_attrs)
        ]
        if stray:
            raise RepresentationError(
                f"table {name!r} carries undeclared id attributes {stray}"
            )
        table_ids = tuple(
            a for a in self.id_attrs if a in relation.schema.as_set()
        )
        # A joint id is known iff each factor's sub-tuple is known, so
        # the check runs factor by factor and never touches the product.
        for factor in self.world_factors.factors:
            factor_attrs = factor.schema.as_set()
            f_attrs = tuple(a for a in table_ids if a in factor_attrs)
            if f_attrs:
                missing = self._unknown_sub_id(relation, factor, f_attrs)
                if missing is not None:
                    raise RepresentationError(
                        f"table {name!r} references world id {missing!r} "
                        "that is not in the world table "
                        f"({_factor_column_phrase(f_attrs)})"
                    )

    def _unknown_sub_id(
        self, relation: Relation, factor: Relation, f_attrs: tuple[str, ...]
    ) -> tuple | None:
        """The least sub-id of *relation* over *f_attrs* missing from
        *factor*, or ``None`` when every one is known.

        In a *wild* column ``PAD`` is the every-world wildcard and is
        skipped; any other value must be in the factor's domain. A table
        with an array-kernel twin is checked with one ``np.isin`` pass
        over factorized id codes instead of Python tuple sets.
        """
        wild = len(f_attrs) == 1 and f_attrs[0] in self.wild_attrs
        twin = getattr(relation, "_array", None)
        if twin is not None and not wild:
            from repro.relational.array_kernel import as_array, missing_world_ids

            world = as_array(factor)
            missing = missing_world_ids(
                twin,
                twin.schema.indices(f_attrs),
                world,
                world.schema.indices(f_attrs),
            )
            return None if missing is None else missing[0]
        known = self._known_ids.get(f_attrs)
        if known is None:
            known = set(tuples_of(factor, f_attrs))
            self._known_ids[f_attrs] = known
        referenced = set(tuples_of(relation, f_attrs))
        if wild:
            referenced = {t for t in referenced if t[0] is not PAD}
        missing = referenced - known
        return min(missing, key=row_sort_key) if missing else None

    def _validate(self) -> None:
        if set(self.world_factors.ids) != set(self.id_attrs):
            raise RepresentationError(
                f"world table attributes {list(self.world_factors.ids)} "
                f"differ from declared id attributes {list(self.id_attrs)}"
            )
        single = {
            f.schema.attributes[0]
            for f in self.world_factors.factors
            if len(f.schema.attributes) == 1
        }
        loose = self.wild_attrs - single
        if loose:
            raise RepresentationError(
                f"wild attributes {sorted(loose)} must each be a "
                "single-attribute world factor"
            )
        for name, relation in self.tables.items():
            self._validate_table(name, relation)

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def initial() -> "InlinedRepresentation":
        """The representation of one empty world: no tables, W = {⟨⟩}.

        This is the starting state of an inline-backed session, mirroring
        ``WorldSet.single(World.of({}))`` on the explicit side.
        """
        return InlinedRepresentation({}, Relation.unit(), ())

    @staticmethod
    def of_database(database: Database | Mapping[str, Relation]) -> "InlinedRepresentation":
        """Encode a complete database: V = ∅, W = {⟨⟩} (Example 5.6 step 1)."""
        items = database.items() if isinstance(database, Database) else database.items()
        return InlinedRepresentation(dict(items), Relation.unit(), ())

    @staticmethod
    def of_world_set(
        world_set: WorldSet, id_attr: str = "$world"
    ) -> "InlinedRepresentation":
        """Encode an explicit world-set with one integer id attribute."""
        if not is_id_attribute(id_attr):
            raise RepresentationError(f"{id_attr!r} must use the id prefix")
        worlds = world_set.sorted_worlds()
        names = world_set.relation_names
        tables: dict[str, Relation] = {}
        for name, schema in world_set.signature:
            attrs = Schema(schema.attributes + (id_attr,))
            rows: list[tuple] = []
            for index, world in enumerate(worlds):
                aligned = world[name]._reordered(schema.attributes)
                rows.extend(row + (index,) for row in aligned.rows)
            # Rows are distinct by construction (each carries its world
            # index), so the encode skips per-row coercion/interning.
            tables[name] = Relation._raw(attrs, rows)
        world_table = Relation._raw(
            Schema((id_attr,)), [(i,) for i in range(len(worlds))]
        )
        return InlinedRepresentation(tables, world_table, (id_attr,))

    # -- decoding ------------------------------------------------------------------

    def value_attributes(self, name: str) -> tuple[str, ...]:
        """The value (non-id) attributes U_i of table *name*."""
        ids = set(self.id_attrs)
        return tuple(a for a in self.tables[name].schema if a not in ids)

    def value_schemas(self) -> dict[str, tuple[str, ...]]:
        """Every table's value attributes, in catalog order.

        Built on first use and shared by every later caller (instances
        are immutable): treat the mapping as read-only.
        """
        schemas = self._value_schemas
        if schemas is None:
            schemas = {name: self.value_attributes(name) for name in self.tables}
            self._value_schemas = schemas
        return schemas

    def table_id_attrs(self, name: str) -> tuple[str, ...]:
        """The id attributes table *name* actually carries (V_i ⊆ V)."""
        schema = self.tables[name].schema.as_set()
        return tuple(a for a in self.id_attrs if a in schema)

    def table_wild_attrs(self, name: str) -> tuple[str, ...]:
        """The wild (PAD-wildcard) id attributes table *name* carries."""
        if not self.wild_attrs:
            return ()
        return tuple(
            a for a in self.table_id_attrs(name) if a in self.wild_attrs
        )

    def replacing(
        self, name: str, table: Relation, validate: bool = True
    ) -> "InlinedRepresentation":
        """The representation with *name*'s table swapped for *table*.

        The DML commit path: the world table and every other table are
        unchanged — and were validated when this instance was built —
        so only the replacement is re-checked (id attributes declared,
        referenced world ids known). The known-world-id sets are shared
        and cached :meth:`expanded` views of *other* tables carry over,
        which is what makes a multi-statement DML script pay for each
        id expansion once instead of once per statement.

        *validate=False* skips even the replacement's check: callers
        whose rows are derived from this representation's own tables —
        a DML mask keeps a subset, a scatter rewrites only value
        columns, an append draws its id columns from the world table —
        cannot introduce unknown world ids, and at 10⁵-row scale the
        id-column pass is measurable on every statement.
        """
        self.tables[name]  # unknown names raise the catalog's SchemaError
        replacement = object.__new__(InlinedRepresentation)
        replacement.tables = Database(
            (table_name, table if table_name == name else existing)
            for table_name, existing in self.tables.items()
        )
        replacement.world_factors = self.world_factors
        replacement.wild_attrs = self.wild_attrs
        replacement.id_attrs = self.id_attrs
        replacement._known_ids = self._known_ids
        replacement._expanded = {
            key: view for key, view in self._expanded.items() if key[0] != name
        }
        replacement._value_schemas = None
        # The delta is exactly one table: it gets a fresh version, every
        # other table (and the world) keeps its counter, so memoized
        # results over the untouched tables stay servable.
        versions = dict(self.versions)
        versions[name] = next(_VERSION_TICKER)
        replacement.versions = versions
        replacement.world_version = self.world_version
        if validate:
            replacement._validate_table(name, table)
        return replacement

    def _dewilded(self, name: str):
        """Table *name* with PAD wildcards expanded over factor domains.

        A wild-column row stands for one row per world of its factor;
        this view spells those rows out (tuple engine, cached). It is
        the bridge from the succinct factored form to consumers that
        match ids exactly — DML's general route, decoding, pairing.
        """
        key = (name, _DEWILD)
        cached = self._expanded.get(key)
        if cached is not None:
            return cached
        cached = self.world_factors.expand_pads(
            self.tables[name], self.table_wild_attrs(name)
        )
        self._expanded[key] = cached
        return cached

    def expanded(self, name: str, ids: Iterable[str], kernel: str | None = None):
        """The flat table of *name* carrying at least the id columns *ids*.

        A lazily stored table (fewer id columns than a DML match plan
        depends on) is replicated over the missing ids by joining the
        world table's projection — the only place DML pays for
        per-world variance, and only for the ids actually involved: on
        a factored world the projection is the product of the touched
        factors alone, never the full W. Wild columns are de-wildcarded
        first (PAD patterns expanded over their factor domains) so the
        result matches ids exactly. The join runs in *kernel* (``None``
        reads ``REPRO_KERNEL``) and the result — a :class:`Relation` or
        ``ColumnarRelation`` — is cached on this instance, so the
        delete/update statements of one batch expand once, not once per
        statement.
        """
        table = self.tables[name]
        ids = tuple(ids)
        wild = self.table_wild_attrs(name)
        if not wild and not set(ids) - table.schema.as_set():
            return table
        key = (name, tuple(sorted(ids)))
        cached = self._expanded.get(key)
        if cached is None:
            ops = kernel_ops(kernel)
            source = ops.convert(self._dewilded(name) if wild else table)
            if set(ids) - table.schema.as_set():
                world = self.world_factors.project(ids).materialize()
                cached = source.natural_join(ops.convert(world).project(ids))
            else:
                cached = source
            self._expanded[key] = cached
        return cached

    def insert_sub_ids(self, name: str, kernel: str | None = None) -> list[tuple]:
        """Id sub-tuples an inserted (every-world) row of *name* takes.

        Wild columns take ``PAD`` — one stored row reaches every world
        of those factors — while concrete id columns still enumerate
        their combinations (from the product of the touched factors
        only), as one
        unordered distinct pass in *kernel* (``None`` reads
        ``REPRO_KERNEL``): first-occurrence order, never sorted.
        """
        table_ids = self.table_id_attrs(name)
        if not table_ids:
            return [()]
        wild = set(self.table_wild_attrs(name))
        concrete = tuple(a for a in table_ids if a not in wild)
        if not concrete:
            return [(PAD,) * len(table_ids)]
        world = self.world_factors.project(concrete).materialize()
        pool = kernel_ops(kernel).convert(world).distinct_tuples(concrete)
        if not wild:
            return pool
        positions = {a: i for i, a in enumerate(concrete)}
        return [
            tuple(
                sub[positions[a]] if a in positions else PAD for a in table_ids
            )
            for sub in pool
        ]

    def world_ids(self) -> list[tuple]:
        """The world identifiers, in deterministic order."""
        return self.world_table.distinct_values(self.id_attrs)

    def world(self, world_id: tuple) -> World:
        """Decode the world with identifier *world_id*.

        One ``decode`` kernel op per world, fed with the decoded row
        count, so a statement's row budget bounds a world-by-world
        decode (the fallback route's) like any other kernel work.
        """
        assignment = dict(zip(self.id_attrs, world_id))
        relations = []
        for name, table in self.tables.items():
            values = self.value_attributes(name)
            table_ids = self.table_id_attrs(name)
            wild = set(self.table_wild_attrs(name))
            if not wild:
                restriction = {a: assignment[a] for a in table_ids}
                selected = table.select_values(restriction).rows
                value_of = tuple_getter(table.schema.indices(values))
                relations.append(
                    (name, Relation._raw(Schema(values), map(value_of, selected)))
                )
                continue
            want = tuple(assignment[a] for a in table_ids)
            wild_pos = {i for i, a in enumerate(table_ids) if a in wild}
            rows = {
                value
                for sub_id, value in zip(
                    tuples_of(table, table_ids), tuples_of(table, values)
                )
                if all(
                    v == want[i] or (i in wild_pos and v is PAD)
                    for i, v in enumerate(sub_id)
                )
            }
            relations.append((name, Relation._raw(Schema(values), list(rows))))
        checkpoint("decode", sum(len(relation) for _, relation in relations))
        return World.of(relations)

    def rep(self) -> WorldSet:
        """rep(T): the represented world-set (Definition 5.1).

        Equivalent worlds stored under different ids collapse, since
        world-sets are sets. World ids stream unsorted, walking the
        product of the factors without materializing it, so the first
        world decodes (and meets the row budget) at once.
        """
        signature = tuple(
            (name, Schema(self.value_attributes(name))) for name in self.tables
        )
        world = self.world_factors
        reorder = tuple_getter(tuple(world.ids.index(a) for a in self.id_attrs))
        ids = (
            reorder(tuple(chain.from_iterable(parts)))
            for parts in product(*(f.rows for f in world.factors))
        )
        return WorldSet(map(self.world, ids), signature)

    # -- views ----------------------------------------------------------------------

    def as_database(self) -> Database:
        """The tables plus the stored world table(s), for RA evaluation.

        W is exposed as stored (see :meth:`factor_tables`) — the Figure
        6 translator builds it as the join of these tables, so the
        product is only ever realized inside a query that genuinely
        asks for it.
        """
        database = self.tables
        for factor_name, factor in self.factor_tables().items():
            database = database.with_relation(factor_name, factor)
        return database

    def factor_tables(self) -> dict[str, Relation]:
        """W's stored tables under reserved names: ``#W`` when W is one
        table (a single factor, or {⟨⟩} for none), else ``#W0``,
        ``#W1``, … one per factor."""
        factors = self.world_factors.factors
        if len(factors) <= 1:
            return {WORLD_TABLE: self.world_table}
        return {
            f"{WORLD_TABLE}{index}": factor for index, factor in enumerate(factors)
        }

    def world_count(self) -> int:
        """Number of world identifiers (equivalent worlds counted apart):
        the product of the factor sizes — O(#factors), no joint table.
        """
        return self.world_factors.count()

    def world_fingerprints(self) -> dict[tuple, tuple]:
        """Per world id, a hashable fingerprint of the decoded world.

        Two ids get equal fingerprints iff their worlds coincide
        relation by relation. Computed with one pass per flat table —
        no world materialization; this is how the inline backend
        answers world-count questions without decoding. (On a factored
        world the id list itself is the product — callers that only
        need the distinct count should use :meth:`distinct_world_count`,
        whose factored fast path never enumerates.)
        """
        world_ids = self.world_ids()
        fingerprints: dict[tuple, list[frozenset]] = {
            world_id: [] for world_id in world_ids
        }
        id_positions = {a: p for p, a in enumerate(self.id_attrs)}
        for name in self.tables:
            table = self.tables[name]
            table_ids = self.table_id_attrs(name)
            wild = set(self.table_wild_attrs(name))
            project = tuple(id_positions[a] for a in table_ids)
            empty = frozenset()
            if not wild:
                rows_by_sub: dict[tuple, set[tuple]] = {}
                for sub_id, value in zip(
                    tuples_of(table, table_ids),
                    tuples_of(table, self.value_attributes(name)),
                ):
                    bucket = rows_by_sub.get(sub_id)
                    if bucket is None:
                        rows_by_sub[sub_id] = {value}
                    else:
                        bucket.add(value)
                grouped = {
                    sub: frozenset(rows) for sub, rows in rows_by_sub.items()
                }
                for world_id, rows in fingerprints.items():
                    sub_id = tuple(world_id[p] for p in project)
                    rows.append(grouped.get(sub_id, empty))
                continue
            # Wild table: bucket rows by their *pattern* (the non-PAD
            # constraints), then give each world the union of every
            # bucket whose constraints its sub-id satisfies.
            wild_pos = {i for i, a in enumerate(table_ids) if a in wild}
            buckets: dict[tuple, set[tuple]] = {}
            for sub_id, value in zip(
                tuples_of(table, table_ids),
                tuples_of(table, self.value_attributes(name)),
            ):
                constraint = tuple(
                    (i, v)
                    for i, v in enumerate(sub_id)
                    if i not in wild_pos or v is not PAD
                )
                buckets.setdefault(constraint, set()).add(value)
            frozen = [
                (constraint, frozenset(rows))
                for constraint, rows in buckets.items()
            ]
            for world_id, rows in fingerprints.items():
                sub_id = tuple(world_id[p] for p in project)
                matched = [
                    bucket
                    for constraint, bucket in frozen
                    if all(sub_id[i] == v for i, v in constraint)
                ]
                rows.append(frozenset().union(*matched) if matched else empty)
        return {world_id: tuple(rows) for world_id, rows in fingerprints.items()}

    def _distinct_count_factored(self) -> int | None:
        """∏ per-factor distinct counts, or ``None`` when the factored
        shortcut does not apply.

        Valid when every factor is a single wild attribute, every table
        row constrains at most one factor, and no value row is
        contributed by two different sources (base vs. a factor, or two
        different factors) in the same table. Then two worlds decode
        equal iff they pick fingerprint-equal choices factor by factor,
        so rep(T)'s cardinality is the product over factors of the
        number of distinct per-choice contribution profiles — computed
        in one pass over the stored rows, without touching the 2ᵍ
        product. This is the repair-by-key shape (and survives the
        uniform DML route, which rewrites value columns only).
        """
        factors = self.world_factors.factors
        if any(len(f.schema.attributes) != 1 for f in factors):
            return None
        if set(self.id_attrs) - self.wild_attrs:
            return None
        attrs = tuple(f.schema.attributes[0] for f in factors)
        index = {a: j for j, a in enumerate(attrs)}
        domains = [
            tuple(r[0] for r in tuples_of(f, f.schema.attributes))
            for f in factors
        ]
        contributions: list[dict[object, set]] = [dict() for _ in factors]
        factor_rows: list[set] = [set() for _ in factors]
        base: set = set()
        for name in self.tables:
            table = self.tables[name]
            table_ids = self.table_id_attrs(name)
            values = self.value_attributes(name)
            if not table_ids:
                base.update((name, row) for row in tuples_of(table, values))
                continue
            positions = [index[a] for a in table_ids]
            for id_part, value in zip(
                tuples_of(table, table_ids), tuples_of(table, values)
            ):
                hits = [
                    (positions[i], v)
                    for i, v in enumerate(id_part)
                    if v is not PAD
                ]
                if not hits:
                    base.add((name, value))
                elif len(hits) > 1:
                    return None
                else:
                    j, choice = hits[0]
                    contributions[j].setdefault(choice, set()).add((name, value))
                    factor_rows[j].add((name, value))
        seen = set(base)
        for rows in factor_rows:
            if seen & rows:
                return None
            seen |= rows
        count = 1
        for j, domain in enumerate(domains):
            per_choice = contributions[j]
            profiles = {
                frozenset(per_choice.get(choice, ())) for choice in domain
            }
            count *= len(profiles)
        return count

    def distinct_world_count(self) -> int:
        """Number of *distinct* represented worlds (rep(T) cardinality).

        Two ids whose worlds coincide relation-by-relation count once,
        matching the set semantics of explicit world-sets.
        """
        fast = self._distinct_count_factored()
        if fast is not None:
            return fast
        return len(set(self.world_fingerprints().values()))

    def materialized(self) -> "InlinedRepresentation":
        """The joint form of this representation: W as one factor.

        Wild PAD patterns are expanded over their factor domains and
        the world table is the materialized product — product-sized by
        construction, which is why only decode-adjacent consumers
        (:mod:`repro.inline.pairing` and :meth:`strict`) call this.
        """
        if not self.wild_attrs and len(self.world_factors.factors) <= 1:
            return self
        tables = []
        for name, table in self.tables.items():
            if self.table_wild_attrs(name):
                tables.append((name, self._dewilded(name)))
            else:
                tables.append((name, table))
        return InlinedRepresentation(tables, self.world_table, self.id_attrs)

    def strict(self) -> "InlinedRepresentation":
        """The strict Definition 5.1 form: every table tagged with all of V.

        Tables carrying only a subset of the id attributes are joined
        with the world table (``R_i ⋈ W``), replicating their rows per
        world — exponential in general, which is exactly why sessions
        keep the lazy form; the Figure 6 translator wants this one. W
        keeps its factors (it stays a join of factor tables in the
        translated plan) but the wild columns go: strictness means
        exact ids.
        """
        if not self.id_attrs:
            return self
        source = self.materialized() if self.wild_attrs else self
        convert = kernel_ops(None).convert
        world = convert(source.world_table)
        tables = []
        for name, table in source.tables.items():
            if source.table_id_attrs(name) == source.id_attrs:
                tables.append((name, table))
            else:
                # The replicating join runs in the active kernel; the
                # result converts back at the Relation API boundary.
                tables.append((name, as_tuple(convert(table).natural_join(world))))
        return InlinedRepresentation(tables, self.world_factors, self.id_attrs)

    def size(self) -> int:
        """Total stored rows: Σ|R_iᵀ| + |W| (the representation's footprint).

        W contributes the *sum* of its factor sizes — the whole point of
        the factored encoding: a repaired table's footprint is linear in
        the input, not in the number of repairs. The single world
        W = {⟨⟩} (zero factors) still counts its one row.
        """
        stored = sum(len(r) for _, r in self.tables.items())
        factors = self.world_factors.factors
        return stored + (sum(len(f) for f in factors) if factors else 1)

    def __repr__(self) -> str:
        tables = ", ".join(f"{n}[{len(r)}]" for n, r in self.tables.items())
        return (
            f"InlinedRepresentation({tables}; W={self.world_factors!r}, "
            f"V={list(self.id_attrs)}, wild={sorted(self.wild_attrs)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InlinedRepresentation):
            return NotImplemented
        if other is self:
            # The common post-rollback comparison: a restored snapshot
            # is the *same object* (commits swap references, they never
            # mutate), so state checks after a transactional restore
            # short-circuit without touching any table.
            return True
        return (
            self.id_attrs == other.id_attrs
            and self.wild_attrs == other.wild_attrs
            and self.world_factors == other.world_factors
            and dict(self.tables.items()) == dict(other.tables.items())
        )

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self.tables.items()),
                self.world_factors,
                self.id_attrs,
                self.wild_attrs,
            )
        )


def _factor_column_phrase(attrs: tuple[str, ...]) -> str:
    """Deterministic "which factor column is dangling" message suffix."""
    if len(attrs) == 1:
        return f"factor column {attrs[0]!r}"
    return f"factor columns {list(attrs)}"
