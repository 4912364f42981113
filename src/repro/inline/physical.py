"""Dedicated physical operators for world-set algebra (Section 8).

The paper's conclusion conjectures that "query plans with dedicated
physical operators for our I-SQL constructs should perform much better
than the default relational algebra query over the (nonsuccinct, and
thus in practice too large) inlined representation". This module
implements that engine: a direct evaluator over inlined tables that
keeps the §5.3 lazy interpretation (tables without id attributes live
in all worlds; the world table is materialized only on demand) but
replaces the translation's algebraic simulations with purpose-built
algorithms:

* group-worlds-by hashes worlds by their projection fingerprint —
  O(worlds × rows) instead of the O(worlds²) pairwise equivalence
  construction of Figure 6;
* cert divides with one hash-counting pass;
* σ_{eq}(R × S) plans (the shape ``FROM R1, R2 WHERE R1.A = R2.A``
  compiles to) are fused into one hash join — the product is never
  materialized;
* repair-by-key is supported natively (one fresh id attribute whose
  values number the repairs per world) — an operator the relational
  translation cannot express at all (Proposition 4.2).

The evaluator runs on a pluggable relation *kernel*
(:mod:`repro.relational.columnar`): with ``kernel="columnar"`` (the
``REPRO_KERNEL`` default) base tables are converted to
:class:`ColumnarRelation` once per session and every operator runs its
vectorized column-slice implementation; ``kernel="tuple"`` keeps the
original frozenset-of-rows engine alive for differential testing.
Conversion happens only at the :class:`Relation` API boundary — the
:class:`PhysicalState` a caller sees always exposes tuple-engine
relations, lazily converted on first access.

The evaluator is validated against the Figure 3 reference semantics by
the same differential test suites as the two translators, and the two
kernels are held to identical answers by ``tests/backend`` and
``tests/relational/test_columnar_differential.py``.
"""

from __future__ import annotations

from collections import Counter
from itertools import product as _cartesian
from typing import Iterable, Sequence

from repro.errors import TranslationError, WorldLimitError
from repro.core.ast import (
    ActiveDomain,
    Aggregate,
    AntiJoin,
    Cert,
    CertGroup,
    CertGroupKey,
    ChoiceOf,
    Difference,
    Intersect,
    PadJoin,
    Poss,
    PossGroup,
    PossGroupKey,
    Product,
    Project,
    Rel,
    Rename,
    RepairByKey,
    Select,
    SemiJoin,
    Union,
    WSAQuery,
    repairs_of_rows,
)
from repro.core.repair import factored_repair_groups
from repro.relational.aggregates import missing_group_rows
from repro.inline.factors import FactoredWorld
from repro.inline.translate import SchemaLike, _schema_env, lower_query
from repro.relational.array_kernel import ArrayRelation
from repro.relational.columnar import (
    ColumnarRelation,
    answers_per_world,
    as_tuple,
    kernel_ops,
    kernel_unit,
    tuples_of,
)
from repro.relational.database import Database
from repro.relational.pad import PAD
from repro.relational.predicates import And, Predicate, conjunction
from repro.relational.relation import Relation
from repro.relational.schema import Schema

#: Either kernel's relation type (they share the operator surface).
KernelRelation = "Relation | ColumnarRelation"


def _split_conjuncts(predicate: Predicate) -> list[Predicate]:
    """Flatten a conjunction into its top-level conjuncts."""
    if isinstance(predicate, And):
        return _split_conjuncts(predicate.left) + _split_conjuncts(predicate.right)
    return [predicate]


class PhysicalState:
    """One evaluated subquery: answer table, id attributes, world table.

    Mirrors :class:`repro.inline.optimized.OptimizedState`, but holds
    materialized relations rather than expressions. ``world`` is None
    when no worlds were created (the single implicit world).

    Internally the relations live in whichever kernel evaluated them;
    the public :attr:`answer`/:attr:`world` accessors convert to the
    tuple engine lazily (cached), so consumers outside the evaluator
    always see plain :class:`Relation` objects.

    ``world`` may also be a :class:`FactoredWorld` — a product of
    factor relations that is never materialized on the hot paths. The
    id attributes listed in :attr:`wild` are *wild* factor columns: a
    ``PAD`` in such a column means the row is in every world of that
    factor (the repair-by-key sum-size encoding). :meth:`plain`
    converts to the joint form — PADs expanded, product materialized —
    for the consumers that genuinely need exact ids.

    States are immutable once built (the lazy conversions above only
    cache), which is what lets the inline backend's result memo share
    one state across repeated executions of the same statement. Memo
    sharing is additionally restricted to states whose :attr:`ids` and
    :attr:`wild` already existed on the input representation — a state
    carrying *freshly minted* world ids (``choice of`` /
    ``repair by key``) is never memoized, so replaying a memo entry
    can never collide with ids minted later.
    """

    __slots__ = ("_answer", "ids", "_world", "wild", "_plain_state")

    def __init__(
        self,
        answer: "Relation | ColumnarRelation",
        ids: tuple[str, ...],
        world: "Relation | ColumnarRelation | FactoredWorld | None",
        wild: frozenset = frozenset(),
    ) -> None:
        self._answer = answer
        self.ids = ids
        self._world = world
        self.wild = wild
        self._plain_state: "PhysicalState | None" = None

    @property
    def answer(self) -> Relation:
        answer = self._answer
        if not isinstance(answer, Relation):
            answer = self._answer = as_tuple(answer)
        return answer

    @property
    def world(self) -> Relation | None:
        world = self._world
        if isinstance(world, FactoredWorld):
            # Product-sized by definition; the factored structure stays
            # on _world so succinctness-aware consumers keep seeing it.
            return world.materialize()
        if world is not None and not isinstance(world, Relation):
            world = self._world = as_tuple(world)
        return world

    def value_attributes(self) -> tuple[str, ...]:
        ids = set(self.ids)
        return tuple(a for a in self._answer.schema if a not in ids)

    def world_or_unit(self) -> Relation:
        return self.world if self._world is not None else Relation.unit()

    def _world_or_unit_any(self) -> "Relation | ColumnarRelation":
        """The world table without forcing a kernel conversion."""
        return self._world if self._world is not None else Relation.unit()

    def plain(self) -> "PhysicalState":
        """The joint-id form of this state (cached).

        Wild PAD patterns expand over their factors' domains and a
        factored world materializes into the joint product — the
        explicit escape hatch out of the sum-size encoding, used by
        decoding and by operators whose semantics need exact ids.
        """
        if not self.wild and not isinstance(self._world, FactoredWorld):
            return self
        cached = self._plain_state
        if cached is not None:
            return cached
        world = self._world
        answer = self._answer
        if self.wild:
            assert isinstance(world, FactoredWorld)
            domains = world.attr_domains()
            attrs = answer.schema.attributes
            wild_pos = tuple(i for i, a in enumerate(attrs) if a in self.wild)
            rows: dict[tuple, None] = {}
            for row in tuples_of(answer, attrs):
                pads = [i for i in wild_pos if row[i] is PAD]
                if not pads:
                    rows[row] = None
                    continue
                for combo in _cartesian(*(domains[attrs[i]] for i in pads)):
                    filled = list(row)
                    for i, v in zip(pads, combo):
                        filled[i] = v
                    rows[tuple(filled)] = None
            answer = Relation._raw(Schema(attrs), list(rows))
        if isinstance(world, FactoredWorld):
            world = world.materialize()
        cached = PhysicalState(answer, self.ids, world)
        self._plain_state = cached
        return cached

    def answers_by_world(self) -> dict[tuple, Relation]:
        """Decode: the answer relation per world id (empty worlds kept)."""
        state = self.plain()
        return answers_per_world(
            state._answer,
            state.ids,
            state.value_attributes(),
            state._world_or_unit_any(),
        )

    def world_answers(self) -> frozenset[Relation]:
        """The distinct per-world answers, as one ``world_answers``
        kernel op (no per-world decode on the array kernel)."""
        state = self.plain()
        return state._answer.world_answers(
            state.ids, state.value_attributes(), state._world_or_unit_any()
        )


class PhysicalEvaluator:
    """Evaluates world-set algebra directly over an inlined database.

    By default the database is a *complete* database (a single implicit
    world). Passing *base_ids* and *base_world* seeds the evaluation
    with an existing inlined world-set instead: every base table is then
    expected to already carry the *base_ids* columns, and base-relation
    states start from the given :class:`FactoredWorld` — this is how the
    :class:`repro.backend.InlineBackend` evaluates statements against a
    session whose state has already split into worlds. *counter_start*
    offsets the fresh world-id counter so that ids minted by earlier
    statements are never reused. *kernel* selects the relation engine
    (``"columnar"`` or ``"tuple"``; None reads ``REPRO_KERNEL``).
    """

    def __init__(
        self,
        database: Database,
        schemas: SchemaLike | None = None,
        max_worlds: int | None = None,
        base_ids: Sequence[str] = (),
        base_world: FactoredWorld | None = None,
        counter_start: int = 0,
        kernel: str | None = None,
        base_wild: Iterable[str] = (),
    ) -> None:
        self.database = database
        self.env = _schema_env(schemas or database.schemas())
        self.max_worlds = max_worlds
        self.base_ids = tuple(base_ids)
        self.base_world = base_world if self.base_ids else None
        self.base_wild = frozenset(base_wild)
        ops = kernel_ops(kernel)
        self.kernel = ops.name
        self._convert = ops.convert
        self._from_distinct_rows = ops.from_distinct_rows
        self._counter = counter_start
        self._world_projections: dict[tuple[str, ...], KernelRelation] = {}

    def _fresh(self) -> int:
        self._counter += 1
        return self._counter

    def _plain(self, state: PhysicalState) -> PhysicalState:
        """*state* in joint-id form, relations in this evaluator's kernel."""
        plain = state.plain()
        if plain is state:
            return state
        world = plain._world
        return PhysicalState(
            self._convert(plain._answer),
            plain.ids,
            self._convert(world) if world is not None else None,
        )

    def _guard(self, world: "Relation | ColumnarRelation | None") -> None:
        if (
            self.max_worlds is not None
            and world is not None
            and len(world) > self.max_worlds
        ):
            raise WorldLimitError(
                f"physical evaluation exceeded {self.max_worlds} worlds"
            )

    def _relation(self, attributes: Sequence[str], rows) -> "Relation | ColumnarRelation":
        """Build a kernel relation from *distinct* aligned row tuples."""
        return self._from_distinct_rows(Schema(tuple(attributes)), rows)

    def _unit(self) -> "Relation | ColumnarRelation":
        return kernel_unit(self.kernel)

    # -- entry points ------------------------------------------------------------

    def evaluate(self, query: WSAQuery) -> PhysicalState:
        """Evaluate *query*; the state exposes per-world answers."""
        query.attributes(self.env)
        lowered = lower_query(query, self.env)
        return self._eval(lowered)

    def answer(self, query: WSAQuery) -> Relation:
        """The unique answer of a query whose result is world-uniform."""
        state = self.evaluate(query)
        if state.ids:
            raise TranslationError(
                "the answer varies across worlds; use evaluate() instead"
            )
        return state.answer

    # -- the operators, physically -----------------------------------------------------

    def _base_state(self, name: str) -> PhysicalState:
        """A base table under the lazy interpretation: a table carries
        only the id attributes it depends on; its world table is the
        projection of the session world table onto those ids.

        A one-factor world without wild columns is a joint table: it is
        converted (its kernel twin is cached on the factor) and
        projected in this evaluator's kernel, and the state carries a
        plain relation. Any other world projects factor by factor and
        stays a :class:`FactoredWorld`."""
        table = self._convert(self.database[name])
        schema = table.schema.as_set()
        ids = tuple(a for a in self.base_ids if a in schema)
        if not ids:
            return PhysicalState(table, (), None)
        world = self._world_projections.get(ids)
        if world is None:
            assert self.base_world is not None
            base = self.base_world
            if len(base.factors) == 1 and not self.base_wild:
                joint = self._convert(base.factors[0])
                world = joint if ids == self.base_ids else joint.project(ids)
            else:
                world = base if set(ids) == set(base.ids) else base.project(ids)
            self._world_projections[ids] = world
        wild = self.base_wild.intersection(ids)
        return PhysicalState(table, ids, world, wild)

    def _eval(self, query: WSAQuery) -> PhysicalState:
        if isinstance(query, Rel):
            return self._base_state(query.name)
        if isinstance(query, Select):
            if isinstance(query.child, Product):
                return self._eval_filtered_product(query)
            state = self._eval(query.child)
            # Predicates only see value attributes, so a wild pattern
            # row filters as one unit — the verdict is world-uniform.
            return PhysicalState(
                state._answer.select(query.predicate),
                state.ids,
                state._world,
                state.wild,
            )
        if isinstance(query, Project):
            state = self._eval(query.child)
            return PhysicalState(
                state._answer.project(query.attrs + state.ids),
                state.ids,
                state._world,
                state.wild,
            )
        if isinstance(query, Rename):
            state = self._eval(query.child)
            return PhysicalState(
                state._answer.rename(query.mapping),
                state.ids,
                state._world,
                state.wild,
            )
        if isinstance(query, ChoiceOf):
            return self._eval_choice(query)
        if isinstance(query, Poss):
            state = self._eval(query.child)
            return PhysicalState(
                state._answer.project(state.value_attributes()), (), None
            )
        if isinstance(query, Cert):
            return self._eval_cert(query)
        if isinstance(query, (PossGroup, CertGroup)):
            return self._eval_group(query)
        if isinstance(query, (PossGroupKey, CertGroupKey)):
            return self._eval_group_keyed(query)
        if isinstance(query, Aggregate):
            return self._eval_aggregate(query)
        if isinstance(query, (SemiJoin, AntiJoin)):
            return self._eval_semijoin(query)
        if isinstance(query, PadJoin):
            return self._eval_pad_join(query)
        if isinstance(query, (Product, Union, Intersect, Difference)):
            return self._eval_binary(query)
        if isinstance(query, RepairByKey):
            return self._eval_repair(query)
        if isinstance(query, ActiveDomain):
            raise TranslationError("active-domain relations are not supported")
        raise TranslationError(f"no physical operator for {type(query).__name__}")

    def _eval_cert(self, query: Cert) -> PhysicalState:
        """cert by group counting instead of generic division.

        The answer schema is exactly U ∪ V and rows are a set, so for a
        fixed U-part every row contributes a distinct world id; since
        answer ids always lie in the world table (the representation
        invariant), a U-value is certain iff its group has |W| rows —
        one C-speed counting pass over the value column slice, no
        per-group id-set materialization.

        Over a factored world the division never touches the joint
        domain: a value is certain iff an all-PAD row covers it or one
        factor's choice set for it is the whole factor — a product of
        per-factor checks (see :func:`factored_certain_rows`).
        """
        state = self._eval(query.child)
        if not state.ids:
            return state
        if _factored_or_wild(state):
            certain = factored_certain_rows(state)
            if certain is not None:
                return PhysicalState(
                    self._relation(state.value_attributes(), certain), (), None
                )
            state = self._plain(state)
        values = state.value_attributes()
        need = len(state._world) if state._world is not None else 1
        answer = state._answer
        if isinstance(answer, ArrayRelation):
            # One bincount / np.unique pass over the factorized codes.
            rows = answer.certain_rows(values, need)
        elif len(values) == 1 and isinstance(answer, ColumnarRelation):
            # Count the bare column — no 1-tuple per row.
            counts = Counter(answer.column_values(values[0]))
            rows = [(value,) for value, count in counts.items() if count == need]
        else:
            counts = Counter(tuples_of(answer, values))
            rows = [value for value, count in counts.items() if count == need]
        return PhysicalState(self._relation(values, rows), (), None)

    def _eval_choice(self, query: ChoiceOf) -> PhysicalState:
        state = self._plain(self._eval(query.child))
        n = self._fresh()
        mapping = {a: f"${a}#{n}" for a in query.attrs}
        extended = state._answer
        for attr in query.attrs:
            extended = extended.copy_attribute(attr, mapping[attr])
        choices = state._answer.project(state.ids + query.attrs).rename(mapping)
        world = state._world if state._world is not None else self._unit()
        world = world.left_outer_join_padded(choices)
        self._guard(world)
        return PhysicalState(
            extended, state.ids + tuple(mapping[a] for a in query.attrs), world
        )

    def _eval_group(self, query: PossGroup | CertGroup) -> PhysicalState:
        state = self._plain(self._eval(query.child))
        if not state.ids:
            return PhysicalState(
                state._answer.project(query.proj_attrs), (), None
            )
        answer = state._answer.group_worlds(
            state.ids,
            query.group_attrs,
            query.proj_attrs,
            certain=isinstance(query, CertGroup),
        )
        return PhysicalState(answer, state.ids, state._world)

    def _eval_aggregate(self, query: Aggregate) -> PhysicalState:
        """Per-world SQL aggregation, flat: group on world ids + U.

        The world-id attributes simply join the user's grouping key, so
        all worlds aggregate in one vectorized kernel pass over the flat
        answer table — never one pass per world. A *global* aggregate
        (U = ∅) must produce one row in every world, including worlds
        whose answer is empty: those are padded with the empty-group
        defaults from the world table.
        """
        state = self._plain(self._eval(query.child))
        keys = query.group_attrs + state.ids
        answer = state._answer.aggregate_by(keys, query.specs)
        if not query.group_attrs and state.ids:
            missing = missing_group_rows(
                answer, state.ids, query.specs, state._world_or_unit_any()
            )
            if missing:
                answer = answer.union(
                    self._relation(answer.schema.attributes, missing)
                )
        return PhysicalState(answer, state.ids, state._world)

    def _eval_semijoin(self, query: SemiJoin | AntiJoin) -> PhysicalState:
        """⋉_φ / ▷_φ as hash passes — decorrelated condition subqueries.

        The equality conjuncts of φ become hash-join keys next to the
        shared world-id attributes; the matched pairs project back onto
        the left schema (plus the right operand's extra world ids, on
        which the verdict depends). The antijoin complements against
        the left answer replicated over the right-only world ids — the
        honest output size of ``not in`` over a world-splitting
        subquery, still polynomial in the representation.
        """
        left = self._eval(query.left)
        right = self._eval(query.right)
        # Wild pattern rows join/filter per row with a world-uniform
        # verdict as long as the two operands constrain disjoint
        # factors; the antijoin's complement additionally replicates
        # over right-only ids, which patterns cannot express.
        if _pair_needs_joint(
            left, right, right_extra_ok=isinstance(query, SemiJoin)
        ):
            left, right = self._plain(left), self._plain(right)
        ids, world = self._combine(left, right)
        joined = self._fused_hash_join(query.predicate, left._answer, right._answer)
        right_extra = tuple(v for v in right.ids if v not in set(left.ids))
        keep = left._answer.schema.attributes + right_extra
        matched = joined.project(keep)
        if isinstance(query, SemiJoin):
            return PhysicalState(matched, ids, world, left.wild | right.wild)
        if right_extra:
            assert world is not None
            base = left._answer.natural_join(world.project(left.ids + right_extra))
        else:
            base = left._answer
        return PhysicalState(base.difference(matched), ids, world, left.wild)

    def _eval_pad_join(self, query: PadJoin) -> PhysicalState:
        """=⊳⊲ on the flat tables: one outer-join pass, worlds included.

        The shared world-id attributes join next to the shared value
        attributes, so left rows pad per world exactly when that world's
        right answer misses them. Right-only world ids (a splitting
        right operand) replicate the left answer over the combined world
        table first, keeping the padding per combined world.
        """
        left = self._eval(query.left)
        right = self._eval(query.right)
        # Padding a wild left row is per-row uniform only when the
        # right operand is world-uniform (no replication involved).
        if _pair_needs_joint(left, right, right_extra_ok=False):
            left, right = self._plain(left), self._plain(right)
        ids, world = self._combine(left, right)
        left_answer = left._answer
        right_extra = tuple(v for v in right.ids if v not in set(left.ids))
        if right_extra:
            assert world is not None
            left_answer = left_answer.natural_join(world)
        answer = left_answer.left_outer_join_padded(right._answer)
        return PhysicalState(answer, ids, world, left.wild)

    def _eval_group_keyed(self, query: PossGroupKey | CertGroupKey) -> PhysicalState:
        """pγ^V_K / cγ^V_K: fingerprints come from the key query's answer.

        One pass over each flat answer builds per-world row sets; the
        combined world table then pairs every child world with its key
        answer, so worlds whose child answer is empty still join the
        group their key rows name (an attribute-keyed grouping never
        needs this — its empty worlds fingerprint to ∅ on their own).
        """
        child = self._plain(self._eval(query.child))
        key = self._plain(self._eval(query.key))
        ids, world = self._combine(child, key)
        if not ids:
            return PhysicalState(
                child._answer.project(query.proj_attrs), (), None
            )

        child_rows: dict[tuple, set[tuple]] = {}
        for world_id, row in zip(
            tuples_of(child._answer, child.ids),
            tuples_of(child._answer, query.proj_attrs),
        ):
            bucket = child_rows.get(world_id)
            if bucket is None:
                child_rows[world_id] = {row}
            else:
                bucket.add(row)
        key_value_attrs = tuple(
            a for a in key._answer.schema if a not in set(key.ids)
        )
        key_rows: dict[tuple, set[tuple]] = {}
        for world_id, row in zip(
            tuples_of(key._answer, key.ids),
            tuples_of(key._answer, key_value_attrs),
        ):
            bucket = key_rows.get(world_id)
            if bucket is None:
                key_rows[world_id] = {row}
            else:
                bucket.add(row)

        world_table = world if world is not None else self._unit()
        child_positions = tuple(ids.index(a) for a in child.ids)
        key_positions = tuple(ids.index(a) for a in key.ids)
        certain = isinstance(query, CertGroupKey)
        empty: frozenset = frozenset()
        members: list[tuple[tuple, frozenset]] = []
        folded: dict[frozenset, set[tuple]] = {}
        for combined_id in tuples_of(world_table, ids):
            child_id = tuple(combined_id[p] for p in child_positions)
            key_id = tuple(combined_id[p] for p in key_positions)
            fingerprint = frozenset(key_rows.get(key_id, empty))
            rows = child_rows.get(child_id, empty)
            members.append((combined_id, fingerprint))
            if fingerprint not in folded:
                folded[fingerprint] = set(rows)
            elif certain:
                folded[fingerprint] &= rows
            else:
                folded[fingerprint] |= rows

        out_rows = [
            value + combined_id
            for combined_id, fingerprint in members
            for value in folded[fingerprint]
        ]
        answer = self._relation(query.proj_attrs + ids, out_rows)
        return PhysicalState(answer, ids, world)

    def _combine(
        self, left: PhysicalState, right: PhysicalState
    ) -> tuple[tuple[str, ...], "Relation | ColumnarRelation | None"]:
        """The combined id attributes and world table of a binary node.

        When either operand is factored (disjoint id sets — callers
        de-wild overlapping pairs first), the combination stays
        factored: the other operand's world simply joins the factor
        list, so the product is still never materialized.
        """
        ids = left.ids + tuple(v for v in right.ids if v not in set(left.ids))
        left_world = left._world
        right_world = right._world
        if left_world is None:
            world = right_world
        elif right_world is None:
            world = left_world
        elif isinstance(left_world, FactoredWorld) or isinstance(
            right_world, FactoredWorld
        ):
            world = FactoredWorld(
                (
                    left_world.factors
                    if isinstance(left_world, FactoredWorld)
                    else (as_tuple(left_world),)
                )
                + (
                    right_world.factors
                    if isinstance(right_world, FactoredWorld)
                    else (as_tuple(right_world),)
                )
            )
        else:
            world = left_world.natural_join(right_world)
        self._guard(world)
        return ids, world

    @staticmethod
    def _fused_hash_join(
        predicate: Predicate,
        left_answer: "Relation | ColumnarRelation",
        right_answer: "Relation | ColumnarRelation",
    ) -> "Relation | ColumnarRelation":
        """σ_φ over a world-paired operand pair as one hash join.

        The cross-schema equality conjuncts of φ become hash-join keys
        next to the shared attributes (the world ids); the remaining
        conjuncts filter the (much smaller) join output. Shared by the
        σ_{eq}(R × S) fusion and the semijoin/antijoin operators.
        """
        left_schema = left_answer.schema
        right_schema = right_answer.schema
        left_only = left_schema.as_set() - right_schema.as_set()
        right_only = right_schema.as_set() - left_schema.as_set()
        pairs: list[tuple[str, str]] = []
        residual: list[Predicate] = []
        for conjunct in _split_conjuncts(predicate):
            equalities = conjunct.equality_pairs()
            if equalities is not None and len(equalities) == 1:
                a, b = equalities[0]
                if a in left_only and b in right_only:
                    pairs.append((a, b))
                    continue
                if b in left_only and a in right_only:
                    pairs.append((b, a))
                    continue
            residual.append(conjunct)
        shared = left_schema.common(right_schema)
        joined = left_answer.join_on(right_answer, [(a, a) for a in shared] + pairs)
        if residual:
            joined = joined.select(conjunction(residual))
        return joined

    def _eval_filtered_product(self, query: Select) -> PhysicalState:
        """σ_φ(R × S) fused into one hash join (never the product).

        This is what keeps self-join-with-correlation scripts (the
        paper's business acquisition scenario) polynomial in practice —
        the product of two world-id-heavy tables is quadratic in the
        representation.
        """
        product = query.child
        left = self._eval(product.children()[0])
        right = self._eval(product.children()[1])
        if _pair_needs_joint(left, right, right_extra_ok=True):
            left, right = self._plain(left), self._plain(right)
        ids, world = self._combine(left, right)
        answer = self._fused_hash_join(query.predicate, left._answer, right._answer)
        return PhysicalState(answer, ids, world, left.wild | right.wild)

    def _eval_binary(self, query: WSAQuery) -> PhysicalState:
        left = self._eval(query.children()[0])
        right = self._eval(query.children()[1])
        if isinstance(query, Product):
            # Pattern rows pair row-by-row, so a product of operands
            # over disjoint factors keeps both sides' wildcards.
            if _pair_needs_joint(left, right, right_extra_ok=True):
                left, right = self._plain(left), self._plain(right)
            ids, world = self._combine(left, right)
            return PhysicalState(
                left._answer.natural_join(right._answer),
                ids,
                world,
                left.wild | right.wild,
            )
        # Set operations align whole rows across operands — PAD
        # wildcards and exact ids must not meet, so both sides go joint.
        if _factored_or_wild(left) or _factored_or_wild(right):
            left, right = self._plain(left), self._plain(right)
        ids, world = self._combine(left, right)
        left_answer = left._answer
        right_answer = right._answer
        left_extra = tuple(v for v in right.ids if v not in set(left.ids))
        right_extra = tuple(v for v in left.ids if v not in set(right.ids))
        if left_extra and right._world is not None:
            left_answer = left_answer.natural_join(right._world)
        if right_extra and left._world is not None:
            right_answer = right_answer.natural_join(left._world)
        operations = {
            Union: lambda a, b: a.union(b),
            Intersect: lambda a, b: a.intersection(b),
            Difference: lambda a, b: a.difference(b),
        }
        operation = operations[type(query)]
        return PhysicalState(operation(left_answer, right_answer), ids, world)

    def _eval_repair(self, query: RepairByKey) -> PhysicalState:
        """Repair-by-key over inlined worlds — beyond the RA translation.

        A world-uniform child takes the factored route: one fresh id
        column *per violating key group*, PAD-wildcarded elsewhere, so
        the repaired table is Σ-of-group-sizes rows and the world table
        is a product of per-group factors (:class:`FactoredWorld`) —
        never the ∏-sized joint table the one-joint-id encoding mints.

        A world-splitting child falls back to the joint encoding: a
        single fresh id attribute numbers the repairs within each
        world; the world table pairs every old world id with its repair
        indices (PAD for worlds whose answer is empty).
        """
        state = self._eval(query.child)
        if not state.ids and state._world is None:
            return self._eval_repair_factored(query, state)
        state = self._plain(state)
        repair_attr = f"$repair#{self._fresh()}"
        answer = state._answer
        key_positions = answer.schema.indices(query.attrs)

        per_world: dict[tuple, list[tuple]] = {
            row: [] for row in tuples_of(state._world_or_unit_any(), state.ids)
        }
        for world_id, row in zip(tuples_of(answer, state.ids), iter(answer)):
            bucket = per_world.get(world_id)
            if bucket is None:
                per_world[world_id] = [row]
            else:
                bucket.append(row)

        out_rows: list[tuple] = []
        world_rows: list[tuple] = []
        total = 0
        for world_id, rows in per_world.items():
            count = 0
            for index, repair in enumerate(repairs_of_rows(rows, key_positions)):
                count += 1
                world_rows.append(world_id + (index,))
                out_rows.extend(row + (index,) for row in repair)
            if count == 0:
                world_rows.append(world_id + (PAD,))
            total += max(count, 1)
            if self.max_worlds is not None and total > self.max_worlds:
                raise WorldLimitError(
                    f"repair-by-key exceeded {self.max_worlds} worlds"
                )
        new_answer = self._relation(
            answer.schema.attributes + (repair_attr,), out_rows
        )
        world = self._relation(state.ids + (repair_attr,), world_rows)
        return PhysicalState(new_answer, state.ids + (repair_attr,), world)

    def _eval_repair_factored(
        self, query: RepairByKey, state: PhysicalState
    ) -> PhysicalState:
        """The sum-size repair encoding for a world-uniform child.

        Every violating key group (two or more candidates) gets its own
        fresh wild id column and a single-attribute factor numbering
        its candidates; a candidate row carries its choice index in its
        group's column and PAD (the every-world wildcard) in all other
        fresh columns, and rows with unique keys stay all-PAD. A child
        with no violating groups has exactly one repair — itself — and
        passes through unchanged.
        """
        answer = state._answer
        key_positions = answer.schema.indices(query.attrs)
        base, violating = factored_repair_groups(list(iter(answer)), key_positions)
        if not violating:
            return state
        fresh_attrs: list[str] = []
        factor_relations: list[Relation] = []
        total = 1
        for group in violating:
            attr = f"$repair#{self._fresh()}"
            total *= len(group)
            if self.max_worlds is not None and total > self.max_worlds:
                raise WorldLimitError(
                    f"repair-by-key exceeded {self.max_worlds} worlds"
                )
            fresh_attrs.append(attr)
            factor_relations.append(
                Relation._raw(
                    Schema((attr,)), [(i,) for i in range(len(group))]
                )
            )
        pad = [PAD] * len(fresh_attrs)
        out_rows: list[tuple] = [row + tuple(pad) for row in base]
        for position, group in enumerate(violating):
            for index, row in enumerate(group):
                suffix = list(pad)
                suffix[position] = index
                out_rows.append(row + tuple(suffix))
        new_attrs = tuple(fresh_attrs)
        new_answer = self._relation(
            answer.schema.attributes + new_attrs, out_rows
        )
        return PhysicalState(
            new_answer,
            new_attrs,
            FactoredWorld(factor_relations),
            frozenset(new_attrs),
        )


def _factored_or_wild(state: PhysicalState) -> bool:
    """Does *state* carry the succinct factored/wild encoding?"""
    return bool(state.wild) or isinstance(state._world, FactoredWorld)


def _pair_needs_joint(
    left: PhysicalState, right: PhysicalState, right_extra_ok: bool
) -> bool:
    """Must a two-operand node expand its operands to joint ids?

    Pass-through is sound only when the operands constrain *disjoint*
    factors (a shared wild column would be compared literally — PAD
    against a concrete choice — instead of by world overlap), and, for
    operators that replicate the left answer over right-only ids, only
    when the right operand brings no ids at all.
    """
    if not (_factored_or_wild(left) or _factored_or_wild(right)):
        return False
    if set(left.ids) & set(right.ids):
        return True
    if not right_extra_ok and right.ids:
        return True
    return False


def factored_certain_rows(state: PhysicalState) -> set | None:
    """The certain value rows of a wild factored state, or ``None``.

    The factored division rule: a value row is certain iff an all-PAD
    row covers it (every world of every factor), or some factor's
    choice set for it is that factor's whole domain — the complement
    ∏_j (D_j ∖ S_j) of covering worlds is empty exactly then. Applies
    when every id attribute is a wild single-attribute factor and every
    stored row constrains at most one factor (the repair-by-key shape);
    anything else returns ``None`` and the caller falls back to the
    joint division.
    """
    world = state._world
    if not isinstance(world, FactoredWorld) or not state.ids:
        return None
    factors = world.factors
    if any(len(f.schema.attributes) != 1 for f in factors):
        return None
    attrs = tuple(f.schema.attributes[0] for f in factors)
    if set(attrs) != set(state.ids) or not set(state.ids) <= state.wild:
        return None
    index = {a: j for j, a in enumerate(attrs)}
    domain_sizes = [len(f) for f in factors]
    values = state.value_attributes()
    positions = [index[a] for a in state.ids]
    certain: set = set()
    constrained: dict[tuple, dict[int, set]] = {}
    for value, id_part in zip(
        tuples_of(state._answer, values), tuples_of(state._answer, state.ids)
    ):
        hits = [
            (positions[i], v) for i, v in enumerate(id_part) if v is not PAD
        ]
        if not hits:
            certain.add(value)
        elif len(hits) > 1:
            return None
        else:
            j, choice = hits[0]
            constrained.setdefault(value, {}).setdefault(j, set()).add(choice)
    for value, per_factor in constrained.items():
        if value in certain:
            continue
        if any(
            len(chosen) == domain_sizes[j] for j, chosen in per_factor.items()
        ):
            certain.add(value)
    return certain


def physical_answer(
    query: WSAQuery,
    database: Database,
    max_worlds: int | None = None,
    kernel: str | None = None,
) -> Relation:
    """Evaluate a world-uniform query with the physical operators."""
    return PhysicalEvaluator(database, max_worlds=max_worlds, kernel=kernel).answer(
        query
    )


def evaluate_seeded(
    query: WSAQuery,
    representation: "InlinedRepresentation",
    max_worlds: int | None = None,
    counter_start: int = 0,
    kernel: str | None = None,
) -> tuple[PhysicalState, int]:
    """Evaluate *query* over an inlined world-set (not a single world).

    Returns the final state plus the fresh-id counter value, so a
    session can keep minting collision-free world ids across statements.
    """
    from repro.inline.representation import InlinedRepresentation  # noqa: F401

    schemas = {
        name: representation.value_attributes(name)
        for name in representation.tables
    }
    evaluator = PhysicalEvaluator(
        representation.tables,
        schemas,
        max_worlds=max_worlds,
        base_ids=representation.id_attrs,
        base_world=representation.world_factors,
        counter_start=counter_start,
        kernel=kernel,
        base_wild=representation.wild_attrs,
    )
    return evaluator.evaluate(query), evaluator._counter


def match_answers_to_session_worlds(
    representation: "InlinedRepresentation", state: PhysicalState
) -> tuple[dict[tuple, list[Relation]], tuple[int, ...]]:
    """Group per-world answers by the world-id attributes shared with
    the session. Returns the grouping plus the positions of the shared
    attributes within a *session* world id, so callers can pair every
    session world with the answers agreeing with it."""
    answers = state.answers_by_world()
    session_ids = representation.id_attrs
    state_id_set = set(state.ids)
    shared = tuple(a for a in session_ids if a in state_id_set)
    shared_in_state = tuple(state.ids.index(a) for a in shared)
    shared_in_session = tuple(session_ids.index(a) for a in shared)

    by_shared: dict[tuple, list[Relation]] = {}
    for world_id, answer_relation in answers.items():
        key = tuple(world_id[p] for p in shared_in_state)
        by_shared.setdefault(key, []).append(answer_relation)
    return by_shared, shared_in_session


def decode_extension(
    representation: "InlinedRepresentation", state: PhysicalState, name: str
):
    """Decode ⟦q⟧(A): the base world-set extended with *state*'s answer.

    Mirrors the Figure 3 semantics output: every base world is paired
    with the per-world answers agreeing with it on the shared world-id
    attributes (fresh ids minted during the query fan a base world out
    into several result worlds; equal results collapse by set
    semantics). Worlds are decoded lazily from the flat tables — this is
    the only place the inline evaluation route materializes worlds, and
    it runs only when a caller asks for explicit worlds.
    """
    from repro.relational.schema import Schema
    from repro.worlds.worldset import WorldSet

    by_shared, shared_in_session = match_answers_to_session_worlds(
        representation, state
    )

    worlds = []
    for session_world_id in representation.world_ids():
        key = tuple(session_world_id[p] for p in shared_in_session)
        base_world = representation.world(session_world_id)
        for answer_relation in by_shared.get(key, ()):
            worlds.append(base_world.extend(name, answer_relation))

    signature = tuple(
        (table, Schema(representation.value_attributes(table)))
        for table in representation.tables
    ) + ((name, Schema(state.value_attributes())),)
    return WorldSet(worlds, signature)
