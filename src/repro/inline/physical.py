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
* repair-by-key is supported natively (one fresh wild id column per
  violating key group, each a separate world factor) — an operator
  the relational translation cannot express at all (Proposition 4.2).

Every state's world is a :class:`~repro.inline.factors.FactoredWorld`
(zero factors for the single world {⟨⟩}, one empty factor for the
empty world-set), and a binary operator joins only the factors its
operands share; the product of independent factors is built only by an
operator that needs one id table.

The evaluator runs on a pluggable relation *kernel*
(:mod:`repro.relational.columnar`): ``kernel="columnar"`` (the
``REPRO_KERNEL`` default) runs every operator as a vectorized
column-slice implementation, ``kernel="array"`` as numpy code passes,
and ``kernel="tuple"`` keeps the original frozenset-of-rows engine
alive for differential testing. Base tables and world factors are
converted into the kernel through its cached ``convert`` once per
session; conversion back happens only at the :class:`Relation` API
boundary — :attr:`PhysicalState.answer` converts lazily on first
access, and a commit stores tuple-engine factors.

The evaluator is validated against the Figure 3 reference semantics by
the same differential test suites as the two translators, and the three
kernels are held to identical answers by ``tests/backend`` and
``tests/relational/test_columnar_differential.py``.
"""

from __future__ import annotations

import functools
from collections import Counter
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
from repro.inline.translate import LoweredPlan, SchemaLike, _schema_env, lower_query
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
from repro.relational.guards import checkpoint, record_ops
from repro.relational.pad import PAD
from repro.relational.predicates import And, Predicate, conjunction
from repro.relational.relation import Relation
from repro.relational.schema import Schema


def _split_conjuncts(predicate: Predicate) -> list[Predicate]:
    """Flatten a conjunction into its top-level conjuncts."""
    if isinstance(predicate, And):
        return _split_conjuncts(predicate.left) + _split_conjuncts(predicate.right)
    return [predicate]


class PhysicalState:
    """One evaluated subquery: answer table, id attributes, world table.

    Mirrors :class:`repro.inline.optimized.OptimizedState`, but holds
    materialized relations rather than expressions. :attr:`world` is
    always a :class:`FactoredWorld` over exactly the :attr:`ids`: zero
    factors is the single world {⟨⟩}, one empty factor the empty
    world-set, and independent choices stay separate factors whose
    product is built only by an operator that needs one id table.

    The answer and the world's factors live in whichever kernel
    evaluated them; the :attr:`answer` accessor converts to the tuple
    engine lazily (cached), so consumers outside the evaluator see a
    plain :class:`Relation`. The id attributes listed in :attr:`wild`
    are *wild* factor columns: a ``PAD`` in such a column means the
    row is in every world of that factor (the repair-by-key sum-size
    encoding). :meth:`plain` expands those patterns for the consumers
    that genuinely need exact ids.

    States are immutable once built (the lazy conversions above only
    cache), which is what lets the inline backend's result memo share
    one state across repeated executions of the same statement. The
    decode is cached too: :meth:`world_answers` runs its kernel ops
    once per state, and a cached call replays their checkpoints with
    the same row counts, so a memo hit meets budgets, fault hooks and
    op counts exactly as a decode of the same warm state would (the
    memo stores a fresh twin of the evaluated state, so only hits fill
    that cache on a memo entry). Memo
    sharing is additionally restricted to states whose :attr:`ids` and
    :attr:`wild` already existed on the input representation — a state
    carrying *freshly minted* world ids (``choice of`` /
    ``repair by key``) is never memoized, so replaying a memo entry
    can never collide with ids minted later.
    """

    __slots__ = ("_answer", "ids", "world", "wild", "_plain_state", "_decoded")

    def __init__(
        self,
        answer: "Relation | ColumnarRelation",
        ids: tuple[str, ...],
        world: FactoredWorld,
        wild: frozenset = frozenset(),
    ) -> None:
        self._answer = answer
        self.ids = ids
        self.world = world
        self.wild = wild
        self._plain_state: "PhysicalState | None" = None
        self._decoded: "tuple[frozenset[Relation], tuple] | None" = None

    @property
    def answer(self) -> Relation:
        answer = self._answer
        if not isinstance(answer, Relation):
            answer = self._answer = as_tuple(answer)
        return answer

    def value_attributes(self) -> tuple[str, ...]:
        ids = set(self.ids)
        return tuple(a for a in self._answer.schema if a not in ids)

    def plain(self) -> "PhysicalState":
        """This state with exact ids (cached): wild PAD patterns expand
        over their factors' domains, and the world stays factored.

        The explicit escape hatch out of the sum-size answer encoding,
        used by decoding and by operators that match ids row by row.
        """
        if not self.wild:
            return self
        cached = self._plain_state
        if cached is not None:
            return cached
        cached = PhysicalState(
            self.world.expand_pads(self._answer, self.wild), self.ids, self.world
        )
        self._plain_state = cached
        return cached

    def answers_by_world(self) -> dict[tuple, Relation]:
        """Decode: the answer relation per world id (empty worlds kept)."""
        state = self.plain()
        return answers_per_world(
            state._answer,
            state.ids,
            state.value_attributes(),
            state.world.materialize(),
        )

    def world_answers(self) -> frozenset[Relation]:
        """The distinct per-world answers, as one ``world_answers``
        kernel op (no per-world decode on the array kernel); cached,
        with the decode's checkpoints replayed on every later call."""
        cached = self._decoded
        if cached is not None:
            answers, ops = cached
            for op, rows in ops:
                checkpoint(op, rows)
            return answers
        state = self.plain()
        with record_ops() as ops:
            answers = state._answer.world_answers(
                state.ids, state.value_attributes(), state.world.materialize()
            )
        self._decoded = (answers, tuple(ops))
        return answers


class PhysicalEvaluator:
    """Evaluates world-set algebra directly over an inlined database.

    By default the database is a *complete* database (a single world,
    W = {⟨⟩}). Passing *base_ids* and *base_world* seeds the evaluation
    with an existing inlined world-set instead: every base table is then
    expected to carry the *base_ids* columns it depends on, and
    base-relation states start from projections of the given
    :class:`FactoredWorld`, whose factors are converted once into this
    evaluator's kernel — this is how the
    :class:`repro.backend.InlineBackend` evaluates statements against a
    session whose state has already split into worlds. *counter_start*
    offsets the fresh world-id counter so that ids minted by earlier
    statements are never reused. *kernel* selects the relation engine
    (``"columnar"``, ``"array"`` or ``"tuple"``; None reads
    ``REPRO_KERNEL``).
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
        self._schemas = schemas
        self.max_worlds = max_worlds
        self.base_ids = tuple(base_ids)
        self.base_wild = frozenset(base_wild)
        ops = kernel_ops(kernel)
        self.kernel = ops.name
        self._convert = ops.convert
        self._from_distinct_rows = ops.from_distinct_rows
        factors = base_world.factors if base_world is not None else ()
        self.base_world = FactoredWorld(tuple(map(self._convert, factors)))
        self._counter = counter_start
        self._world_projections: dict[tuple[str, ...], FactoredWorld] = {}

    @functools.cached_property
    def env(self) -> dict[str, Schema]:
        """The catalog's value schemas, for validating and lowering a
        query — built only when :meth:`evaluate` needs them."""
        return _schema_env(self._schemas or self.database.schemas())

    def _fresh(self) -> int:
        self._counter += 1
        return self._counter

    def _plain(self, state: PhysicalState) -> PhysicalState:
        """*state* with exact ids, its answer in this evaluator's kernel."""
        plain = state.plain()
        if plain is state:
            return state
        return PhysicalState(self._convert(plain._answer), plain.ids, plain.world)

    def _joint(self, world: FactoredWorld) -> "Relation | ColumnarRelation":
        """*world* as one id table in this kernel — the factor itself
        for a one-factor world, so only a multi-factor world joins."""
        return world.materialize() if world.factors else kernel_unit(self.kernel)

    def _guard(self, world: FactoredWorld) -> None:
        if self.max_worlds is not None and world.count() > self.max_worlds:
            raise WorldLimitError(
                f"physical evaluation exceeded {self.max_worlds} worlds"
            )

    def _relation(self, attributes: Sequence[str], rows) -> "Relation | ColumnarRelation":
        """Build a kernel relation from *distinct* aligned row tuples."""
        return self._from_distinct_rows(Schema(tuple(attributes)), rows)

    # -- entry points ------------------------------------------------------------

    def evaluate(self, query: WSAQuery | LoweredPlan) -> PhysicalState:
        """Evaluate *query*; the state exposes per-world answers.

        A :class:`LoweredPlan` was validated and lowered when it was
        compiled, so it runs as it is.
        """
        if isinstance(query, LoweredPlan):
            return self._eval(query.plan)
        query.attributes(self.env)
        return self._eval(lower_query(query, self.env))

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
        only the id attributes it depends on; its world is the base
        world projected onto those ids, factor by factor. A table
        without ids projects to {⟨⟩} — or to ∅ over the empty
        world-set."""
        table = self._convert(self.database[name])
        schema = table.schema.as_set()
        ids = tuple(a for a in self.base_ids if a in schema)
        world = self._world_projections.get(ids)
        if world is None:
            base = self.base_world
            world = base if set(ids) == set(base.ids) else base.project(ids)
            self._world_projections[ids] = world
        return PhysicalState(table, ids, world, self.base_wild.intersection(ids))

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
                state.world,
                state.wild,
            )
        if isinstance(query, Project):
            state = self._eval(query.child)
            return PhysicalState(
                state._answer.project(query.attrs + state.ids),
                state.ids,
                state.world,
                state.wild,
            )
        if isinstance(query, Rename):
            state = self._eval(query.child)
            return PhysicalState(
                state._answer.rename(query.mapping),
                state.ids,
                state.world,
                state.wild,
            )
        if isinstance(query, ChoiceOf):
            return self._eval_choice(query)
        if isinstance(query, Poss):
            state = self._eval(query.child)
            return PhysicalState(
                state._answer.project(state.value_attributes()),
                (),
                state.world.project(()),
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
        per-group id-set materialization, and |W| is the product of
        the factor sizes, never a joint table.

        A wild answer first tries the factored division, which never
        expands a pattern: a value is certain iff an all-PAD row covers
        it or one factor's choice set for it is the whole factor — a
        product of per-factor checks (see :func:`factored_certain_rows`).
        """
        state = self._eval(query.child)
        if not state.ids:
            return state
        world = state.world.project(())
        certain = factored_certain_rows(state)
        if certain is not None:
            return PhysicalState(
                self._relation(state.value_attributes(), certain), (), world
            )
        state = self._plain(state)
        values = state.value_attributes()
        need = state.world.count()
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
        return PhysicalState(self._relation(values, rows), (), world)

    def _eval_choice(self, query: ChoiceOf) -> PhysicalState:
        state = self._plain(self._eval(query.child))
        n = self._fresh()
        mapping = {a: f"${a}#{n}" for a in query.attrs}
        extended = state._answer
        for attr in query.attrs:
            extended = extended.copy_attribute(attr, mapping[attr])
        choices = state._answer.project(state.ids + query.attrs).rename(mapping)
        world = FactoredWorld(
            (self._joint(state.world).left_outer_join_padded(choices),)
        )
        self._guard(world)
        return PhysicalState(
            extended, state.ids + tuple(mapping[a] for a in query.attrs), world
        )

    def _eval_group(self, query: PossGroup | CertGroup) -> PhysicalState:
        state = self._plain(self._eval(query.child))
        if not state.ids:
            return PhysicalState(
                state._answer.project(query.proj_attrs), (), state.world
            )
        answer = state._answer.group_worlds(
            state.ids,
            query.group_attrs,
            query.proj_attrs,
            certain=isinstance(query, CertGroup),
        )
        return PhysicalState(answer, state.ids, state.world)

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
                answer, state.ids, query.specs, self._joint(state.world)
            )
            if missing:
                answer = answer.union(
                    self._relation(answer.schema.attributes, missing)
                )
        return PhysicalState(answer, state.ids, state.world)

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
        base = left._answer
        if right_extra:
            base = base.natural_join(self._joint(world))
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
        if any(v not in set(left.ids) for v in right.ids):
            left_answer = left_answer.natural_join(self._joint(world))
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
                child._answer.project(query.proj_attrs), (), world
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

        child_positions = tuple(ids.index(a) for a in child.ids)
        key_positions = tuple(ids.index(a) for a in key.ids)
        certain = isinstance(query, CertGroupKey)
        empty: frozenset = frozenset()
        members: list[tuple[tuple, frozenset]] = []
        folded: dict[frozenset, set[tuple]] = {}
        for combined_id in tuples_of(self._joint(world), ids):
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
    ) -> tuple[tuple[str, ...], FactoredWorld]:
        """The combined id attributes and world of a binary node: the
        two worlds joined factor by factor (see
        :meth:`FactoredWorld.combine`), so independent factors stay
        apart and their product is never built here."""
        ids = left.ids + tuple(v for v in right.ids if v not in set(left.ids))
        world = left.world.combine(right.world)
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
        # wildcards and exact ids must not meet, so both sides go exact,
        # and each side replicates over the ids only the other carries.
        left, right = self._plain(left), self._plain(right)
        ids, world = self._combine(left, right)
        left_answer = left._answer
        right_answer = right._answer
        if any(v not in set(left.ids) for v in right.ids):
            left_answer = left_answer.natural_join(self._joint(right.world))
        if any(v not in set(right.ids) for v in left.ids):
            right_answer = right_answer.natural_join(self._joint(left.world))
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
        if not state.ids:
            return self._eval_repair_factored(query, state)
        state = self._plain(state)
        repair_attr = f"$repair#{self._fresh()}"
        answer = state._answer
        key_positions = answer.schema.indices(query.attrs)

        per_world: dict[tuple, list[tuple]] = {
            row: [] for row in tuples_of(self._joint(state.world), state.ids)
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
        return PhysicalState(
            new_answer, state.ids + (repair_attr,), FactoredWorld((world,))
        )

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
        passes through unchanged, as does a child over the empty
        world-set, which has no world to repair.
        """
        answer = state._answer
        key_positions = answer.schema.indices(query.attrs)
        base, violating = factored_repair_groups(list(iter(answer)), key_positions)
        if not violating or not state.world.count():
            return state
        fresh_attrs: list[str] = []
        factor_relations: list = []
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
                self._relation((attr,), [(i,) for i in range(len(group))])
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


def _pair_needs_joint(
    left: PhysicalState, right: PhysicalState, right_extra_ok: bool
) -> bool:
    """Must a two-operand node expand its operands' wild patterns?

    Pattern pass-through is sound only when the operands constrain
    *disjoint* factors (a shared wild column would be compared
    literally — PAD against a concrete choice — instead of by world
    overlap), and, for operators that replicate the left answer over
    right-only ids, only when the right operand brings no ids at all.
    Operands without wild columns carry exact ids and never expand.
    """
    if not (left.wild or right.wild):
        return False
    if set(left.ids) & set(right.ids):
        return True
    return not right_extra_ok and bool(right.ids)


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
    if not state.ids or not set(state.ids) <= state.wild:
        return None
    factors = state.world.factors
    if any(len(f.schema.attributes) != 1 for f in factors):
        return None
    attrs = tuple(f.schema.attributes[0] for f in factors)
    if set(attrs) != set(state.ids):
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
    query: WSAQuery | LoweredPlan,
    representation: "InlinedRepresentation",
    max_worlds: int | None = None,
    counter_start: int = 0,
    kernel: str | None = None,
) -> tuple[PhysicalState, int]:
    """Evaluate *query* over an inlined world-set (not a single world).

    Returns the final state plus the fresh-id counter value, so a
    session can keep minting collision-free world ids across statements.
    """
    evaluator = PhysicalEvaluator(
        representation.tables,
        representation.value_schemas(),
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
