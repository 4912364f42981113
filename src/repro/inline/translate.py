"""The general world-set-algebra → relational-algebra translation (Figure 6).

Given a world-set algebra query and an inlined representation schema,
the translator produces *relational algebra expressions* computing the
output representation ⟨R'₁, …, R'_k, R'_{k+1}, W'⟩, where R'_{k+1}
encodes the answer. Composing those expressions yields Theorem 5.7: a
1↦1 query is equivalent to a single relational algebra query of
polynomial size over the complete input database.

Implementation notes on the paper's formulas (see DESIGN.md):

* the choice-of world-table update ``W' = W =⊳⊲ δ_{B→V_B}(R)`` is
  implemented with R first projected to its id and choice attributes,
  so W' carries only id attributes;
* the grouping relation S' ("an equivalence relation over world ids")
  is computed symmetrically — pairs of worlds whose answer projections
  are *equal*, not merely contained;
* the cγ helper relations P/P' are read as: a tuple is dropped from a
  group when it misses *some* world of the group (the literal
  projection lists in Figure 6 are garbled; Example 5.4 and the
  reference semantics pin the intent).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import TranslationError, TypingError, WorldLimitError
from repro.core.ast import (
    ActiveDomain,
    Aggregate,
    AntiJoin,
    Cert,
    CertGroup,
    CertGroupKey,
    ChoiceOf,
    Difference,
    Divide,
    Intersect,
    NaturalJoin,
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
    ThetaJoin,
    Union,
    WSAQuery,
    _NaturalJoinExpansion,
)
from repro.core.typing import is_complete_to_complete
from repro.inline.representation import InlinedRepresentation
from repro.relational import algebra as ra
from repro.relational.columnar import as_tuple, kernel_ops
from repro.relational.database import Database
from repro.relational.predicates import conjunction, eq
from repro.relational.relation import Relation
from repro.relational.schema import Schema

SchemaLike = Mapping[str, Schema | Sequence[str]]


def _schema_env(schemas: SchemaLike) -> dict[str, Schema]:
    env: dict[str, Schema] = {}
    for name, schema in schemas.items():
        env[name] = schema if isinstance(schema, Schema) else Schema(schema)
    return env


def lower_query(query: WSAQuery, env: Mapping[str, Schema]) -> WSAQuery:
    """Expand derived operators (θ-join, natural join, ÷) to base ones."""
    children = tuple(lower_query(child, env) for child in query.children())
    if isinstance(query, ThetaJoin):
        return Select(query.predicate, Product(children[0], children[1]))
    if isinstance(query, (NaturalJoin, _NaturalJoinExpansion)):
        return _NaturalJoinExpansion(children[0], children[1]).expand(env)
    if isinstance(query, Divide):
        return Divide(children[0], children[1]).expand(env)
    if children != query.children():
        return query._with_children(children)
    return query


class LoweredPlan:
    """A plan validated against its catalog and lowered (:func:`lower_query`).

    The form a compiled plan is cached and run in:
    :func:`repro.inline.physical.evaluate_seeded` runs it as it is, with
    no validation, lowering or schema environment per execution.
    """

    __slots__ = ("plan",)

    def __init__(self, plan: WSAQuery) -> None:
        self.plan = plan

    def __repr__(self) -> str:
        return f"LoweredPlan({self.plan.to_text()})"


class TranslationState:
    """The inlined-representation expressions at one translation point."""

    __slots__ = ("tables", "world", "ids")

    def __init__(
        self,
        tables: dict[str, ra.RAExpr],
        world: ra.RAExpr,
        ids: tuple[str, ...],
    ) -> None:
        self.tables = tables
        self.world = world
        self.ids = ids


class GeneralTranslation:
    """The result of translating one query: expressions plus metadata."""

    __slots__ = ("query", "state", "answer", "value_attrs", "source", "counter")

    def __init__(
        self,
        query: WSAQuery,
        state: TranslationState,
        answer: ra.RAExpr,
        value_attrs: tuple[str, ...],
        source: InlinedRepresentation | None,
        counter: int = 0,
    ) -> None:
        self.query = query
        self.state = state
        self.answer = answer
        self.value_attrs = value_attrs
        self.source = source
        self.counter = counter

    def apply(
        self,
        representation: InlinedRepresentation | None = None,
        name: str = "Q",
        max_worlds: int | None = None,
        kernel: str | None = None,
    ) -> InlinedRepresentation:
        """Evaluate all expressions, producing the output representation.

        The answer table is added under *name* (R_{k+1} of Section 5.2).
        The world table is evaluated *first* so that a *max_worlds*
        guard fires before the (often much larger) per-table and answer
        expressions are materialized; the shared cache carries its
        subresults over to them.

        With a vectorized *kernel* (``columnar``, the ``REPRO_KERNEL``
        default, or ``array``) the base tables enter the relational
        algebra DAG as that kernel's views and every operator runs its
        vectorized implementation; the output converts back to tuple
        relations at this method's boundary, so the returned
        representation is kernel-agnostic.
        """
        rep = representation if representation is not None else self.source
        if rep is None:
            raise TranslationError("no input representation supplied")
        database = rep.as_database()
        convert = kernel_ops(kernel).convert
        database = Database(
            (table, convert(relation)) for table, relation in database.items()
        )
        cache: dict[int, Relation] = {}
        world = self.state.world._cached(database, cache)
        if max_worlds is not None and len(world) > max_worlds:
            raise WorldLimitError(
                f"translated evaluation exceeded {max_worlds} worlds"
            )
        tables = [
            (table, as_tuple(expression._cached(database, cache)))
            for table, expression in self.state.tables.items()
        ]
        tables.append((name, as_tuple(self.answer._cached(database, cache))))
        return InlinedRepresentation(tables, as_tuple(world), self.state.ids)

    def answer_size(self) -> int:
        """Operator count of the answer expression (polynomial in |q|)."""
        return self.answer.size()


class GeneralTranslator:
    """Implements the translation function ⟦·⟧τ of Figure 6.

    *counter_start* offsets the fresh world-id attribute counter so a
    session translating one statement after another never reuses an id
    attribute name already present in its state.
    """

    def __init__(
        self,
        value_schemas: SchemaLike,
        base_ids: Sequence[str] = (),
        counter_start: int = 0,
        world_factors: Sequence[tuple[str, Sequence[str]]] = (),
    ) -> None:
        self.env = _schema_env(value_schemas)
        self.base_ids = tuple(base_ids)
        #: (table name, id attributes) per stored world table (see
        #: :meth:`InlinedRepresentation.factor_tables`): the translated
        #: W is their join.
        self.world_factors = tuple(
            (name, tuple(attrs)) for name, attrs in world_factors
        )
        if self.base_ids and not self.world_factors:
            raise TranslationError("base id attributes need world tables")
        self._counter = counter_start

    # -- fresh attribute names ---------------------------------------------------

    def _fresh(self) -> int:
        self._counter += 1
        return self._counter

    def _choice_ids(self, attrs: Sequence[str]) -> dict[str, str]:
        n = self._fresh()
        return {a: f"${a}#{n}" for a in attrs}

    def _group_ids(self, ids: Sequence[str]) -> dict[str, str]:
        n = self._fresh()
        return {v: f"$g{n}.{v.lstrip('$')}" for v in ids}

    def _primed(self, attrs: Sequence[str]) -> dict[str, str]:
        n = self._fresh()
        return {a: f"{a}⋆{n}" for a in attrs}

    # -- entry points --------------------------------------------------------------

    def translate(self, query: WSAQuery) -> tuple[TranslationState, ra.RAExpr]:
        """Translate *query*, returning the final state and answer expression."""
        query.attributes(self.env)  # validate up front
        lowered = lower_query(query, self.env)
        initial = TranslationState(
            {name: ra.Table(name) for name in self.env},
            self._initial_world(),
            self.base_ids,
        )
        return self._translate(lowered, initial)

    def _initial_world(self) -> ra.RAExpr:
        """W as an expression: the join of the stored world tables
        (disjoint ids, so the join is their product) — even without
        ids, where the stored table is {⟨⟩} or the empty world-set ∅ —
        or the literal {⟨⟩} when no world table is given."""
        if not self.world_factors:
            return ra.Literal(Relation.unit())
        world: ra.RAExpr = ra.Table(self.world_factors[0][0])
        for factor_name, _ in self.world_factors[1:]:
            world = ra.NaturalJoin(world, ra.Table(factor_name))
        return world

    # -- the translation, by case -----------------------------------------------------

    def _translate(
        self, query: WSAQuery, state: TranslationState
    ) -> tuple[TranslationState, ra.RAExpr]:
        if isinstance(query, Rel):
            return state, state.tables[query.name]
        if isinstance(query, Select):
            state, answer = self._translate(query.child, state)
            return state, ra.Select(query.predicate, answer)
        if isinstance(query, Project):
            state, answer = self._translate(query.child, state)
            return state, ra.Project(query.attrs + state.ids, answer)
        if isinstance(query, Rename):
            state, answer = self._translate(query.child, state)
            return state, ra.Rename(query.mapping, answer)
        if isinstance(query, ChoiceOf):
            return self._translate_choice(query, state)
        if isinstance(query, Poss):
            state, answer = self._translate(query.child, state)
            values = self._value_attrs(answer, state)
            return state, ra.Product(ra.Project(values, answer), state.world)
        if isinstance(query, Cert):
            state, answer = self._translate(query.child, state)
            return state, ra.Product(ra.Divide(answer, state.world), state.world)
        if isinstance(query, (PossGroup, CertGroup)):
            return self._translate_group(query, state)
        if isinstance(query, (PossGroupKey, CertGroupKey)):
            return self._translate_group_keyed(query, state)
        if isinstance(query, Aggregate):
            return self._translate_aggregate(query, state)
        if isinstance(query, (SemiJoin, AntiJoin)):
            return self._translate_semijoin(query, state)
        if isinstance(query, PadJoin):
            return self._translate_pad_join(query, state)
        if isinstance(query, (Product, Union, Intersect, Difference)):
            return self._translate_binary(query, state)
        if isinstance(query, RepairByKey):
            raise TranslationError(
                "repair-by-key exceeds relational algebra (Proposition 4.2)"
            )
        if isinstance(query, ActiveDomain):
            raise TranslationError(
                "the active-domain relation of Proposition 6.3 is not part "
                "of the Figure 6 translation"
            )
        raise TranslationError(f"untranslatable node {type(query).__name__}")

    def _value_attrs(self, answer: ra.RAExpr, state: TranslationState) -> tuple[str, ...]:
        schema = answer.schema(self._ra_env(state))
        ids = set(state.ids)
        return tuple(a for a in schema if a not in ids)

    def _ra_env(self, state: TranslationState) -> dict[str, Schema]:
        env: dict[str, Schema] = {}
        for name, schema in self.env.items():
            env[name] = Schema(schema.attributes + self.base_ids)
        for factor_name, attrs in self.world_factors:
            env[factor_name] = Schema(attrs)
        return env

    def _translate_choice(
        self, query: ChoiceOf, state: TranslationState
    ) -> tuple[TranslationState, ra.RAExpr]:
        state, answer = self._translate(query.child, state)
        mapping = self._choice_ids(query.attrs)
        # W' = W =⊳⊲ δ_{B→V_B}(π_{V,B}(R)): pad worlds with an empty
        # answer using the constant c (the dummy choice of Figure 3).
        choices = ra.Rename(mapping, ra.Project(state.ids + query.attrs, answer))
        world = ra.OuterJoinPad(state.world, choices)
        # R' = π_{D,V,B as V_B}(R): copy the choice attributes as ids.
        extended = answer
        for attr in query.attrs:
            extended = ra.CopyAttr(attr, mapping[attr], extended)
        tables = {
            name: ra.NaturalJoin(expression, world)
            for name, expression in state.tables.items()
        }
        new_state = TranslationState(
            tables, world, state.ids + tuple(mapping[a] for a in query.attrs)
        )
        return new_state, extended

    def _translate_group(
        self, query: PossGroup | CertGroup, state: TranslationState
    ) -> tuple[TranslationState, ra.RAExpr]:
        state, answer = self._translate(query.child, state)
        ids = state.ids
        if not ids:
            # A single world forms a single group: grouping degenerates
            # to the projection π_V.
            return state, ra.Project(query.proj_attrs, answer)
        group_map = self._group_ids(ids)
        group_ids = tuple(group_map[v] for v in ids)
        grouping = query.group_attrs
        projection = query.proj_attrs

        # --- the γ^B_A helper of Figure 6 -------------------------------
        # Pairs of world ids whose answers agree on π_A form the
        # equivalence relation S' (symmetric by construction).
        by_group = ra.Project(grouping + ids, answer)            # π_{A,V}(R)
        ids_only = ra.Project(ids, answer)                        # π_V(R)
        partners = ra.Rename(group_map, ids_only)                 # π_{V2}(δ(R))
        all_pairs = ra.Product(ids_only, partners)
        primed = self._primed(grouping)
        partner_values = ra.Rename(
            {**primed, **group_map}, ra.Project(grouping + ids, answer)
        )
        agree_condition = conjunction([eq(a, primed[a]) for a in grouping])
        agree = ra.Project(
            grouping + ids + group_ids,
            ra.ThetaJoin(agree_condition, by_group, partner_values)
            if grouping
            else ra.Product(by_group, partner_values),
        )
        missing_left = ra.Project(
            ids + group_ids, ra.Difference(ra.Product(by_group, partners), agree)
        )
        swap = {**group_map, **{g: v for v, g in group_map.items()}}
        missing_right = ra.Rename(swap, missing_left)
        equivalence = ra.Difference(
            ra.Difference(all_pairs, missing_left), missing_right
        )
        grouped = ra.Project(
            projection + ids + group_ids, ra.NaturalJoin(answer, equivalence)
        )

        inverse = {g: v for v, g in group_map.items()}
        candidates = ra.Rename(inverse, ra.Project(projection + group_ids, grouped))
        if isinstance(query, PossGroup):
            # pγ: drop the old world ids, rename group ids back to V.
            return state, candidates
        # cγ: drop tuples that miss some world of their group.
        candidate_pairs = ra.NaturalJoin(
            ra.Project(projection + group_ids, grouped), equivalence
        )
        missing = ra.Difference(
            ra.Project(projection + ids + group_ids, candidate_pairs),
            ra.Project(projection + ids + group_ids, grouped),
        )
        not_certain = ra.Rename(inverse, ra.Project(projection + group_ids, missing))
        return state, ra.Difference(candidates, not_certain)

    def _combined_state(
        self, state: TranslationState, left: TranslationState, right: TranslationState
    ) -> TranslationState:
        """The state after a binary node: joined worlds, unioned ids.

        Shared by every binary translation (products, set operators,
        semijoins, the pad join, keyed grouping): the world tables join,
        the fresh ids of both operands follow the inherited ones, and
        every base table rejoins the new world table.
        """
        world = ra.NaturalJoin(left.world, right.world)
        new_left = tuple(v for v in left.ids if v not in set(state.ids))
        new_right = tuple(v for v in right.ids if v not in set(state.ids))
        ids = state.ids + new_left + new_right
        tables = {
            name: ra.NaturalJoin(expression, world)
            for name, expression in state.tables.items()
        }
        return TranslationState(tables, world, ids)

    def _translate_aggregate(
        self, query: Aggregate, state: TranslationState
    ) -> tuple[TranslationState, ra.RAExpr]:
        """SQL aggregation on the inlined tables: ids join the group key.

        ``R' = γ_{U ∪ V; specs}(R)`` — grouping on the user attributes
        plus the world ids aggregates every world in one pass. A global
        aggregate (U = ∅) pads worlds without answer rows from W, so
        each world still answers with the empty-group defaults.
        """
        state, answer = self._translate(query.child, state)
        keys = query.group_attrs + state.ids
        pad = state.world if (not query.group_attrs and state.ids) else None
        return state, ra.GroupAggregate(keys, query.specs, answer, pad)

    def _translate_semijoin(
        self, query: SemiJoin | AntiJoin, state: TranslationState
    ) -> tuple[TranslationState, ra.RAExpr]:
        """⋉_φ / ▷_φ: σ_φ over the id-joined operands, projected back.

        The natural join pairs tuples of compatible worlds (the shared
        id attributes); φ keeps the partnered pairs and the projection
        drops the right operand's value attributes, keeping its extra
        world ids — the antijoin complements against the left answer
        replicated over those ids (R ⋈ W').
        """
        left_state, left = self._translate(query.left, state)
        right_state, right = self._translate(query.right, state)
        new_state = self._combined_state(state, left_state, right_state)
        ids = new_state.ids
        env = self._ra_env(new_state)
        left_attrs = left.schema(env).attributes
        keep = left_attrs + tuple(a for a in ids if a not in set(left_attrs))
        matched = ra.Project(keep, ra.Select(query.predicate, ra.NaturalJoin(left, right)))
        if isinstance(query, SemiJoin):
            return new_state, matched
        base = ra.Project(keep, ra.NaturalJoin(left, new_state.world))
        return new_state, ra.Difference(base, matched)

    def _translate_pad_join(
        self, query: PadJoin, state: TranslationState
    ) -> tuple[TranslationState, ra.RAExpr]:
        """=⊳⊲ through the RA extension operator of Remark 5.5.

        The left answer joins the combined world table first (so a
        splitting right operand pads per combined world), then the
        ``OuterJoinPad`` node does the padded join — shared world ids
        are join attributes like the shared value attributes.
        """
        left_state, left = self._translate(query.left, state)
        right_state, right = self._translate(query.right, state)
        new_state = self._combined_state(state, left_state, right_state)
        extended = ra.NaturalJoin(left, new_state.world) if new_state.ids else left
        return new_state, ra.OuterJoinPad(extended, right)

    def _translate_group_keyed(
        self, query: PossGroupKey | CertGroupKey, state: TranslationState
    ) -> tuple[TranslationState, ra.RAExpr]:
        """The Figure 6 grouping construction keyed by a companion query.

        Identical to :meth:`_translate_group` except that (a) the
        equivalence relation S' compares the *key* query's answer rows
        (extended to the combined ids via K ⋈ W) instead of a projection
        of the child's, and (b) world ids range over π_V(W) rather than
        π_V(R) — a world with an empty child answer still belongs to the
        group its key rows name, and within cγ it correctly empties it.
        """
        child_state, answer = self._translate(query.child, state)
        key_state, key_answer = self._translate(query.key, state)
        new_state = self._combined_state(state, child_state, key_state)
        world, ids = new_state.world, new_state.ids
        if not ids:
            return new_state, ra.Project(query.proj_attrs, answer)
        env = self._ra_env(new_state)
        key_attrs = tuple(
            a for a in key_answer.schema(env) if a not in set(ids)
        )
        projection = query.proj_attrs
        group_map = self._group_ids(ids)
        group_ids = tuple(group_map[v] for v in ids)

        # Extend both answers to the combined ids.
        extended = ra.NaturalJoin(answer, world)
        keyed = ra.NaturalJoin(key_answer, world)

        by_group = ra.Project(key_attrs + ids, keyed)
        ids_only = ra.Project(ids, world)  # every world, even empty-answer ones
        partners = ra.Rename(group_map, ids_only)
        all_pairs = ra.Product(ids_only, partners)
        primed = self._primed(key_attrs)
        partner_values = ra.Rename(
            {**primed, **group_map}, ra.Project(key_attrs + ids, keyed)
        )
        agree_condition = conjunction([eq(a, primed[a]) for a in key_attrs])
        agree = ra.Project(
            key_attrs + ids + group_ids,
            ra.ThetaJoin(agree_condition, by_group, partner_values)
            if key_attrs
            else ra.Product(by_group, partner_values),
        )
        missing_left = ra.Project(
            ids + group_ids, ra.Difference(ra.Product(by_group, partners), agree)
        )
        swap = {**group_map, **{g: v for v, g in group_map.items()}}
        missing_right = ra.Rename(swap, missing_left)
        equivalence = ra.Difference(
            ra.Difference(all_pairs, missing_left), missing_right
        )
        grouped = ra.Project(
            projection + ids + group_ids, ra.NaturalJoin(extended, equivalence)
        )

        inverse = {g: v for v, g in group_map.items()}
        candidates = ra.Rename(inverse, ra.Project(projection + group_ids, grouped))
        if isinstance(query, PossGroupKey):
            return new_state, candidates
        candidate_pairs = ra.NaturalJoin(
            ra.Project(projection + group_ids, grouped), equivalence
        )
        missing = ra.Difference(
            ra.Project(projection + ids + group_ids, candidate_pairs),
            ra.Project(projection + ids + group_ids, grouped),
        )
        not_certain = ra.Rename(inverse, ra.Project(projection + group_ids, missing))
        return new_state, ra.Difference(candidates, not_certain)

    def _translate_binary(
        self, query: WSAQuery, state: TranslationState
    ) -> tuple[TranslationState, ra.RAExpr]:
        left_state, left = self._translate(query.children()[0], state)
        right_state, right = self._translate(query.children()[1], state)
        new_state = self._combined_state(state, left_state, right_state)
        world = new_state.world
        if isinstance(query, Product):
            # R' ⋈_{V=V} R'': tuples of the same original world combine;
            # the join also pairs the worlds created by the two operands.
            return new_state, ra.NaturalJoin(left, right)
        operators = {Union: ra.Union, Intersect: ra.Intersection, Difference: ra.Difference}
        operator = operators[type(query)]
        return new_state, operator(
            ra.NaturalJoin(left, world), ra.NaturalJoin(right, world)
        )


# -- module-level API ---------------------------------------------------------------


def translate_general(
    query: WSAQuery,
    representation: InlinedRepresentation,
    counter_start: int = 0,
) -> GeneralTranslation:
    """Translate *query* against the schema of *representation*."""
    value_schemas = {
        name: representation.value_attributes(name) for name in representation.tables
    }
    translator = GeneralTranslator(
        value_schemas,
        representation.id_attrs,
        counter_start=counter_start,
        world_factors=tuple(
            (factor_name, factor.schema.attributes)
            for factor_name, factor in representation.factor_tables().items()
        ),
    )
    state, answer = translator.translate(query)
    value_attrs = query.attributes(translator.env)
    return GeneralTranslation(
        query, state, answer, value_attrs, representation, translator._counter
    )


def apply_general(
    query: WSAQuery, representation: InlinedRepresentation, name: str = "Q"
) -> InlinedRepresentation:
    """Translate and evaluate in one step (Example 5.4 end to end)."""
    return translate_general(query, representation).apply(name=name)


def conservative_ra_query(query: WSAQuery, schemas: SchemaLike) -> ra.RAExpr:
    """Theorem 5.7: the equivalent relational algebra query of a 1↦1 query.

    The returned expression operates directly on the complete database
    (no world table needed); its final projection drops the world-id
    attributes introduced by nested operators.
    """
    if not is_complete_to_complete(query):
        raise TypingError(
            "only 1↦1 (complete-to-complete) queries admit an equivalent "
            "relational algebra query over the plain database"
        )
    translator = GeneralTranslator(schemas, ())
    state, answer = translator.translate(query)
    value_attrs = query.attributes(translator.env)
    return ra.Project(value_attrs, answer)
