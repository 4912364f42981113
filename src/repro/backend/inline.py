"""The inline backend: I-SQL over the inlined representation (Section 5).

The session state is an :class:`InlinedRepresentation`
⟨R₁ᵀ, …, R_kᵀ, W⟩ — one flat table per relation, tagged with world-id
attributes, plus the world table W — and is **never** enumerated into
explicit worlds during evaluation. A statement runs through the layered
pipeline of the paper's concluding vision::

    I-SQL ──isql.compile──▶ world-set algebra
          ──optimizer.rewriter──▶ rewritten plan (Figure 7 equivalences)
          ──inline.physical / inline.translate──▶ flat-table evaluation
          ──decode (only on demand)──▶ explicit worlds

Two evaluation strategies implement the last-but-one arrow:

* ``"physical"`` (default) — the dedicated physical operators of
  :mod:`repro.inline.physical`, seeded with the session's world table;
  supports everything in the algebra fragment including repair-by-key.
* ``"translate"`` — the literal Figure 6 translation
  (:mod:`repro.inline.translate`) composed into one relational algebra
  DAG and evaluated by :mod:`repro.relational.algebra`; falls back to
  the physical operators where relational algebra cannot reach
  (repair-by-key, Proposition 4.2).

The compiled fragment covers the whole Figure 1 select surface — SQL
aggregation (a world-grouped flat aggregation), ``[not] in`` /
``[not] exists`` condition subqueries (decorrelated into semijoins and
antijoins, including under ``or`` as a union of per-disjunct chains),
comparisons against scalar subqueries (aggregate or bare-column, the
latter through the ``single`` pseudo-aggregate with a runtime
cardinality guard), and ``group worlds by ⟨subquery⟩`` (subquery-keyed
world grouping) — so those statements never enumerate worlds either.
DML runs flat too: ``delete``/``update`` conditions and ``update`` set
expressions with (world-local) subqueries compile to a match plan whose
answer the kernel ``mask`` / ``scatter_update`` applies to the flat
table directly, keyed on value attributes (plus the world ids, when the
answer depends on the world) — no ``_reinline`` round-trip. Only the
genuinely row-at-a-time residue falls back to the explicit engine on
the decoded world-set (assignments re-inline the result): non-column
``in`` needles, scalar subqueries of other shapes (or under ``or``,
where the cardinality guard cannot stay as lazy as the engine's
short-circuit), correlated subqueries that are themselves complex,
disjunctions over an already-world-splitting outer plan, DML subqueries
that are not world-local, and select columns outside the GROUP BY key.
``fallback_events`` records those statements (kind, reason, clause,
source span), bounded to the most recent :data:`FALLBACK_EVENT_LIMIT`
so a long-lived session's diagnostics cannot grow without bound.

``possible``/``certain`` closings are answered directly from the flat
answer table (a projection, resp. a division by W); worlds are decoded
only when a caller explicitly asks for ``.world_set``.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.backend.base import Backend, BaseQueryResult, ExecutionContext
from repro.backend.explicit import QueryResult
from repro.relational.guards import phase
from repro.cache import MISS, CacheInfo, StatementCache
from repro.errors import (
    EvaluationError,
    RewriteError,
    SchemaError,
    TranslationError,
    TypingError,
    WorldLimitError,
)
from repro.inline.physical import (
    PhysicalState,
    decode_extension,
    evaluate_seeded,
    factored_certain_rows,
    match_answers_to_session_worlds,
)
from repro.inline.representation import InlinedRepresentation
from repro.inline.translate import LoweredPlan, lower_query, translate_general
from repro.isql import ast
from repro.isql.compile import (
    FragmentError,
    compile_delete,
    compile_query,
    compile_update,
)
from repro.isql.engine import Engine, _Resolver
from repro.optimizer.rewriter import optimize as rewrite_plan
from repro.relational import predicates
from repro.relational.columnar import (
    as_tuple,
    kernel_ops,
    resolve_kernel,
    tuples_of,
)
from repro.relational.pad import PAD
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.worlds.worldset import WorldSet, fresh_name

#: Most recent fallback events a session retains (diagnostics only —
#: an unbounded list would grow forever in a long residue-heavy session).
FALLBACK_EVENT_LIMIT = 64


class FallbackEvent(NamedTuple):
    """One fallback-route diagnostic.

    ``event[0]``/``event[1]`` still read the historical (kind, reason)
    positions, but this is a 4-tuple — code that unpacked the old pair
    must index or use the field names.
    """

    kind: str
    reason: str
    clause: str | None = None
    span: tuple[int, int] | None = None


class InlineQueryResult(BaseQueryResult):
    """A select outcome held as flat tables; worlds decoded on demand."""

    __slots__ = ("_representation", "_state", "name", "_decoded", "_answers")

    def __init__(
        self,
        representation: InlinedRepresentation,
        state: PhysicalState,
        name: str,
    ) -> None:
        if not state.world.count():
            # The empty world-set: no world holds the stored rows.
            state = PhysicalState(
                Relation._raw(state._answer.schema, ()), state.ids, state.world
            )
        self._representation = representation
        self._state = state
        self.name = name
        self._decoded: WorldSet | None = None
        self._answers: frozenset[Relation] | None = None

    def answers(self) -> frozenset[Relation]:
        """The distinct per-world answers, decoded once per result by the
        kernel's ``world_answers`` op (fingerprint classes on the array
        kernel: one relation per distinct answer, not per world)."""
        if self._answers is None:
            self._answers = self._state.world_answers()
        return self._answers

    def possible(self) -> Relation:
        """poss closure straight off the flat answer table: π_U(Rᵀ)."""
        state = self._state
        return as_tuple(state._answer.project(state.value_attributes()))

    def certain(self) -> Relation:
        """cert closure straight off the flat answer table: Rᵀ ÷ W.

        A wild answer of the repair shape divides factor by factor (a
        value is certain iff an all-PAD row holds it or some factor
        picks it in every choice); otherwise the state expands to exact
        ids and divides by the joint world table.
        """
        state = self._state
        rows = factored_certain_rows(state)
        if rows is not None:
            return Relation._raw(Schema(state.value_attributes()), list(rows))
        state = state.plain()
        return as_tuple(state._answer.divide(state.world.materialize()))

    @property
    def world_set(self) -> WorldSet:
        if self._decoded is None:
            with phase("decode"):
                self._decoded = decode_extension(
                    self._representation, self._state, self.name
                )
        return self._decoded

    def world_count(self) -> int:
        """Distinct result worlds, from fingerprints — no decoding.

        A result world is a (base world, answer) pair; equal pairs
        collapse like they would in the explicit world-set.
        """
        if self._decoded is not None:
            return len(self._decoded)
        if not self._state.ids:
            # A world-uniform answer pairs the same relation with every
            # base world, so distinct result worlds = distinct session
            # worlds — which a factored representation counts as a
            # product of per-factor counts, never enumerating ids.
            return self._representation.distinct_world_count()
        fingerprints = self._representation.world_fingerprints()
        by_shared, shared_in_session = match_answers_to_session_worlds(
            self._representation, self._state
        )
        pairs = set()
        for session_world_id, fingerprint in fingerprints.items():
            key = tuple(session_world_id[p] for p in shared_in_session)
            for answer_relation in by_shared.get(key, ()):
                pairs.add((fingerprint, answer_relation))
        return len(pairs)

    def __repr__(self) -> str:
        return (
            f"InlineQueryResult({self.name!r}, "
            f"{self._state.world.count()} world ids)"
        )


def _carrying_versions(
    replacement: InlinedRepresentation,
    source: InlinedRepresentation,
    added: str,
) -> InlinedRepresentation:
    """Carry *source*'s table/world versions onto a same-worlds commit.

    Constructing an :class:`InlinedRepresentation` mints fresh versions
    for every table, which would invalidate the whole result memo. A
    commit that only *adds* a table (``register``, a world-preserving
    assignment) leaves the existing tables and the world table
    untouched, so their versions carry over verbatim; only the added
    name keeps its fresh mint.
    """
    versions = dict(source.versions)
    versions[added] = replacement.versions[added]
    replacement.versions = versions
    replacement.world_version = source.world_version
    return replacement


class InlineBackend(Backend):
    """Session state as an inlined representation; flat-table evaluation."""

    kind = "inline"

    def __init__(
        self,
        representation: InlinedRepresentation | None = None,
        strategy: str = "physical",
        kernel: str | None = None,
        cache: "bool | StatementCache" = True,
    ) -> None:
        if strategy not in ("physical", "translate"):
            raise EvaluationError(
                f"unknown inline strategy {strategy!r}; "
                "expected 'physical' or 'translate'"
            )
        if kernel is not None:
            kernel_ops(kernel)  # validate (and load) eagerly
        self.representation = (
            representation
            if representation is not None
            else InlinedRepresentation.initial()
        )
        self.strategy = strategy
        #: Pinned kernel, or None to follow ``REPRO_KERNEL`` per statement.
        self.kernel = kernel
        #: The statement cache: a private StatementCache (``cache=True``),
        #: a shared one (``spawn()`` hands the parent's instance to every
        #: child, making it pool-wide), or None (``cache=False``).
        if cache is True:
            self.cache: StatementCache | None = StatementCache()
        elif cache is False or cache is None:
            self.cache = None
        elif isinstance(cache, StatementCache):
            self.cache = cache
        else:
            raise EvaluationError(
                f"cache must be True, False, or a StatementCache, got {cache!r}"
            )
        #: How the cache treated the most recent statement (see Backend).
        self.last_cache = "bypass"
        #: Total fallback-route statements over the session's lifetime
        #: (fallback_events keeps only the newest FALLBACK_EVENT_LIMIT).
        self.fallback_total = 0
        #: Recent fallback-route events: (kind, reason, clause, span).
        #: Bounded — a long session keeps only the newest
        #: FALLBACK_EVENT_LIMIT diagnostics; ``close()`` clears them.
        self.fallback_events: deque[FallbackEvent] = deque(
            maxlen=FALLBACK_EVENT_LIMIT
        )
        self._counter = 0
        self._decoded: WorldSet | None = None

    @property
    def resolved_kernel(self) -> str:
        """The kernel the next statement will evaluate with."""
        return resolve_kernel(self.kernel)

    # -- catalog ------------------------------------------------------------------

    def register(self, name: str, relation: Relation) -> None:
        # A complete relation is the same in every world, so it is
        # stored without id columns (the lazy interpretation) — no
        # replication however many worlds the session already has.
        rep = self.representation
        self._commit(
            _carrying_versions(
                InlinedRepresentation(
                    tuple(rep.tables.items()) + ((name, relation),),
                    rep.world_factors,
                    rep.id_attrs,
                    wild_attrs=rep.wild_attrs,
                ),
                rep,
                name,
            )
        )

    def relation_names(self) -> tuple[str, ...]:
        return self.representation.tables.names

    def schemas(self) -> dict[str, tuple[str, ...]]:
        return dict(self._value_schemas())

    def world_count(self) -> int:
        return self.representation.distinct_world_count()

    def to_world_set(self) -> WorldSet:
        if self._decoded is None:
            with phase("decode"):
                self._decoded = self.representation.rep()
        return self._decoded

    def close(self) -> None:
        """Drop decoded worlds and detach from the statement cache.

        The inlined representation is kept as it is — it *is* the
        session state — and so are its tables' kernel twins: pool
        siblings share the tables by reference, so a twin lives exactly
        as long as its relation, and one retired connection does not
        make every sibling convert again. The fallback-event log is
        dropped; it exists for diagnostics of statements already
        executed.

        The statement cache is **detached**, not cleared: a retired
        session must stop pinning memoized relations, but when the
        instance is shared pool-wide (``spawn()``), clearing would wipe
        the siblings' entries. The replacement keeps the configured
        bounds, so a reused session caches again from empty.
        """
        self._decoded = None
        self.fallback_events.clear()
        if self.cache is not None:
            self.cache = StatementCache(
                plan_entries=self.cache.plans.maxsize,
                memo_entries=self.cache.memo.maxsize,
                parse_entries=self.cache.parses.maxsize,
            )

    def _commit(self, representation: InlinedRepresentation) -> None:
        self.representation = representation
        self._decoded = None

    def snapshot(self) -> object:
        """Capture (representation, decoded world-set): two references.

        The representation and its tables are immutable and commits are
        reference swaps (:meth:`_commit`), so this is O(#tables) — the
        cheap-snapshot property the transactional session layer builds
        on. The decoded world-set rides along so a rollback does not
        throw away a decode the snapshot point had already paid for.
        """
        return (self.representation, self._decoded)

    def restore(self, token: object) -> None:
        self.representation, self._decoded = token

    def spawn(self) -> "InlineBackend":
        """A fresh backend sharing no mutable state, same configuration.

        Carries strategy/kernel across (the base default would
        lose them). The new backend starts from the empty initial
        representation; the service layer immediately :meth:`restore`\\ s
        a snapshot token into it, which *shares* the immutable tables of
        the source representation — the copy-on-write handoff that makes
        pooled sessions O(#tables) to create. The statement cache is
        passed **by reference**: every session forked from one template
        shares the same plan cache and result memo (lock-cheap — see
        :mod:`repro.cache`), so compilation amortizes pool-wide.
        """
        return InlineBackend(
            strategy=self.strategy,
            kernel=self.kernel,
            cache=self.cache if self.cache is not None else False,
        )

    def cache_info(self) -> CacheInfo:
        """Aggregate hit/miss/entry counters of the statement cache."""
        if self.cache is None:
            return CacheInfo.empty()
        return self.cache.info()

    def _fresh_name(self, stem: str = "Q") -> str:
        return fresh_name(self.relation_names(), stem)

    # -- the compile → rewrite → evaluate pipeline ------------------------------------

    def _value_schemas(self) -> dict[str, tuple[str, ...]]:
        """The catalog's value schemas (built once per representation;
        read-only)."""
        return self.representation.value_schemas()

    def _catalog_key(self, context: ExecutionContext) -> tuple:
        """The schema/view epoch a compiled plan is valid for.

        Value schemas (in catalog order) plus the view definitions: the
        exact inputs of :func:`compile_query` besides the statement
        itself. Assignments, registrations, and view changes shift this
        key, so a plan compiled against the old catalog can never be
        served against the new one.
        """
        return (
            tuple(self._value_schemas().items()),
            tuple(sorted(context.views.items())),
        )

    def _world_kind(self) -> str:
        """The one-vs-many-worlds bit the rewriter specializes plans on."""
        return "1" if self.representation.world_count() <= 1 else "m"

    def _plan_key(self, tag: str, statement, context: ExecutionContext) -> tuple:
        return (
            tag,
            statement,
            self._catalog_key(context),
            self.strategy,
            self._world_kind(),
        )

    def _compile(self, statement, context: ExecutionContext):
        """A statement's rewritten plan, through the plan cache.

        A select compiles (:func:`compile_query`) to a world-set algebra
        plan; a delete or update (:func:`compile_delete` /
        :func:`compile_update`) to the compiler's tuple, whose first
        component — the match plan — is the one rewritten. A cache hit
        skips compilation, rewriting, validation and lowering (the
        cached artifact is the rewritten plan, validated and lowered by
        :meth:`_rewritten`), so callers run it as it is.
        Compile failures (FragmentError → explicit-engine fallback) are
        never cached — their diagnostics carry source spans, which the
        span-insensitive statement fingerprint would skew.
        """
        if isinstance(statement, ast.Update):
            tag, compiler = "update", compile_update
        elif isinstance(statement, ast.Delete):
            tag, compiler = "delete", compile_delete
        else:
            tag, compiler = "select", compile_query
        cache = self.cache if context.cache else None
        if cache is not None:
            key = self._plan_key(tag, statement, context)
            with phase("cache_lookup"):
                hit = cache.plans.get(key)
            if hit is not MISS:
                self.last_cache = "hit"
                return hit
        with phase("compile"):
            compiled = compiler(statement, self._value_schemas(), dict(context.views))
        if tag == "select":
            compiled = self._rewritten(compiled)
        else:
            compiled = (self._rewritten(compiled[0]),) + tuple(compiled[1:])
        if cache is not None:
            cache.plans.put(key, compiled)
            self.last_cache = "miss"
        return compiled

    def _memo_key(self, query: ast.SelectQuery, context: ExecutionContext):
        """The result-memo fingerprint of a select, or None if unkeyable.

        Keys on the statement plus the version counters of every
        relation it reads (and the world version): DML deltas mint a
        fresh version for exactly the table they touch, so the key
        changes precisely when the answer could. Versions live inside
        the (immutable) representation, so snapshot restore / rollback
        bring the old versions back with the old tables and a pinned
        reader keeps hitting its own snapshot's entries. Unknown
        relation names return None so resolution errors surface
        identically cached or not.
        """
        rep = self.representation
        views = dict(context.views)
        try:
            versions = tuple(
                sorted(
                    (name, rep.versions[name])
                    for name in ast.referenced_relations(query, views)
                )
            )
        except KeyError:
            return None
        return (
            "memo",
            query,
            versions,
            rep.world_version,
            self.strategy,
            self.resolved_kernel,
            context.max_worlds,
            tuple(sorted(views.items())),
        )

    def _memoized_state(
        self, query: ast.SelectQuery, context: ExecutionContext
    ) -> PhysicalState:
        """Serve *query* from the result memo, else compile and evaluate it.

        The memo is probed first, with the one key built here: a hit
        returns the stored state and never reaches the plan tier. The
        memo key holds no catalog epoch, and needs none — a referenced
        table's schema changes only by replacement, which mints it a
        fresh version; a world-kind flip changes ``world_version``; and
        an unknown relation name gets no key at all (:meth:`_memo_key`).
        A miss compiles (through the plan cache; a FragmentError
        propagates uncached) and evaluates. Only states that mint no
        fresh world ids (and no new wildcard columns) are stored: they
        are pure functions of the versioned input tables, and replaying
        them from the memo cannot collide with ids a later statement
        mints. ``choice-of`` / repair results always re-evaluate.
        """
        cache = self.cache if context.cache else None
        key = self._memo_key(query, context) if cache is not None else None
        if key is not None:
            with phase("cache_lookup"):
                hit = cache.memo.get(key)
            if hit is not MISS:
                self.last_cache = "hit"
                return hit
        state = self._evaluate(self._compile(query, context), context)
        if key is not None:
            rep = self.representation
            if set(state.ids) <= set(rep.id_attrs) and state.wild <= rep.wild_attrs:
                # The entry is a twin of this execution's state, so only
                # a hit caches its decode there (PhysicalState.world_answers):
                # a statement that never repeats keeps no decoded rows
                # alive in the memo.
                twin = PhysicalState(state._answer, state.ids, state.world, state.wild)
                cache.memo.put(key, twin)
        return state

    def _note_fallback(self, kind: str, reason: FragmentError) -> None:
        self.fallback_total += 1
        self.fallback_events.append(
            FallbackEvent(kind, str(reason), reason.clause, reason.span)
        )

    def _rewritten(self, compiled):
        """The Figure 7 rewriting pass (best effort — plans stay correct),
        then the plan validated and lowered (:func:`lower_query`) once,
        as the plan cache keeps it and the evaluator runs it."""
        schemas = self._value_schemas()
        with phase("rewrite"):
            env = {name: Schema(attrs) for name, attrs in schemas.items()}
            try:
                # Validates the plan and every rewritten step.
                compiled, _ = rewrite_plan(
                    compiled, env, input_kind=self._world_kind()
                )
            except (RewriteError, TypingError, SchemaError):
                # An unoptimized plan is still a correct plan — if valid.
                compiled.attributes(env)
            return LoweredPlan(lower_query(compiled, env))

    def _evaluate(
        self, compiled, context: ExecutionContext, representation=None
    ) -> PhysicalState:
        """Evaluate a compiled plan (against *representation*, default the
        session state — DML's value-determined route passes a view)."""
        if representation is None:
            representation = self.representation
        with phase("execute"):
            if self.strategy == "translate":
                try:
                    return self._evaluate_translated(
                        compiled, context, representation
                    )
                except WorldLimitError:
                    raise
                except TranslationError:
                    pass  # e.g. repair-by-key: beyond relational algebra
            state, self._counter = evaluate_seeded(
                compiled,
                representation,
                max_worlds=context.max_worlds,
                counter_start=self._counter,
                kernel=self.kernel,
            )
            return state

    def _evaluate_translated(
        self, compiled, context: ExecutionContext, representation
    ) -> PhysicalState:
        """Figure 6 route: build one RA DAG, evaluate, keep flat tables.

        The translator wants the strict Definition 5.1 form (every table
        tagged with every id), so the lazy session state is strictified
        for the duration of the statement.
        """
        translation = translate_general(
            compiled.plan, representation.strict(), counter_start=self._counter
        )
        output = translation.apply(
            name="#answer", max_worlds=context.max_worlds, kernel=self.kernel
        )
        self._counter = translation.counter
        return PhysicalState(
            output.tables["#answer"], output.id_attrs, output.world_factors
        )

    # -- statements ----------------------------------------------------------------

    def run_select(
        self, query: ast.SelectQuery, context: ExecutionContext, name: str | None = None
    ) -> BaseQueryResult:
        result_name = name if name is not None else self._fresh_name()
        try:
            state = self._memoized_state(query, context)
        except FragmentError as reason:
            self._note_fallback("select", reason)
            return self._fallback_select(query, context, name)
        return InlineQueryResult(self.representation, state, result_name)

    def assign(
        self, name: str, query: ast.SelectQuery, context: ExecutionContext
    ) -> None:
        try:
            state = self._memoized_state(query, context)
        except FragmentError as reason:
            self._note_fallback("assign", reason)
            engine = Engine(context.views, context.keys, context.max_worlds)
            world_set = self.to_world_set()
            with phase("execute"):
                extended, _ = engine.run_select(query, world_set, name=name)
            self._reinline(extended)
            return
        rep = self.representation
        fresh = tuple(i for i in state.ids if i not in set(rep.id_attrs))
        tables = tuple(rep.tables.items()) + ((name, state.answer),)
        world = rep.world_factors
        wild = rep.wild_attrs | state.wild
        if fresh:
            # Fresh world ids were minted (choice-of / repair-by-key):
            # the state's world joins W factor by factor, so an
            # independent split appends a factor and a correlated one
            # joins only the factors it shares ids with.
            world = world.combine(state.world.in_tuple_engine())
            if context.max_worlds is not None and world.count() > context.max_worlds:
                raise WorldLimitError(
                    f"assignment produced {world.count()} worlds, over the "
                    f"limit of {context.max_worlds}"
                )
            # A wild attribute joined into a multi-attribute factor
            # stops being wild: its PAD rows expand in every table.
            joined = wild.intersection(
                a
                for factor in world.factors
                if len(factor.schema.attributes) > 1
                for a in factor.schema.attributes
            )
            if joined:
                wild -= joined
                tables = tuple(
                    (table, world.expand_pads(relation, joined))
                    for table, relation in tables
                )
        committed = InlinedRepresentation(
            tables, world, rep.id_attrs + fresh, wild_attrs=wild
        )
        # Without fresh ids W is unchanged and the answer only adds a
        # table: the other tables keep their versions (and memo entries).
        self._commit(committed if fresh else _carrying_versions(committed, rep, name))

    def _fallback_select(
        self, query: ast.SelectQuery, context: ExecutionContext, name: str | None
    ) -> QueryResult:
        """Outside the algebra fragment: decode and run the explicit engine."""
        engine = Engine(context.views, context.keys, context.max_worlds)
        world_set = self.to_world_set()
        with phase("execute"):
            extended, result_name = engine.run_select(query, world_set, name=name)
        return QueryResult(extended, result_name)

    def _reinline(self, world_set: WorldSet) -> None:
        """Re-encode an explicit world-set produced by a fallback."""
        if world_set.is_singleton:
            self._commit(
                InlinedRepresentation.of_database(
                    dict(world_set.the_world().items())
                )
            )
        else:
            self._commit(InlinedRepresentation.of_world_set(world_set))
        self._decoded = world_set

    # -- data manipulation: the Section 3 DML rule on flat tables ----------------------

    def _in_kernel(self, relation):
        """*relation* in the active kernel's representation (cached)."""
        return kernel_ops(self.kernel).convert(relation)

    @staticmethod
    def _satisfies_keys_flat(
        relation, key, table_ids, wild_attrs=frozenset()
    ) -> bool:
        """Key holds in *every* world: (V_i ∪ key) determines the row.

        Rows are distinct, so the key holds iff the (V_i ∪ key)
        projection keeps one entry per row: one kernel
        ``distinct_count``. On a table with wild (PAD-wildcard) id
        columns the distinctness probe is replaced by a
        pattern-compatibility check — two rows violate iff some world
        holds both — see :func:`_wild_key_satisfied`.
        """
        if not key:
            return True
        if wild_attrs and not wild_attrs.isdisjoint(table_ids):
            return _wild_key_satisfied(
                relation, tuple(key), tuple(table_ids), frozenset(wild_attrs)
            )
        return relation.distinct_count(tuple(table_ids) + tuple(key)) == len(
            relation
        )

    def _subqueries_world_uniform(self, subqueries, views) -> bool:
        """True when every relation the subqueries read is world-uniform.

        A (world-local) DML subquery that reads only tables stored
        without id columns has the same answer in every world, so the
        whole match is *value-determined*: whether a row is matched —
        and the value a set clause computes for it — depends only on
        the row itself, never on which world holds it. :meth:`_run_match`
        then evaluates the match plan on the target's distinct value
        rows, and its id-free answer applies to the table as stored.
        Unknown relation names route to the general path so resolution
        errors stay identical.
        """
        if self.strategy == "translate":
            # The Figure 6 route strictifies the representation (every
            # table re-tagged with every id), which would undo the
            # value-determined evaluation; the translate backend keeps
            # the general id-expanded route instead — it is the
            # differential vehicle, not the hot path.
            return False
        rep = self.representation
        views = dict(views)
        for subquery in subqueries:
            for name in ast.referenced_relations(subquery, views):
                if name not in rep.tables or rep.table_id_attrs(name):
                    return False
        return True

    def _replace_table(self, name: str, table) -> None:
        """Commit a rewritten flat table (either kernel).

        Routed through :meth:`InlinedRepresentation.replacing` with
        validation off: every DML rewrite derives its rows from the
        representation's own tables (mask keeps a subset, scatter
        rewrites only value columns — ``$``-prefixed id attributes are
        not even lexable in a set clause — and append draws its id
        columns from the world table), so the committed table cannot
        reference an unknown world id. Cached id expansions of the
        other tables carry over.
        """
        self._commit(
            self.representation.replacing(name, as_tuple(table), validate=False)
        )

    def run_insert(self, statement: ast.Insert, context: ExecutionContext) -> bool:
        """Insert into every world; on a key violation, insert nowhere.

        A one-statement run of the kernel-op pipeline
        (:meth:`_run_vectorized`), which every insert translates to.
        """
        return self._run_vectorized((statement,), context)[0]

    def run_delete(self, statement: ast.Delete, context: ExecutionContext) -> None:
        """Delete matching rows in every world — flat, even with subqueries.

        A subquery-free condition runs the kernel-op pipeline of
        :meth:`_run_vectorized` (``predicate_mask``, then ``compress``);
        any other condition — (world-local) subqueries, or the residue
        the pipeline does not translate (unresolved or qualified
        columns) — runs through its match plan (:meth:`_run_match`).
        """
        if _dml_subqueries(statement) or (
            self._run_vectorized((statement,), context) is None
        ):
            self._run_match(statement, context)

    def run_update(self, statement: ast.Update, context: ExecutionContext) -> bool:
        """Update matching rows in every world — flat, even with subqueries.

        A subquery-free statement whose set clauses write literals or
        copy columns runs the kernel-op pipeline of
        :meth:`_run_vectorized` (``predicate_mask``, then
        ``masked_assign``). Any other statement — subqueries in the
        condition or the set expressions, computed set values, or
        unresolved columns — runs through its match plan
        (:meth:`_run_match`).
        """
        if not _dml_subqueries(statement):
            applied = self._run_vectorized((statement,), context)
            if applied is not None:
                return applied[0]
        return self._run_match(statement, context)

    def _run_match(self, statement, context: ExecutionContext) -> bool:
        """A delete or update applied through its match plan.

        The statement compiles (through the plan cache) to the match
        plan ``select * from R where φ`` — an update's extended with one
        value column per scalar-subquery set clause — whose flat answer
        names every matched row, with the inputs of the new values.
        When every relation the subqueries read is world-uniform
        (:meth:`_subqueries_world_uniform`) the plan runs on a view of
        the session where R is its distinct value rows — polynomial in
        those, typically orders of magnitude below the id-expanded
        table; otherwise it runs on the representation. Then one rule
        applies the answer, the Section 3 rule without decoding a
        single world:

        * an answer without id columns holds in every world alike: it
          hits R as stored (wild PAD columns kept), keyed on R's value
          attributes;
        * an answer with ids hits R expanded over those ids
          (:meth:`InlinedRepresentation.expanded`, cached per batch),
          keyed on ids + value attributes.

        A delete is the kernel ``mask``; an update the kernel
        ``scatter_update`` followed by the key check — a violation in
        *any* world discards the update in all of them. An answer that
        matched nothing leaves R as stored (never id-expanded), though
        an update still key-checks it, like the engine. Statements the
        compiler rejects (e.g. world-splitting subqueries, which the
        engine rejects too when a row reaches them) fall back to the
        explicit engine on the decoded world-set.
        """
        update = isinstance(statement, ast.Update)
        name = statement.relation
        try:
            plan, attrs, *set_terms = self._compile(statement, context)
        except FragmentError as reason:
            self._note_fallback("update" if update else "delete", reason)
            engine = Engine(context.views, context.keys, context.max_worlds)
            world_set, applied = self.to_world_set(), True
            if update:
                world_set, applied = engine.run_update(statement, world_set)
            else:
                world_set = engine.run_delete(statement, world_set)
            if applied:
                self._reinline(world_set)
            return applied
        rep = self.representation
        view = rep
        if self._subqueries_world_uniform(_dml_subqueries(statement), context.views):
            projected = self._in_kernel(rep.tables[name]).project(
                rep.value_attributes(name)
            )
            view = rep.replacing(name, as_tuple(projected), validate=False)
        state = self._evaluate(plan, context, view).plain()
        assert set(state.ids) <= set(rep.id_attrs), f"DML plan minted ids {state.ids}"
        answer = state._answer
        ids = state.ids if answer else ()
        if ids:
            table = rep.expanded(name, ids, self.kernel)
            table_ids, wild = ids, frozenset()
        else:
            table = rep.tables[name]
            table_ids, wild = rep.table_id_attrs(name), rep.wild_attrs
        with phase("dml_apply"):
            table = self._in_kernel(table)
            if update:
                setters = [
                    (attr, term.bind(answer.schema)) for attr, term in set_terms[0]
                ]
                new_table = table.scatter_update(answer, setters, ids + attrs)
                if not self._satisfies_keys_flat(
                    new_table, context.keys.get(name), table_ids, wild
                ):
                    return False
            else:
                new_table = table.mask(answer, ids + attrs)
            if new_table is not table:
                self._replace_table(name, new_table)
        return True

    # -- the batched DML pipeline ------------------------------------------------------

    def run_dml_batch(
        self, statements: tuple, context: ExecutionContext
    ) -> list[bool]:
        """Consecutive subquery-free DML on one relation, as one pass.

        ``ISQLSession.run`` hands over a maximal run of batchable
        statements (one target relation, conditions and set expressions
        without subqueries); :meth:`_run_vectorized` applies it on
        kernel ops and commits once. A run holding a statement the
        pipeline does not translate replays statement at a time through
        the protocol default, each statement on its own route.
        """
        applied = self._run_vectorized(statements, context)
        if applied is None:
            return super().run_dml_batch(statements, context)
        return applied

    def _run_vectorized(
        self, statements: tuple, context: ExecutionContext
    ) -> list[bool] | None:
        """Subquery-free DML on one relation as kernel ops; None to bail.

        The one route of subquery-free DML, whether a single statement
        or a coalesced batch. Each condition translates once into a
        relational predicate, and the statements run on kernel ops
        alone — the same pipeline on every kernel, each op a whole-table
        pass in the kernel's own storage:

        * delete: ``predicate_mask`` of the kept rows, then ``compress``;
        * update: ``predicate_mask``, then ``masked_assign`` (rewrite
          and dedup), and the Section 3 key check (a ``distinct_count``
          over ``(V_i ∪ key)``, or the PAD-pattern check on a wild
          table) — a violating update is discarded alone;
        * insert: ``claimed_ids`` probes for the rows already present
          and for the key check, then ``append_broadcast`` of the value
          row over the world ids still lacking it.

        **One** new table commits at the end (the representation is
        validated once per run). Statement semantics are exactly
        statement-at-a-time (the property suite asserts row-for-row and
        flag-for-flag equivalence), including error behavior: a
        statement that raises mid-run first commits the statements
        already applied, like separate executions would. Returns None,
        running nothing, when a condition or set clause does not
        translate (see :func:`_vector_plans`).
        """
        name = statements[0].relation
        rep = self.representation
        table = rep.tables[name]
        schema = table.schema
        plans = _vector_plans(statements, schema)
        if plans is None:
            return None
        table_ids = rep.table_id_attrs(name)
        value_attrs = rep.value_attributes(name)
        # Normalized to None when absent *or empty* — the match-plan
        # paths treat a degenerate () key as no constraint (`if key:`),
        # and this route must match them decision for decision.
        key = context.keys.get(name) or None
        sub_ids: list[tuple] | None = None
        applied: list[bool] = []

        def key_holds(relation) -> bool:
            # Resolved per check: a bad declared key raises at the
            # statement that first checks it, after earlier ones applied.
            return self._satisfies_keys_flat(
                relation, key, table_ids, rep.wild_attrs
            )

        with phase("dml_apply"):
            state = start = self._in_kernel(table)
            try:
                for statement, plan in zip(statements, plans):
                    if plan[0] == "delete":
                        state = state.compress(state.predicate_mask(plan[1]))
                        applied.append(True)
                    elif plan[0] == "update":
                        candidate = state.masked_assign(
                            state.predicate_mask(plan[1]), plan[2]
                        )
                        # An unmatched update leaves the table as it is,
                        # but the check still runs: a pre-existing
                        # violation rejects, like the engine.
                        if key is not None and not key_holds(candidate):
                            applied.append(False)  # discarded in all worlds
                            continue
                        state = candidate
                        applied.append(True)
                    else:
                        if len(statement.values) != len(value_attrs):
                            raise SchemaError(
                                f"insert arity {len(statement.values)} does "
                                f"not match {name}{list(value_attrs)}"
                            )
                        assignment = dict(zip(value_attrs, statement.values))
                        if sub_ids is None:
                            # Wild columns take PAD, concrete ones
                            # enumerate the touched factors only — never
                            # the joint product.
                            sub_ids = rep.insert_sub_ids(name, self.kernel)
                        # All additions share one value row: the worlds
                        # already holding it are a claimed-id probe.
                        present = state.claimed_ids(
                            value_attrs, statement.values, table_ids
                        )
                        # Where the row is present the insert is a no-op;
                        # any other row claiming the key conflicts, as the
                        # insert reaches every world that row is in.
                        if key is not None and (
                            not key_holds(state)
                            or state.claimed_ids(
                                key, [assignment[a] for a in key], table_ids
                            )
                            - present
                        ):
                            applied.append(False)
                            continue
                        state = state.append_broadcast(
                            [assignment.get(a) for a in schema.attributes],
                            schema.indices(table_ids),
                            [ids for ids in sub_ids if ids not in present],
                        )
                        applied.append(True)
            finally:
                # On an error too: the statements already applied commit
                # before the failing one propagates.
                if state is not start:
                    self._replace_table(name, state)
        return applied


def _dml_subqueries(statement) -> list:
    """The subqueries of a delete's or update's condition and set clauses."""
    subqueries = list(ast.condition_subqueries(statement.where))
    for clause in getattr(statement, "settings", ()):
        subqueries.extend(ast.expression_subqueries(clause.expression))
    return subqueries


def _wild_key_satisfied(relation, key, table_ids, wild_attrs) -> bool:
    """Key holds in every world of a wild (PAD-wildcard) table.

    Two rows violate the key iff they share a key value, differ in
    some other value, *and* their id patterns are compatible — equal on
    concrete columns, with PAD matching anything on a wild one — i.e.
    some world holds both rows. (Rows equal in value are one tuple in
    the worlds holding both.) The pairwise check runs per key group,
    and key groups stay small by construction: a repaired table has one
    group per violating input key, each the size of that group's
    candidate list.
    """
    wild_positions = frozenset(
        i for i, a in enumerate(table_ids) if a in wild_attrs
    )
    id_set = set(table_ids)
    value_attrs = tuple(a for a in relation.schema.attributes if a not in id_set)
    groups: dict[tuple, list[tuple[tuple, tuple]]] = {}
    for sub_id, key_value, values in zip(
        tuples_of(relation, table_ids),
        tuples_of(relation, key),
        tuples_of(relation, value_attrs),
    ):
        groups.setdefault(key_value, []).append((sub_id, values))
    for entries in groups.values():
        for i, (first, first_values) in enumerate(entries):
            for second, second_values in entries[i + 1 :]:
                if first_values != second_values and all(
                    a == b
                    or (j in wild_positions and (a is PAD or b is PAD))
                    for j, (a, b) in enumerate(zip(first, second))
                ):
                    return False
    return True


# -- DML batch vectorization ---------------------------------------------------------


def _vector_term(expression, resolver: _Resolver, attributes: tuple[str, ...]):
    """A condition operand as a predicate term, or None to bail."""
    if isinstance(expression, ast.Literal):
        return predicates.Const(expression.value)
    if isinstance(expression, ast.Column):
        try:
            position = resolver.position(expression)
        except EvaluationError:
            return None
        if position is None:
            return None
        return predicates.Attr(attributes[position])
    if isinstance(expression, ast.Arithmetic):
        left = _vector_term(expression.left, resolver, attributes)
        right = _vector_term(expression.right, resolver, attributes)
        if left is None or right is None:
            return None
        return predicates.Arith(expression.op, left, right)
    return None


def _vector_condition(condition, resolver: _Resolver, attributes: tuple[str, ...]):
    """An AST condition as a relational predicate, or None to bail.

    Only shapes with exact engine-row parity translate: comparisons
    over column reads, literals and arithmetic over those, combined
    with and/or/not. A comparison meeting mixed types is False on both
    routes; arithmetic raises the engine's
    :func:`~repro.relational.predicates.arithmetic` errors, and every
    kernel evaluates a predicate holding it through the bound row
    closure, which keeps and/or short-circuiting. Subqueries and
    unresolved, qualified or ambiguous columns bail to the match-plan
    route, which reports them exactly like the engine.
    """
    if isinstance(condition, ast.Comparison):
        left = _vector_term(condition.left, resolver, attributes)
        right = _vector_term(condition.right, resolver, attributes)
        if left is None or right is None or condition.op not in predicates._OPS:
            return None
        return predicates.Comparison(left, condition.op, right)
    if isinstance(condition, ast.BoolOp):
        left = _vector_condition(condition.left, resolver, attributes)
        right = _vector_condition(condition.right, resolver, attributes)
        if left is None or right is None:
            return None
        if condition.op == "and":
            return predicates.And(left, right)
        if condition.op == "or":
            return predicates.Or(left, right)
        return None
    if isinstance(condition, ast.NotOp):
        inner = _vector_condition(condition.operand, resolver, attributes)
        return None if inner is None else predicates.Not(inner)
    return None


def _vector_plans(statements: tuple, schema: Schema) -> list[tuple] | None:
    """Kernel-op programs for a whole batch, or None if any statement bails.

    ``("delete", keep)`` carries the predicate of the rows a delete
    keeps, ``("update", match, settings)`` the rows an update rewrites
    and its ``masked_assign`` settings, ``("insert",)`` nothing.
    """
    attributes = schema.attributes
    resolver = _Resolver(attributes)
    plans: list[tuple] = []
    for statement in statements:
        if isinstance(statement, ast.Insert):
            plans.append(("insert",))
            continue
        if not isinstance(statement, (ast.Delete, ast.Update)):
            return None
        predicate = predicates.TRUE
        if statement.where is not None:
            predicate = _vector_condition(statement.where, resolver, attributes)
            if predicate is None:
                return None
        if isinstance(statement, ast.Delete):
            plans.append(("delete", predicates.Not(predicate)))
            continue
        settings: list[tuple] = []
        for clause in statement.settings:
            try:
                position = schema.index(clause.attribute)
            except Exception:
                return None
            expression = clause.expression
            if isinstance(expression, ast.Literal):
                settings.append((position, "const", expression.value))
            elif isinstance(expression, ast.Column):
                try:
                    source = resolver.position(expression)
                except EvaluationError:
                    return None
                if source is None:
                    return None
                settings.append((position, "col", source))
            else:
                return None
        plans.append(("update", predicate, tuple(settings)))
    return plans
