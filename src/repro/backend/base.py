"""The execution-backend abstraction for I-SQL sessions.

The paper gives two equivalent ways to evaluate I-SQL:

* **explicitly**, by materializing the world-set A = {I₁, …, I_n} and
  running the Figure 3 / Section 3 semantics world by world; and
* **on the inlined representation** ⟨R₁ᵀ, …, R_kᵀ, W⟩ of Section 5,
  where evaluation is polynomial in the representation even when the
  world-set it encodes is exponential.

A :class:`Backend` encapsulates one of these strategies behind a common
interface: it owns the session's state (a world-set or an inlined
representation), executes select statements, materializes assignments,
and applies the possible-worlds DML of Section 3. Sessions are backend
agnostic — ``ISQLSession(backend="inline")`` flips a whole session from
world enumeration to flat-table evaluation, and the differential test
harness (:mod:`repro.backend.testing`) holds the two implementations to
identical answers on every workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.errors import EvaluationError
from repro.relational.relation import Relation
from repro.worlds.worldset import WorldSet

if TYPE_CHECKING:  # the isql package imports this module at init time
    from repro.isql import ast


@dataclass(frozen=True)
class ExecutionContext:
    """Per-statement session configuration handed to a backend.

    *cache* is the statement's cache gate: ``False`` makes a caching
    backend bypass its plan cache and result memo for this statement
    (the ``run(..., cache=False)`` / ``connect(..., cache=False)``
    escape hatch of the differential suites). Backends without caches
    ignore it.
    """

    views: Mapping[str, ast.SelectQuery] = field(default_factory=dict)
    keys: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    max_worlds: int | None = None
    cache: bool = True


class BaseQueryResult:
    """Common interface of a select statement's outcome.

    Both backends expose the same surface: :attr:`relation` for closed
    queries, :meth:`answers` for open ones, :meth:`world_count`, and a
    :attr:`world_set` property holding the input world-set extended with
    the answer (computed lazily — and only on demand — by the inline
    backend).
    """

    name: str

    def answers(self) -> frozenset[Relation]:
        """The distinct answer relations across all worlds."""
        raise NotImplementedError

    @property
    def world_set(self) -> WorldSet:
        """The input world-set extended with the answer under *name*."""
        raise NotImplementedError

    def world_count(self) -> int:
        return len(self.world_set)

    def possible(self) -> Relation:
        """Union of the answer across all worlds (the poss closure)."""
        return self.world_set.possible(self.name)

    def certain(self) -> Relation:
        """Intersection of the answer across all worlds (cert)."""
        return self.world_set.certain(self.name)

    @property
    def relation(self) -> Relation:
        answers = self.answers()
        if len(answers) != 1:
            raise EvaluationError(
                f"the answer differs across worlds ({len(answers)} variants); "
                "use .answers()"
            )
        return next(iter(answers))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Backend:
    """Abstract base class of session execution backends."""

    #: Short name used by ``ISQLSession(backend=...)`` and diagnostics.
    kind = "abstract"

    #: How the cache treated the most recent statement: ``"hit"`` (plan
    #: or memo served from cache), ``"miss"`` (compiled fresh, now
    #: cached), or ``"bypass"`` (no cache consulted — non-caching
    #: backend, ``cache=False``, or a statement kind that never caches).
    #: The session resets this to ``"bypass"`` before dispatching each
    #: statement and copies it into the :class:`StatementResult`.
    last_cache = "bypass"

    def cache_info(self):
        """Aggregate cache counters; all-zero for non-caching backends."""
        from repro.cache import CacheInfo

        return CacheInfo.empty()

    # -- catalog ------------------------------------------------------------------

    def register(self, name: str, relation: Relation) -> None:
        """Add a complete relation to every world of the state."""
        raise NotImplementedError

    def relation_names(self) -> tuple[str, ...]:
        """Names of the base relations in the current state."""
        raise NotImplementedError

    def schemas(self) -> dict[str, tuple[str, ...]]:
        """Value-attribute schemas of the current catalog.

        The shape ``{relation: (attr, …)}`` that
        :func:`repro.isql.compile.compile_query` and
        :func:`repro.isql.explain.inline_route_report` take, so callers
        can ask routing/compilation questions against a live session
        without decoding its state.
        """
        raise NotImplementedError

    def world_count(self) -> int:
        """Number of distinct possible worlds in the current state."""
        raise NotImplementedError

    def to_world_set(self) -> WorldSet:
        """The current state as an explicit world-set (decode on demand)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release caches derived from the session state.

        The state itself (world-set or inlined representation) stays
        valid and the backend remains usable — caches rebuild on
        demand. Long-lived processes cycling many sessions call this
        via ``ISQLSession.close()``; the default is a no-op.
        """

    # -- state snapshots ------------------------------------------------------------

    def snapshot(self) -> object:
        """An opaque token capturing the current session state.

        O(#tables): state objects (world-sets, inlined representations
        and their tables) are immutable, and every statement commits by
        swapping references, so a snapshot is a handful of reference
        captures, never a copy. Tokens stay valid for the backend's
        lifetime — the transactional layer in
        :class:`repro.isql.session.ISQLSession` stacks them to back
        ``atomic`` scripts and savepoints.
        """
        raise NotImplementedError

    def restore(self, token: object) -> None:
        """Reset the session state to a :meth:`snapshot` token.

        Like :meth:`snapshot`, O(#tables) reference swaps. Restoring
        discards nothing shared: state committed after the snapshot
        simply becomes unreferenced.
        """
        raise NotImplementedError

    def spawn(self) -> "Backend":
        """A fresh backend of the same kind and configuration, empty state.

        The service layer (:mod:`repro.service`) forks one backend per
        pooled session so every connection owns private mutable state
        while sharing immutable relation/representation objects via
        :meth:`snapshot`/:meth:`restore` tokens. The default
        reconstructs from :attr:`kind`; backends with extra
        configuration (kernel, strategy, …) override this to carry it
        across.
        """
        return create_backend(self.kind)

    # -- statements ----------------------------------------------------------------

    def run_select(
        self, query: ast.SelectQuery, context: ExecutionContext, name: str | None = None
    ) -> BaseQueryResult:
        """Evaluate a select without changing the session state."""
        raise NotImplementedError

    def assign(
        self, name: str, query: ast.SelectQuery, context: ExecutionContext
    ) -> None:
        """``name <- query``: materialize the answer into the state."""
        raise NotImplementedError

    def run_insert(self, statement: ast.Insert, context: ExecutionContext) -> bool:
        """Insert in every world; False = discarded on key violation."""
        raise NotImplementedError

    def run_delete(self, statement: ast.Delete, context: ExecutionContext) -> None:
        raise NotImplementedError

    def run_update(self, statement: ast.Update, context: ExecutionContext) -> bool:
        """Update every world; False = discarded on key violation."""
        raise NotImplementedError

    def run_dml_batch(
        self, statements: tuple, context: ExecutionContext
    ) -> list[bool]:
        """Apply consecutive DML statements; one applied flag per statement.

        ``ISQLSession.run`` routes maximal runs of consecutive
        *subquery-free* DML statements against one relation here. The
        contract is strict statement-at-a-time equivalence — same final
        state, same applied/discarded flags, same errors in the same
        order — and this default simply is statement-at-a-time
        execution. Backends override it to pipeline the batch (the
        inline backend applies the whole run in one pass over the flat
        table and commits once).
        """
        from repro.isql import ast as isql_ast

        applied: list[bool] = []
        for statement in statements:
            if isinstance(statement, isql_ast.Insert):
                applied.append(self.run_insert(statement, context))
            elif isinstance(statement, isql_ast.Delete):
                self.run_delete(statement, context)
                applied.append(True)
            elif isinstance(statement, isql_ast.Update):
                applied.append(self.run_update(statement, context))
            else:
                raise EvaluationError(
                    "run_dml_batch accepts insert/delete/update statements, "
                    f"not {type(statement).__name__}"
                )
        return applied


def create_backend(backend: str | Backend) -> Backend:
    """Resolve ``ISQLSession``'s *backend* argument to an instance."""
    if isinstance(backend, Backend):
        return backend
    from repro.backend.explicit import ExplicitBackend
    from repro.backend.inline import InlineBackend

    if backend == "explicit":
        return ExplicitBackend()
    if backend == "inline":
        return InlineBackend()
    if backend == "inline-translate":
        return InlineBackend(strategy="translate")
    raise EvaluationError(
        f"unknown backend {backend!r}; expected 'explicit', 'inline', "
        "'inline-translate', or a Backend instance"
    )
