"""The explicit backend: materialized world-sets, Figure 3 semantics.

This is the paper's reference evaluation strategy — and the repo's
original one: the session state is a :class:`WorldSet`, and every
statement runs through :class:`repro.isql.engine.Engine`, which maps
world-sets to world-sets. Exponential in the number of worlds, but it
supports every I-SQL construct directly (aggregation, correlated
subqueries, world-splitting condition subqueries), which is why the
inline backend falls back to it for statements outside the Section 4
algebra fragment.
"""

from __future__ import annotations

from repro.backend.base import Backend, BaseQueryResult, ExecutionContext
from repro.relational.guards import phase
from repro.isql import ast
from repro.isql.engine import Engine
from repro.relational.relation import Relation
from repro.worlds.world import World
from repro.worlds.worldset import WorldSet


class QueryResult(BaseQueryResult):
    """The outcome of a select statement over an explicit world-set.

    *world_set* is the input world-set extended with the answer under
    *name*. :attr:`relation` is the unique answer when it is the same
    in every world (always true for closed 1↦1 queries); otherwise
    accessing it raises and :meth:`answers` lists the per-world answers.
    """

    __slots__ = ("_world_set", "name")

    def __init__(self, world_set: WorldSet, name: str) -> None:
        self._world_set = world_set
        self.name = name

    @property
    def world_set(self) -> WorldSet:
        return self._world_set

    def answers(self) -> frozenset[Relation]:
        return frozenset(self._world_set.instances(self.name))

    def __repr__(self) -> str:
        return f"QueryResult({self.name!r}, {len(self._world_set)} worlds)"


class ExplicitBackend(Backend):
    """Session state as an explicit world-set, evaluated world by world."""

    kind = "explicit"

    def __init__(self, world_set: WorldSet | None = None) -> None:
        self.world_set = (
            world_set if world_set is not None else WorldSet.single(World.of({}))
        )

    def _engine(self, context: ExecutionContext) -> Engine:
        return Engine(context.views, context.keys, context.max_worlds)

    # -- catalog ------------------------------------------------------------------

    def register(self, name: str, relation: Relation) -> None:
        self.world_set = self.world_set.extend_each(name, lambda world: relation)

    def relation_names(self) -> tuple[str, ...]:
        return self.world_set.relation_names

    def schemas(self) -> dict[str, tuple[str, ...]]:
        return {
            name: schema.attributes for name, schema in self.world_set.signature
        }

    def world_count(self) -> int:
        return len(self.world_set)

    def to_world_set(self) -> WorldSet:
        return self.world_set

    def close(self) -> None:
        """Release per-relation caches of every materialized world."""
        for world in self.world_set.worlds:
            for name in world.names:
                world[name].clear_caches()

    def snapshot(self) -> object:
        """One reference: world-sets are immutable, statements reassign."""
        return self.world_set

    def restore(self, token: object) -> None:
        self.world_set = token

    # -- statements ----------------------------------------------------------------

    def run_select(
        self, query: ast.SelectQuery, context: ExecutionContext, name: str | None = None
    ) -> QueryResult:
        with phase("execute"):
            extended, result_name = self._engine(context).run_select(
                query, self.world_set, name=name
            )
        return QueryResult(extended, result_name)

    def assign(
        self, name: str, query: ast.SelectQuery, context: ExecutionContext
    ) -> None:
        with phase("execute"):
            self.world_set, _ = self._engine(context).run_select(
                query, self.world_set, name=name
            )

    def run_insert(self, statement: ast.Insert, context: ExecutionContext) -> bool:
        self.world_set, applied = self._engine(context).run_insert(
            statement, self.world_set
        )
        return applied

    def run_delete(self, statement: ast.Delete, context: ExecutionContext) -> None:
        self.world_set = self._engine(context).run_delete(statement, self.world_set)

    def run_update(self, statement: ast.Update, context: ExecutionContext) -> bool:
        self.world_set, applied = self._engine(context).run_update(
            statement, self.world_set
        )
        return applied
