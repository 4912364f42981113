"""The rewrite engine for world-set algebra logical optimization (Section 6).

The rewriter applies the Figure 7 equivalences (oriented as in
:mod:`repro.optimizer.equivalences`) bottom-up to fixpoint and records a
derivation trace, so the Example 6.1 / 6.2 rewritings can be replayed
step by step and rendered as the Figure 8 / Figure 9 plan pairs.
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence

from repro.errors import RewriteError
from repro.core.ast import AttributeMemo, WSAQuery
from repro.optimizer.equivalences import (
    FINALIZE_RULES,
    RewriteRule,
    SchemaEnv,
    default_rules,
)
from repro.relational.schema import Schema


class RewriteStep:
    """One applied rule: which equation fired and the whole-query effect."""

    __slots__ = ("rule", "before", "after")

    def __init__(self, rule: RewriteRule, before: WSAQuery, after: WSAQuery) -> None:
        self.rule = rule
        self.before = before
        self.after = after

    def __repr__(self) -> str:
        return f"[{self.rule.equation}] {self.before.to_text()} → {self.after.to_text()}"


class RuleDispatch:
    """A rule list indexed by node class, in the list's priority order.

    For each class, the rules whose declared roots
    (:attr:`RewriteRule.roots`) it is an instance of — exactly the rules
    whose matcher can fire at a node of that class. Built eagerly for
    every :class:`WSAQuery` class and read-only afterwards; a class
    defined later is filtered on each lookup.
    """

    __slots__ = ("rules", "_by_type")

    def __init__(self, rules: tuple[RewriteRule, ...]) -> None:
        self.rules = rules
        self._by_type = {
            node_type: self._filter(node_type) for node_type in _query_classes()
        }

    def _filter(self, node_type: type) -> tuple[RewriteRule, ...]:
        return tuple(rule for rule in self.rules if issubclass(node_type, rule.roots))

    def rules_for(self, query: WSAQuery) -> tuple[RewriteRule, ...]:
        node_type = type(query)
        rules = self._by_type.get(node_type)
        return self._filter(node_type) if rules is None else rules


def _query_classes() -> list[type]:
    found: list[type] = []
    pending = [WSAQuery]
    while pending:
        cls = pending.pop()
        found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


@functools.lru_cache(maxsize=32)
def rule_dispatch(rules: tuple[RewriteRule, ...]) -> RuleDispatch:
    """The (shared, immutable) dispatch table of a rule tuple."""
    return RuleDispatch(rules)


class Rewriter:
    """Applies rewrite rules to fixpoint with a bounded step count."""

    def __init__(
        self,
        rules: Sequence[RewriteRule] | None = None,
        max_steps: int = 500,
        input_kind: str = "1",
    ) -> None:
        self.rules = tuple(rules) if rules is not None else default_rules(input_kind)
        self.max_steps = max_steps
        self.input_kind = input_kind

    def _rewrite_once(
        self, query: WSAQuery, env: SchemaEnv, dispatch: RuleDispatch
    ) -> tuple[WSAQuery, RewriteRule] | None:
        """Apply the first matching rule at the shallowest matching node.

        Only the rules declared for the node's class are tried, in
        priority order: the others cannot match there, so the result is
        the one a scan over every rule would find.
        """
        for rule in dispatch.rules_for(query):
            replacement = rule.apply(query, env)
            if replacement is not None:
                return replacement, rule
        children = query.children()
        for index, child in enumerate(children):
            result = self._rewrite_once(child, env, dispatch)
            if result is not None:
                rewritten_child, rule = result
                new_children = tuple(
                    rewritten_child if i == index else c
                    for i, c in enumerate(children)
                )
                return query._with_children(new_children), rule
        return None

    def optimize(
        self,
        query: WSAQuery,
        schemas: Mapping[str, Schema | Sequence[str]],
        finalize: bool = True,
    ) -> tuple[WSAQuery, list[RewriteStep]]:
        """Rewrite *query* to fixpoint; return the result and the trace.

        Two phases, both to fixpoint: the main phase pushes the world
        operators down and reduces them; the finalize phase (disable
        with ``finalize=False``) folds selections back into poss/cert
        and forms joins, matching the tail of the paper's Example 6.2
        derivation. Schema inference is memoized per node for the
        call (:class:`AttributeMemo`), so validating a step re-infers
        only the path it rebuilt.
        """
        env = AttributeMemo(
            {
                name: schema if isinstance(schema, Schema) else Schema(schema)
                for name, schema in schemas.items()
            }
        )
        query.attributes(env)  # validate before rewriting
        trace: list[RewriteStep] = []
        current = self._to_fixpoint(query, env, self.rules, trace)
        if finalize:
            current = self._to_fixpoint(current, env, FINALIZE_RULES, trace)
        return current, trace

    def _to_fixpoint(
        self,
        query: WSAQuery,
        env: SchemaEnv,
        rules: Sequence[RewriteRule],
        trace: list[RewriteStep],
    ) -> WSAQuery:
        dispatch = rule_dispatch(tuple(rules))
        current = query
        for _ in range(self.max_steps):
            step = self._rewrite_once(current, env, dispatch)
            if step is None:
                return current
            rewritten, rule = step
            rewritten.attributes(env)  # every step must stay well-formed
            trace.append(RewriteStep(rule, current, rewritten))
            current = rewritten
        raise RewriteError(
            f"rewriting did not converge within {self.max_steps} steps; "
            f"last query: {current.to_text()}"
        )


def optimize(
    query: WSAQuery,
    schemas: Mapping[str, Schema | Sequence[str]],
    rules: Sequence[RewriteRule] | None = None,
    input_kind: str = "1",
) -> tuple[WSAQuery, list[RewriteStep]]:
    """Module-level convenience wrapper around :class:`Rewriter`.

    *input_kind* declares the evaluation setting: ``"1"`` for queries on
    a complete database (the paper's setting), ``"m"`` for arbitrary
    world-set inputs (stricter Eq. (20)/(21) guards).
    """
    return Rewriter(rules, input_kind=input_kind).optimize(query, schemas)
