"""Rule dispatch by root node class leaves every rewrite unchanged.

The rewriter tries at each node only the rules whose declared roots
(``RewriteRule.roots``) the node instantiates. These tests pin that this
is exact: a rule never matches outside its roots, the rewriter never
calls a matcher outside them, and on a corpus of plans — scenario
statements, the Example 6.1/6.2 queries, the benchmark templates and
random queries — the plan and the whole derivation trace equal those of
the scan over every rule at every node (``_linear_optimize``, the
rewriter as it was before dispatch, kept here as the oracle).
"""

from __future__ import annotations

import pytest

from repro import ISQLSession
from repro.backend import inline as inline_backend
from repro.backend.testing import run_scenario
from repro.core import cert, choice_of, poss, poss_group, product, project, rel, select
from repro.core.ast import WSAQuery
from repro.datagen import flights, random_query, scenarios
from repro.errors import RewriteError
from repro.optimizer import (
    DEFAULT_RULES,
    FINALIZE_RULES,
    RewriteRule,
    default_rules,
    optimize,
)
from repro.relational import eq
from repro.relational.schema import Schema

RANDOM_SCHEMAS = {"R": ("A", "B"), "S": ("C", "D")}
KINDS = ("1", "m")


def _all_rules() -> list[RewriteRule]:
    rules = list(DEFAULT_RULES) + list(FINALIZE_RULES)
    for kind in KINDS:
        rules.extend(default_rules(kind))
    return list({id(rule): rule for rule in rules}.values())


# -- the oracle: every rule at every node, in priority order ---------------------------


def _linear_once(query, env, rules):
    for rule in rules:
        replacement = rule.apply(query, env)
        if replacement is not None:
            return replacement, rule
    children = query.children()
    for index, child in enumerate(children):
        result = _linear_once(child, env, rules)
        if result is not None:
            rewritten_child, rule = result
            new_children = tuple(
                rewritten_child if i == index else c for i, c in enumerate(children)
            )
            return query._with_children(new_children), rule
    return None


def _linear_fixpoint(query, env, rules, trace, max_steps=500):
    current = query
    for _ in range(max_steps):
        step = _linear_once(current, env, rules)
        if step is None:
            return current
        rewritten, rule = step
        rewritten.attributes(env)
        trace.append((rule, current, rewritten))
        current = rewritten
    raise RewriteError("no fixpoint")


def _linear_optimize(query, schemas, input_kind):
    env = {
        name: schema if isinstance(schema, Schema) else Schema(schema)
        for name, schema in schemas.items()
    }
    query.attributes(env)
    trace: list = []
    current = _linear_fixpoint(query, env, default_rules(input_kind), trace)
    current = _linear_fixpoint(current, env, FINALIZE_RULES, trace)
    return current, trace


def _assert_same_rewrite(query, schemas, input_kind):
    try:
        expected, expected_trace = _linear_optimize(query, schemas, input_kind)
    except Exception as error:  # noqa: BLE001 - the rewriter must fail alike
        with pytest.raises(type(error)):
            optimize(query, schemas, input_kind=input_kind)
        return
    actual, trace = optimize(query, schemas, input_kind=input_kind)
    assert actual == expected
    assert [(s.rule, s.before, s.after) for s in trace] == expected_trace


# -- the corpus ----------------------------------------------------------------------------

EXAMPLE_SCHEMAS = {"HFlights": ("Dep", "Arr"), "Hotels": ("Name", "City", "Price")}


def _example_queries() -> list[WSAQuery]:
    """Example 6.1 (q1) and 6.2 (q2) of the paper."""
    grouped = select(
        eq("Arr", "City"),
        poss_group(
            ("Dep",),
            ("Dep", "Arr", "Name", "City", "Price"),
            choice_of(("Dep", "City"), product(rel("HFlights"), rel("Hotels"))),
        ),
    )
    return [cert(project("City", grouped)), poss(project("City", grouped))]


def _random_queries(count: int) -> list[WSAQuery]:
    return [
        random_query(seed * 7 + 3, depth=depth)
        for seed in range(count)
        for depth in (2, 4)
    ]


def _captured_backend_plans(monkeypatch) -> list[tuple]:
    """Every (plan, env, input kind) the inline backend rewrote while
    replaying the small scenarios and the benchmark templates."""
    captured: list[tuple] = []
    real = inline_backend.rewrite_plan

    def recording(plan, env, rules=None, input_kind="1"):
        captured.append((plan, dict(env), input_kind))
        return real(plan, env, rules, input_kind)

    monkeypatch.setattr(inline_backend, "rewrite_plan", recording)
    for scenario in scenarios("small"):
        run_scenario(scenario, "inline")
    session = ISQLSession(backend="inline")
    session.register("HFlights", flights(32, 8, 3, seed=5))
    session.run(
        "select certain Arr from HFlights where Dep = 'D0003' choice of Dep;"
        "select certain Arr from HFlights where Arr != 'A0003' choice of Dep;"
        "select possible Dep from HFlights where Arr = 'A0003' choice of Dep;"
        "Itin <- select * from HFlights choice of Dep;"
        "select certain Arr from Itin where Arr != 'A0001';"
        "select possible Arr from Itin where Dep = 'D0002';"
        "update Itin set Arr = 'MARK' where Dep = 'D0002' and Arr = 'A0001';"
    )
    monkeypatch.undo()
    assert captured
    return captured


# -- the tests -------------------------------------------------------------------------------


def _corpus_nodes(monkeypatch) -> list[tuple[WSAQuery, dict]]:
    plans = [(plan, env) for plan, env, _ in _captured_backend_plans(monkeypatch)]
    plans += [(query, EXAMPLE_SCHEMAS) for query in _example_queries()]
    plans += [(query, RANDOM_SCHEMAS) for query in _random_queries(150)]
    return [
        (node, {n: a if isinstance(a, Schema) else Schema(a) for n, a in env.items()})
        for plan, env in plans
        for node in plan.walk()
    ]


def test_no_rule_matches_outside_its_declared_roots(monkeypatch):
    nodes = _corpus_nodes(monkeypatch)
    classes = {type(node) for node, _ in nodes}
    assert len(classes) >= 8
    for rule in _all_rules():
        for node, env in nodes:
            if not isinstance(node, rule.roots):
                assert rule.apply(node, env) is None, (rule, node)


def test_every_rule_declares_its_roots():
    for rule in _all_rules():
        assert rule.roots and WSAQuery not in rule.roots, rule


def test_matchers_run_only_on_their_declared_roots(monkeypatch):
    """Rewriting the ``Dep = ?`` point-read plan calls each matcher
    only on nodes of its declared classes."""
    from repro.isql.compile import compile_query
    from repro.isql.parser import parse_query

    schemas = {"HFlights": ("Dep", "Arr")}
    plan = compile_query(
        parse_query(
            "select certain Arr from HFlights where Dep = 'D0001' choice of Dep;"
        ),
        schemas,
        {},
    )
    calls: list[tuple[RewriteRule, type]] = []
    real_apply = RewriteRule.apply

    def recording(rule, query, env):
        calls.append((rule, type(query)))
        return real_apply(rule, query, env)

    monkeypatch.setattr(RewriteRule, "apply", recording)
    optimize(plan, schemas)
    dispatched = list(calls)
    calls.clear()
    _linear_optimize(plan, schemas, "1")
    monkeypatch.undo()
    assert all(issubclass(node_type, rule.roots) for rule, node_type in dispatched)
    # The scan over every rule made 210 matcher calls on this 7-node
    # plan (26 rules, then 4 finalize rules, at each node); dispatch 21.
    assert plan.size() == 7 and len(calls) == 210
    assert len(dispatched) == 21


@pytest.mark.parametrize("kind", KINDS)
def test_backend_plans_rewrite_as_the_linear_scan(monkeypatch, kind):
    for plan, env, _ in _captured_backend_plans(monkeypatch):
        _assert_same_rewrite(plan, env, kind)


@pytest.mark.parametrize("kind", KINDS)
def test_example_and_random_plans_rewrite_as_the_linear_scan(kind):
    for query in _example_queries():
        _assert_same_rewrite(query, EXAMPLE_SCHEMAS, kind)
    for query in _random_queries(300):
        _assert_same_rewrite(query, RANDOM_SCHEMAS, kind)


def test_default_rules_are_built_once_per_kind():
    assert default_rules("1") is default_rules("1")
    assert default_rules() is default_rules("1")
    assert default_rules("m") is not default_rules("1")
