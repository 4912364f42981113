"""Backend equivalence: explicit vs inline on every datagen workload.

This is the PR's acceptance property: ``InlineBackend`` (both the
physical-operator and the Figure 6 translation strategies) returns the
same answer world-sets as ``ExplicitBackend`` on every scenario of
:func:`repro.datagen.scenarios` — and, since the compiler widened to
SQL aggregation, condition subqueries and subquery-keyed world
grouping, every scenario statement runs ``route=direct`` on the
inlined representation (no scenario exercises the explicit fallback
anymore; the residue is covered by dedicated unit tests).
"""

import pytest

from repro.backend.testing import assert_backends_agree, run_scenario
from repro.datagen import scenarios
from repro.isql import ISQLSession
from repro.relational import Relation

SMALL = {s.name: s for s in scenarios("small")}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inline_agrees_with_explicit(name):
    assert_backends_agree(SMALL[name], ("explicit", "inline"))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_translate_strategy_agrees_with_explicit(name):
    """The literal Figure 6 route, now over the whole scenario suite."""
    assert_backends_agree(SMALL[name], ("explicit", "inline-translate"))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_no_scenario_statement_falls_back(name):
    """ISSUE 3 acceptance: no benchmark scenario statement falls back.

    The aggregation-heavy ``tpch_what_if`` and the ``group worlds by
    ⟨subquery⟩`` acquisition variant were the last fallback scenarios;
    both (and everything else) must now evaluate flat. The XL
    benchmark variants reuse these exact statement shapes, and
    ``benchmarks/bench_backends.py`` asserts their routes at bench
    time.
    """
    assert not SMALL[name].uses_fallback
    session, _ = run_scenario(SMALL[name], "inline")
    assert not list(session.backend.fallback_events)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_scenarios_have_plausible_world_counts(name):
    scenario = SMALL[name]
    session, _ = run_scenario(scenario, "inline")
    assert 1 <= session.world_count() <= scenario.approx_worlds


NEGATED_MIXED_TYPE_ORDERINGS = (
    "select * from S where not (W < 'b');",
    "select K from S where not (W >= 5 or K = 9);",
    "select K from S where not (W > 'a' or K = 0) and K != 3;",
    "update S set W = K * 100 where not (W < 'b');",
)


@pytest.mark.parametrize("statement", NEGATED_MIXED_TYPE_ORDERINGS)
def test_negated_mixed_type_orderings_agree(statement):
    """An ordering that meets mixed types is False, so its ``not`` is
    True on every backend — flipping ``<`` into ``>=`` would make both
    False on the compiled routes."""
    outcomes = []
    for backend in ("explicit", "inline", "inline-translate"):
        session = ISQLSession(backend=backend)
        session.register("S", Relation(("K", "W"), [(1, 10), (2, "c"), (3, "a")]))
        (result,) = session.run(statement)
        answer = result.relation if result.kind == "select" else result.applied
        outcomes.append((answer, session.world_set))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
