"""Randomized repair-by-key differential suite (ISSUE 8).

``repair by key`` now mints one *factored* per-group world-id column
per violating key group instead of one joint id over the repair
product. This suite generates seeded random scripts — a repair, a few
DML statements against the repaired relation (subquery-free ones,
value-determined subquery ones — world-uniform ``Lookup`` in the
condition or a scalar set clause — and ones whose condition reads the
repaired relation itself, so its answer carries world ids),
then a certain/possible/aggregation query — and replays each of them
across the explicit backend and the inline backend in every
kernel × strategy combination. The factored encoding must be
answer-for-answer and world-count-for-world-count identical to the
joint enumeration the explicit engine performs.

A bounded fault sweep (reusing :mod:`repro.testing.faults`) then
crashes the generated scripts mid-statement on the inline backends:
the factored commit paths must keep the same crash-consistency
contract as the joint ones — a fault at any kernel-op boundary leaves
the pre-statement state, bit for bit.
"""

import dataclasses
import random

import pytest

from repro.backend import InlineBackend
from repro.backend.testing import assert_backends_agree, fuzz_range, statement_texts
from repro.datagen import Scenario
from repro.errors import EvaluationError
from repro.isql.session import ISQLSession
from repro.relational.array_kernel import have_numpy
from repro.relational.relation import Relation
from repro.testing import InjectedFault, count_ops, inject_fault, sweep_points

#: Every registered kernel; "array" joins when numpy is importable.
KERNEL_NAMES = ("columnar", "tuple") + (("array",) if have_numpy() else ())

#: (label, backend-or-factory): explicit plus kernels × strategies.
BACKENDS = (
    (("explicit", "explicit"),)
    + tuple(
        (f"inline[{kernel}]", lambda kernel=kernel: InlineBackend(kernel=kernel))
        for kernel in KERNEL_NAMES
    )
    + tuple(
        (
            f"inline-translate[{kernel}]",
            lambda kernel=kernel: InlineBackend(
                strategy="translate", kernel=kernel
            ),
        )
        for kernel in KERNEL_NAMES
    )
)

#: Inline-only backends for the fault sweep (the explicit engine's
#: crash consistency is covered by the scenario fault suite).
INLINE_BACKENDS = tuple(b for b in BACKENDS if b[0] != "explicit")

SEEDS = tuple(fuzz_range(8))

CITIES = tuple(f"C{i}" for i in range(5))


def make_scenario(seed: int) -> Scenario:
    """A seeded random repair + DML + query scenario.

    ≤ 3 violating key groups of ≤ 3 candidates each keep the repair
    under 3³ = 27 worlds, so the explicit side stays cheap while the
    inline side mints one id factor per group.
    """
    rng = random.Random(seed * 7919 + 11)
    rows: list[tuple] = []
    n_people = rng.randrange(5, 9)
    n_violations = rng.randrange(1, 4)
    for person in range(n_people):
        key = 100 + person
        city, amount = rng.choice(CITIES), rng.randrange(1, 6) * 10
        rows.append((key, city, amount))
        if person < n_violations:
            for _ in range(rng.randrange(1, 3)):
                # The conflicting candidate must differ, or set
                # semantics would collapse it and the violation vanish.
                conflict = (key, rng.choice(CITIES), rng.randrange(1, 6) * 10)
                while conflict in rows:
                    conflict = (key, rng.choice(CITIES), rng.randrange(1, 6) * 10)
                rows.append(conflict)
    lookup = Relation(
        ("T",), [(city,) for city in rng.sample(CITIES, rng.randrange(1, 4))]
    )

    statements = ["Clean <- select * from R repair by key K;"]
    fresh_key = 900
    for _ in range(rng.randrange(1, 4)):
        kind = rng.choice((
            "update", "update_subquery", "update_scalar", "update_self",
            "delete", "delete_subquery", "insert",
        ))
        if kind == "update":
            statements.append(
                f"update Clean set B = {rng.randrange(1, 6) * 10} "
                f"where A = '{rng.choice(CITIES)}';"
            )
        elif kind == "update_subquery":
            statements.append(
                "update Clean set B = 0 "
                "where A in (select T from Lookup);"
            )
        elif kind == "update_scalar":
            # Value-determined, with a set-input column in the answer.
            statements.append(
                "update Clean set B = (select count(T) from Lookup) * 10 "
                f"where A = '{rng.choice(CITIES)}';"
            )
        elif kind == "update_self":
            # The condition reads Clean itself: the match answer carries
            # Clean's world ids and applies to its de-wildcarded rows.
            statements.append(
                "update Clean set B = B + 5 where A in "
                f"(select A from Clean where B > {rng.randrange(1, 5) * 10});"
            )
        elif kind == "delete_subquery":
            # Value-determined: Lookup is the same in every world.
            statements.append(
                "delete from Clean where A in (select T from Lookup);"
            )
        elif kind == "delete":
            statements.append(
                f"delete from Clean where B > {rng.randrange(2, 6) * 10};"
            )
        else:
            statements.append(
                f"insert into Clean values "
                f"({fresh_key}, '{rng.choice(CITIES)}', "
                f"{rng.randrange(1, 6) * 10});"
            )
            fresh_key += 1

    query = (
        "select certain K, A from Clean;",
        "select possible K, B from Clean;",
        # A correlated scalar aggregate over the factored relation.
        "select possible K from Clean as C "
        "where (select sum(B) from Clean where K = C.K) >= 40;",
    )[seed % 3]

    return Scenario(
        name=f"repair_random_{seed}",
        relations=(("R", Relation(("K", "A", "B"), rows)), ("Lookup", lookup)),
        keys=(("Clean", ("K",)),),
        script="".join(statements),
        query=query,
        approx_worlds=27,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_random_repair_scripts_agree_across_backends(seed):
    """Factored ≡ joint: every generated script answers identically on
    the explicit enumeration and on all inline kernel × strategy
    combinations (answers, result worlds, and session worlds)."""
    assert_backends_agree(make_scenario(seed), backends=BACKENDS)


#: Queries that pair the repaired relation (wild repair factors) with
#: an independent ``choice of`` split (a separate non-wild factor), so
#: each reaches a two-operand operator over disjoint world factors:
#: antijoin, semijoin, fused join, keyed grouping and a disjunction.
PAIRED_QUERIES = (
    "select possible K from Clean where A not in (select T from Pick);",
    "select certain K from Clean where A not in (select T from Pick);",
    "select possible K from Clean where A in (select T from Pick);",
    "select possible Clean.K from Clean, Pick where Clean.A = Pick.T;",
    "select possible K from Clean group worlds by (select T from Pick);",
    "select possible K from Clean "
    "where B > 30 or A in (select T from Pick);",
)


@pytest.mark.parametrize("query", PAIRED_QUERIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_repaired_relation_paired_with_an_independent_split_agrees(seed, query):
    """Factored operands meet in binary operators: the generated repair
    script plus an independent split of ``Lookup`` answers every paired
    query identically on the explicit enumeration and on all inline
    kernel × strategy combinations."""
    scenario = make_scenario(seed)
    paired = dataclasses.replace(
        scenario,
        name=f"repair_paired_{seed}",
        script=scenario.script + "Pick <- select * from Lookup choice of T;",
        query=query,
    )
    assert_backends_agree(paired, backends=BACKENDS)


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize(
    "label,backend", INLINE_BACKENDS, ids=[b[0] for b in INLINE_BACKENDS]
)
def test_random_repair_scripts_fault_sweep(label, backend, seed):
    """A fault at a swept kernel-op boundary inside any statement of a
    generated repair script leaves the pre-statement state — the
    factored mint/commit paths are as crash-consistent as the joint
    ones — and the statement then replays cleanly."""
    scenario = make_scenario(seed)
    session = ISQLSession(backend=backend())
    for name, relation in scenario.relations:
        session.register(name, relation)
    for relation, attributes in scenario.keys:
        session.declare_key(relation, attributes)
    for text in statement_texts(scenario.script):
        before = session.world_set
        mark = session.savepoint()
        # The count is taken on a replay, as in the scenario fault
        # suite: a first run may fill a cache the representation keeps
        # (a factored world's joint table), and every injected run
        # below replays warm.
        session.run(text)
        session.rollback_to(mark)
        total = count_ops(lambda: session.run(text))
        session.rollback_to(mark)
        session.release(mark)
        for at in sweep_points(total, 2):
            with inject_fault(at) as counter:
                with pytest.raises(EvaluationError) as info:
                    session.run(text)
                assert isinstance(info.value.__cause__, InjectedFault)
                assert counter.fired
            assert session.world_set == before, (
                f"{label}/seed {seed}: fault at op {at}/{total} "
                "left a torn state"
            )
        session.run(text)
    session.query(scenario.query)
