"""Randomized split-sequence differential suite.

Every assignment that mints world ids grows the session's world table
W by one rule: the statement's world combines into W factor by factor
(:meth:`repro.inline.factors.FactoredWorld.combine`). An independent
split appends a factor, a correlated one joins only the factors it
shares ids with, and a wild repair column that lands in a joined factor
stops being wild. This suite generates seeded scripts of 2–4 such
assignments — ``choice of`` or ``repair by key`` over a base table,
over an earlier result (correlated), or over a product of a result
with a base table — then asks per-world, ``possible`` and ``certain``
queries. The explicit backend and the inline backend on both
strategies must agree on every answer, every result world count and
the session's world count, whichever kernel ``REPRO_KERNEL`` selects.

``REPRO_FUZZ_SCRIPTS`` scales the case count (64 at PR time); cases
are seeded by index, so a failing index reproduces on its own.
"""

import random

import pytest

from repro.backend import ExplicitBackend, InlineBackend
from repro.backend.testing import fuzz_range
from repro.isql.session import ISQLSession
from repro.relational.relation import Relation

#: Label and factory per compared backend; the first is the reference.
BACKENDS = (
    ("explicit", ExplicitBackend),
    ("inline", InlineBackend),
    ("inline-translate", lambda: InlineBackend(strategy="translate")),
)

#: Base tables over disjoint attributes, so any product is well-formed.
SCHEMAS = {"R": ("K", "A"), "S": ("B", "C")}

SEEDS = tuple(fuzz_range(64))


def make_case(seed: int):
    """Seeded base tables, an assignment script and queries over it.

    Tables of 2–4 rows over two or three values per column keep every
    split at ≤ 3 choices (a repair at ≤ 2 groups of ≤ 3 candidates in
    a base table), so the explicit side stays at a few hundred worlds.
    """
    rng = random.Random(seed * 7907 + 3)
    relations = (
        ("R", Relation(SCHEMAS["R"], {
            (rng.randrange(1, 3), rng.choice("xyz")) for _ in range(4)
        })),
        ("S", Relation(SCHEMAS["S"], {
            (rng.choice("pq"), rng.randrange(1, 4)) for _ in range(3)
        })),
    )
    results: dict[str, tuple[str, ...]] = {}
    statements = []
    for index in range(rng.randrange(2, 5)):
        name = f"X{index}"
        shape = rng.choice(("base", "earlier", "product"))
        if shape == "base" or not results:
            source = rng.choice(tuple(SCHEMAS))
            attrs = SCHEMAS[source]
        else:
            source = rng.choice(tuple(results))
            attrs = results[source]
            if shape == "product":
                other = "S" if "K" in attrs else "R"
                if set(SCHEMAS[other]) & set(attrs):
                    other = None
                if other is not None:
                    source = f"{source}, {other}"
                    attrs = attrs + SCHEMAS[other]
        attr = rng.choice(attrs)
        split = rng.choice(("choice of", "repair by key"))
        # A repair over a product of splits can mint many candidates
        # per world; cap the explicit side by repairing base tables or
        # a single earlier result only.
        if split == "repair by key" and "," in source:
            split = "choice of"
        statements.append(f"{name} <- select * from {source} {split} {attr};")
        results[name] = attrs
    names = tuple(results)
    last = names[-1]
    first = rng.choice(names)
    queries = (
        f"select {', '.join(results[last])} from {last};",
        f"select possible {rng.choice(results[last])} from {last};",
        f"select certain {rng.choice(results[first])} from {first};",
    )
    return relations, "".join(statements), queries


def _session(factory, relations, script):
    session = ISQLSession(backend=factory())
    for name, relation in relations:
        session.register(name, relation)
    session.run(script)
    return session


@pytest.mark.parametrize("seed", SEEDS)
def test_split_sequences_agree_across_backends(seed):
    relations, script, queries = make_case(seed)
    sessions = [
        (label, _session(factory, relations, script)) for label, factory in BACKENDS
    ]
    reference_label, reference = sessions[0]
    for label, session in sessions[1:]:
        context = f"seed {seed} ({script}): {reference_label} vs {label}"
        assert session.world_count() == reference.world_count(), (
            f"{context}: session world counts differ"
        )
        for query in queries:
            expected, actual = reference.query(query), session.query(query)
            assert actual.answers() == expected.answers(), f"{context}: {query}"
            assert actual.world_count() == expected.world_count(), (
                f"{context}: {query} world counts differ"
            )
