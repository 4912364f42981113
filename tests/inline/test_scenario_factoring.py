"""Every datagen scenario's final inline representation, pinned.

The world table W is stored factor by factor; which splits become their
own factor decides the representation's footprint (a factored W costs
the *sum* of its factor sizes, a joint one the product). These literals
were recorded by replaying each scenario on the default inline backend,
so any change to how statements commit W — joint join vs. a new factor
— shows up here as a changed ``size()``, long before a benchmark row
moves. ``world_count()`` (ids, equivalent worlds counted apart) and
``distinct_world_count()`` (the decoded world-set's cardinality) pin
that the same worlds are represented.

``trip_certain_2p20`` is left out: one world (W = {⟨⟩}, nothing to
factor) over a ~3·10⁶-row table, whose replay takes about 20 s on a
2-core machine.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from repro.backend import InlineBackend
from repro.backend.testing import run_scenario
from repro.datagen import nightly_scenarios, scenarios, xl_scenarios

#: (scale, scenario, size(), world_count(), distinct_world_count())
PINNED = (
    ("small", "trip_certain", 29, 1, 1),
    ("small", "trip_possible_open", 29, 1, 1),
    ("small", "acquisition", 125, 12, 12),
    ("small", "acquisition_subquery_grouping", 125, 12, 12),
    ("small", "census_repair", 26, 16, 16),
    ("small", "census_repair_dml", 28, 8, 8),
    ("small", "tpch_what_if", 31, 1, 1),
    ("small", "dml_subquery_cleanup", 12, 3, 2),
    ("small", "three_coloring", 218, 81, 81),
    ("small", "uldb_genericity", 18, 12, 9),
    ("small", "dml_key_discard", 6, 2, 2),
    ("large", "trip_certain", 3038, 1, 1),
    ("large", "trip_possible_open", 3038, 1, 1),
    ("large", "acquisition", 251, 24, 24),
    ("large", "acquisition_subquery_grouping", 251, 24, 24),
    ("large", "census_repair", 60, 1024, 1024),
    ("large", "census_repair_dml", 46, 64, 64),
    ("large", "tpch_what_if", 385, 1, 1),
    ("large", "dml_subquery_cleanup", 12, 3, 2),
    ("large", "three_coloring", 2714, 729, 729),
    ("large", "uldb_genericity", 18, 12, 9),
    ("large", "dml_key_discard", 6, 2, 2),
    ("xl", "census_cleanup_dml_xxl", 484020, 65536, 62537),
    ("xl", "census_cleanup_dml_xl", 104, 8192, 4096),
    ("xl", "trip_certain_2p16", 193586, 1, 1),
    ("xl", "census_repair_xl", 100, 8192, 8192),
    ("xl", "acquisition_xl", 268879, 16384, 16384),
    ("xl", "tpch_what_if_xl", 4097, 1, 1),
    ("nightly", "census_repair_2p20", 8272, 2**20, 2**20),
)


@lru_cache(maxsize=None)
def _suite(scale: str) -> dict:
    if scale == "xl":
        suite = xl_scenarios()
    elif scale == "nightly":
        suite = nightly_scenarios(["census_repair_2p20"])
    else:
        suite = scenarios(scale)
    return {scenario.name: scenario for scenario in suite}


def test_every_scenario_is_pinned():
    pinned = {(scale, name) for scale, name, *_ in PINNED}
    for scale in ("small", "large", "xl"):
        assert {(scale, name) for name in _suite(scale)} <= pinned, scale


@pytest.mark.parametrize(
    "scale, name, size, worlds, distinct",
    PINNED,
    ids=[f"{scale}-{name}" for scale, name, *_ in PINNED],
)
def test_scenario_representation_is_pinned(scale, name, size, worlds, distinct):
    session, _ = run_scenario(_suite(scale)[name], lambda: InlineBackend())
    representation = session.backend.representation
    assert representation.size() == size
    assert representation.world_count() == worlds
    assert representation.distinct_world_count() == distinct
