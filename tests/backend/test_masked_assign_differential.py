"""Column-form ≡ row-list form ≡ tuple kernel for updates on a split table.

The columnar ``masked_assign`` rewrites only the columns an update
writes and shares every other column by object, so a ``choice of``
world id stays an alias of its value column across commits. That is
allowed to change cost only. Randomized update scripts run on a split
relation three ways — the committed columnar table as the kernel left
it (column form, aliases intact), the same table forced into row-list
form before every statement, and the tuple kernel — and must leave
equal world-sets, equal answers and an equal checkpoint sequence.

Scripts write the aliased value column (``set Dep = …``, after which a
``select certain`` must deduplicate rows that now differ only in the
dropped column), copy columns (``set Arr = Dep``), collide rewritten
rows with kept rows and with each other, and match nothing.
``REPRO_FUZZ_SCRIPTS`` scales the case count for the nightly run.
"""

from __future__ import annotations

import random

import pytest

from repro.backend import InlineBackend
from repro.backend.testing import fuzz_range
from repro.isql import ISQLSession
from repro.relational import ColumnarRelation, Relation
from repro.relational.guards import op_hook

DEPARTURES = ("a", "b", "c")
ARRIVALS = ("a", "b", "x", "y")
VALUES = DEPARTURES + ARRIVALS + ("zz",)

UPDATES = (
    # A constant into the value column the world id aliases.
    "update Itin set Dep = '{v}' where Arr = '{w}';",
    "update Itin set Dep = '{v}' where Dep = '{u}';",
    # A constant into an unaliased column: collides with kept rows.
    "update Itin set Arr = '{v}' where Dep = '{u}';",
    "update Itin set Arr = '{v}' where Dep = '{u}' and Arr = '{w}';",
    # Column copies and a swap (every source reads the pre-update row).
    "update Itin set Arr = Dep where Arr != '{w}';",
    "update Itin set Dep = Arr, Arr = Dep where Dep = '{u}';",
    # Matches nothing.
    "update Itin set Arr = '{v}' where Dep = 'nowhere';",
)
READS = (
    "select certain Arr from Itin;",
    "select certain Dep from Itin;",
    "select certain Arr from Itin where Arr != '{w}';",
    "select possible Dep, Arr from Itin where Dep = '{u}';",
)


def _script(seed: int) -> tuple[Relation, list[str]]:
    rng = random.Random(seed)
    pairs = [(d, a) for d in DEPARTURES for a in ARRIVALS]
    rows = rng.sample(pairs, rng.randint(2, len(pairs)))
    statements = []
    for _ in range(rng.randint(3, 8)):
        template = rng.choice(UPDATES if rng.random() < 0.6 else READS)
        statements.append(
            template.format(
                u=rng.choice(DEPARTURES), v=rng.choice(VALUES), w=rng.choice(ARRIVALS)
            )
        )
    return Relation(("Dep", "Arr"), rows), statements


def _force_row_list(session: ISQLSession) -> None:
    """Replace the committed table's columnar twin by a row-list one."""
    table = session.backend.representation.tables["Itin"]
    table._columnar = ColumnarRelation._from_rows(table.schema, list(table.rows))


def _run(relation: Relation, statements, kernel: str, row_list: bool):
    session = ISQLSession(backend=InlineBackend(kernel=kernel, cache=False))
    session.register("Flights", relation)
    session.run("Itin <- select * from Flights choice of Dep;")
    ops: list[tuple[str, int]] = []
    observed = []
    for statement in statements:
        if row_list:
            _force_row_list(session)
        with op_hook(lambda op, rows: ops.append((op, rows))):
            (result,) = session.run(statement)
        if result.kind == "select":
            observed.append(frozenset(result.answers()))
        else:
            observed.append(result.applied)
        observed.append(session.world_set)
    return observed, ops


@pytest.mark.parametrize("seed", fuzz_range(48))
def test_update_scripts_agree_across_table_forms(seed):
    relation, statements = _script(seed)
    columns, column_ops = _run(relation, statements, "columnar", row_list=False)
    rows, row_ops = _run(relation, statements, "columnar", row_list=True)
    reference, reference_ops = _run(relation, statements, "tuple", row_list=False)
    assert columns == reference, statements
    assert rows == reference, statements
    assert column_ops == row_ops == reference_ops, statements


def test_aliased_value_write_then_certain_dedups():
    """``set Dep`` splits Dep off its world-id alias: the certain read
    must then project by deduplication, not by dropping an alias."""
    relation = Relation(("Dep", "Arr"), [("a", "x"), ("a", "y"), ("b", "x")])
    statements = [
        "update Itin set Dep = 'c' where Arr = 'y';",
        "select certain Dep from Itin;",
        "select certain Arr from Itin;",
    ]
    columns, _ = _run(relation, statements, "columnar", row_list=False)
    reference, _ = _run(relation, statements, "tuple", row_list=False)
    assert columns == reference
    session = ISQLSession(backend=InlineBackend(kernel="columnar"))
    session.register("Flights", relation)
    session.run("Itin <- select * from Flights choice of Dep;")
    backend = session.backend
    (world_id,) = backend.representation.table_id_attrs("Itin")

    def aliased() -> bool:
        table = backend._in_kernel(backend.representation.tables["Itin"])
        columns = table.columns
        return columns[table.schema.index("Dep")] is columns[table.schema.index(world_id)]

    assert aliased()
    session.run(statements[0])
    assert not aliased()
