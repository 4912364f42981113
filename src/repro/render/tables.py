"""ASCII rendering of relations, worlds, world-sets, and representations.

The examples print their output in the shape the paper's figures use:
small headed tables, one per relation, grouped per world. Rendering is
deterministic (rows are sorted) so example output is reproducible.
"""

from __future__ import annotations

from repro.inline.representation import InlinedRepresentation
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.worlds.worldset import WorldSet


def render_relation(relation: Relation, title: str | None = None) -> str:
    """Render one relation as an ASCII table (Figure 2 style)."""
    headers = list(relation.schema.attributes)
    if not headers:
        body = "⟨⟩" if relation.rows else "∅"
        return f"{title or ''}{'() ' if title else ''}{body}".strip()
    rows = [[repr(v) if isinstance(v, str) else str(v) for v in row] for row in relation.sorted_rows()]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    if not rows:
        lines.append("(empty)")
    return "\n".join(lines)


def render_database(database: Database, title: str | None = None) -> str:
    """Render all relations of a database/world, one table per relation."""
    parts = []
    if title:
        parts.append(f"=== {title} ===")
    for name, relation in database.items():
        parts.append(render_relation(relation, title=name))
    return "\n\n".join(parts)


def render_world_set(world_set: WorldSet, title: str | None = None) -> str:
    """Render every world of a world-set (Figure 2 (b)–(d) style)."""
    parts = []
    if title:
        parts.append(f"### {title} ({len(world_set)} worlds) ###")
    for index, world in enumerate(world_set.sorted_worlds(), start=1):
        parts.append(render_database(world, title=f"world {index}"))
    return "\n\n".join(parts)


def render_representation(
    representation: InlinedRepresentation, title: str | None = None
) -> str:
    """Render an inlined representation (Figure 4/5 style)."""
    parts = []
    if title:
        parts.append(f"### {title} ###")
    for name, table in representation.tables.items():
        parts.append(render_relation(table, title=f"{name}ᵀ"))
    # W renders as stored: one table ``W``, or factor by factor (``W0``,
    # ``W1``, …) — the joint table is then the (never materialized)
    # product of these.
    for factor_name, factor in representation.factor_tables().items():
        parts.append(render_relation(factor, title=factor_name.lstrip("#")))
    return "\n\n".join(parts)
