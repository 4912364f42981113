"""The padding constant of the modified left outer join (Remark 5.5).

The paper's translation of choice-of uses a left outer join that pads
dangling tuples with "a special constant c" (footnote 1 of the paper)
instead of SQL nulls. The same constant realizes the dummy choice
``v = 1`` that Figure 3 assigns when choice-of is applied to an empty
relation.

We deviate from the literal ``1`` of Figure 3 and use a dedicated
sentinel: a data value ``1`` in a choice column would otherwise collide
with the dummy world id (see the faithfulness notes in DESIGN.md). The
sentinel orders before every other value so that rendered tables are
deterministic. It is a true singleton — construction, pickling and
copying all yield the one instance — so it keeps ``object``'s identity
hash and equality, which hash a row holding ⊥ at C speed.
"""

from __future__ import annotations

from typing import Any


class PadConstant:
    """Singleton sentinel used to pad dangling outer-join tuples."""

    _instance: "PadConstant | None" = None

    def __new__(cls) -> "PadConstant":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __lt__(self, other: object) -> bool:
        return not isinstance(other, PadConstant)

    def __gt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return True

    def __ge__(self, other: object) -> bool:
        return isinstance(other, PadConstant)

    def __reduce__(self) -> tuple[Any, ...]:
        return (PadConstant, ())


#: The padding constant ``c`` of Remark 5.5.
PAD = PadConstant()


def sort_key(value: object) -> tuple[int, str, object]:
    """A total order over mixed-type values, for deterministic rendering.

    ``PAD`` sorts first, then values grouped by type name and compared
    within their own type. This is only used for display and stable
    iteration, never for query semantics.
    """
    if isinstance(value, PadConstant):
        return (0, "", "")
    if isinstance(value, bool):
        return (1, "bool", value)
    if isinstance(value, (int, float)):
        return (1, "number", value)
    return (1, type(value).__name__, value)  # type: ignore[return-value]


def row_sort_key(row: tuple) -> tuple:
    """Sort key for whole rows (tuple of per-value keys)."""
    return tuple(sort_key(v) for v in row)
