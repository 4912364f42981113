"""Selection predicates for relational algebra and world-set algebra.

Predicates form a small boolean AST over comparisons of attributes and
constants. They are immutable, hashable (so rewrite rules can compare
query trees structurally), and compile to fast row-level closures via
:meth:`Predicate.bind`.

Supported comparisons mirror what the paper's examples need:
``=``, ``!=``, ``<``, ``<=``, ``>``, ``>=`` between two attributes or an
attribute and a constant — or arithmetic (:class:`Arith`) over those,
which the I-SQL compiler uses for conditions like
``sum - Revenue > 1000`` — plus ``and`` / ``or`` / ``not`` and the
constants ``TRUE`` / ``FALSE``.
"""

from __future__ import annotations

import operator
from itertools import repeat
from typing import Callable, Mapping

from repro.errors import EvaluationError, SchemaError
from repro.relational.schema import Schema

_OPS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITH_OPS: dict[str, Callable[[object, object], object]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

#: The comparisons whose negation is exactly the flipped operator.
#: Orderings are not among them: over mixed types both ``a < b`` and
#: ``a >= b`` are False (the :meth:`Comparison.bind` TypeError net).
_NEGATED: dict[str, str] = {"=": "!=", "!=": "="}


class Term:
    """A comparison operand: an attribute reference or a constant."""

    __slots__ = ()

    def attributes(self) -> frozenset[str]:
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Term":
        raise NotImplementedError

    def bind(self, schema: Schema) -> Callable[[tuple], object]:
        """Compile to a function from a row tuple to the operand's value."""
        raise NotImplementedError

    def column(self, relation) -> "object | None":
        """Vectorized evaluation: the term's value column over *relation*.

        *relation* is a columnar relation (duck-typed to avoid a module
        cycle: anything with ``column_values``/``__len__``). Returns an
        iterable, read once, aligned with the relation's rows — equal,
        element for element, to calling ``bind(relation.schema)`` on
        each row — or None when this term kind only evaluates row at a
        time (then callers fall back to the bound function). Arithmetic
        streams lazily: zipped columns evaluate row by row in the bound
        function's order and raise its first error. Columnar selection
        and DML masks read comparison operands through this.
        """
        return None


class Attr(Term):
    """Reference to an attribute by name."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def attributes(self) -> frozenset[str]:
        return frozenset((self.name,))

    def rename(self, mapping: Mapping[str, str]) -> "Attr":
        return Attr(mapping.get(self.name, self.name))

    def bind(self, schema: Schema) -> Callable[[tuple], object]:
        position = schema.index(self.name)
        return lambda row: row[position]

    def column(self, relation):
        return relation.column_values(self.name)

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Attr) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Attr", self.name))


class Const(Term):
    """A literal constant value."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "Const":
        return self

    def bind(self, schema: Schema) -> Callable[[tuple], object]:
        value = self.value
        return lambda row: value

    def column(self, relation):
        return repeat(self.value, len(relation))

    def __repr__(self) -> str:
        return repr(self.value)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Const)
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash(("Const", type(self.value).__name__, self.value))


def arithmetic(op: str, left: object, right: object) -> object:
    """``left op right`` under I-SQL's error contract.

    The one arithmetic of every evaluation route (the engine, bound
    predicates, column passes): an undefined operand (None — e.g.
    ``min`` over an empty group), a type mismatch or a division by zero
    raises :class:`EvaluationError`, never a bare Python exception.
    """
    combine = _ARITH_OPS.get(op)
    if combine is None:
        raise EvaluationError(f"unknown arithmetic operator {op!r}")
    if left is None or right is None:
        raise EvaluationError("arithmetic over an undefined (empty) aggregate")
    try:
        return combine(left, right)
    except ZeroDivisionError as exc:
        raise EvaluationError(f"arithmetic {op!r} divides by zero") from exc
    except (TypeError, ArithmeticError) as exc:
        raise EvaluationError(
            f"arithmetic {op!r} over incompatible values"
        ) from exc


class Arith(Term):
    """Binary arithmetic over two terms: ``left op right``.

    Evaluates through :func:`arithmetic`, whose
    :class:`EvaluationError` deliberately escapes the best-effort
    ``TypeError → False`` net of :meth:`Comparison.bind` so every
    evaluation route fails the same statements.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: object, right: object) -> None:
        if op not in _ARITH_OPS:
            raise SchemaError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = _as_term(left)
        self.right = _as_term(right)

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def rename(self, mapping: Mapping[str, str]) -> "Arith":
        return Arith(self.op, self.left.rename(mapping), self.right.rename(mapping))

    def bind(self, schema: Schema) -> Callable[[tuple], object]:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        op = self.op
        return lambda row: arithmetic(op, left(row), right(row))

    def column(self, relation):
        left = self.left.column(relation)
        right = self.right.column(relation)
        if left is None or right is None:
            return None
        return map(arithmetic, repeat(self.op), left, right)

    def __repr__(self) -> str:
        return f"({self.left!r}{self.op}{self.right!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Arith)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("Arith", self.op, self.left, self.right))


class PadDefault(Term):
    """An attribute read that maps the PAD sentinel to a default value.

    Used by the decorrelated scalar-aggregate comparison: the pad join
    ``outer =⊳⊲ S`` marks outer rows without a correlation partner with
    :data:`~repro.relational.pad.PAD` on the aggregate column, and this
    term turns that marker into the SQL empty-group default (0 for
    count/sum/avg, None for min/max) during predicate evaluation.
    """

    __slots__ = ("name", "default")

    def __init__(self, name: str, default: object) -> None:
        self.name = name
        self.default = default

    def attributes(self) -> frozenset[str]:
        return frozenset((self.name,))

    def rename(self, mapping: Mapping[str, str]) -> "PadDefault":
        return PadDefault(mapping.get(self.name, self.name), self.default)

    def bind(self, schema: Schema) -> Callable[[tuple], object]:
        from repro.relational.pad import PAD

        position = schema.index(self.name)
        default = self.default

        def value(row: tuple) -> object:
            raw = row[position]
            return default if raw is PAD else raw

        return value

    def column(self, relation):
        from repro.relational.pad import PAD

        default = self.default
        return [
            default if value is PAD else value
            for value in relation.column_values(self.name)
        ]

    def __repr__(self) -> str:
        return f"{self.name}⟨pad→{self.default!r}⟩"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PadDefault)
            and other.name == self.name
            and other.default == self.default
        )

    def __hash__(self) -> int:
        return hash(("PadDefault", self.name, self.default))


class ScalarGuard(Term):
    """The runtime cardinality guard of a non-aggregate scalar subquery.

    Wraps the term reading the subquery's value (the ``single``
    pseudo-aggregate column, usually through :class:`PadDefault`) and
    raises the engine's "more than one row" error when the value is the
    :data:`~repro.relational.aggregates.AMBIGUOUS` sentinel — i.e. the
    subquery held several distinct values in that row's world/correlation
    group. Raising at *read* time keeps the flat route exactly as lazy
    as the engine: a many-valued group that no surviving outer row ever
    consults is not an error.
    """

    __slots__ = ("term",)

    def __init__(self, term: object) -> None:
        self.term = _as_term(term)

    def attributes(self) -> frozenset[str]:
        return self.term.attributes()

    def rename(self, mapping: Mapping[str, str]) -> "ScalarGuard":
        return ScalarGuard(self.term.rename(mapping))

    def bind(self, schema: Schema) -> Callable[[tuple], object]:
        from repro.relational.aggregates import AMBIGUOUS

        inner = self.term.bind(schema)

        def value(row: tuple) -> object:
            raw = inner(row)
            if raw is AMBIGUOUS:
                raise EvaluationError(
                    "a scalar subquery produced more than one row"
                )
            return raw

        return value

    def __repr__(self) -> str:
        return f"1row({self.term!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ScalarGuard) and other.term == self.term

    def __hash__(self) -> int:
        return hash(("ScalarGuard", self.term))


def _as_term(operand: object) -> Term:
    """Coerce a raw operand to a Term (strings name attributes)."""
    if isinstance(operand, Term):
        return operand
    if isinstance(operand, str):
        return Attr(operand)
    return Const(operand)


#: Public coercion alias — the I-SQL compiler hands the inline backend
#: set-clause value terms through this, so they always bind uniformly.
as_term = _as_term


class Predicate:
    """Abstract base class for selection conditions."""

    __slots__ = ()

    def attributes(self) -> frozenset[str]:
        """All attribute names referenced by the predicate."""
        raise NotImplementedError

    def rename(self, mapping: Mapping[str, str]) -> "Predicate":
        """The predicate with attributes renamed by *mapping* (old → new)."""
        raise NotImplementedError

    def bind(self, schema: Schema) -> Callable[[tuple], bool]:
        """Compile to a fast row-level boolean function for *schema*."""
        raise NotImplementedError

    def negate(self) -> "Predicate":
        """Logical negation, pushed through comparisons where possible."""
        return Not(self)

    # Convenience connectives so predicates compose fluently.
    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return self.negate()

    def equality_pairs(self) -> list[tuple[str, str]] | None:
        """If the predicate is a conjunction of attr=attr equalities,
        return the list of pairs; otherwise None.

        Used by the evaluator to pick hash-based equi-joins.
        """
        return None


class Comparison(Predicate):
    """A binary comparison between two terms."""

    __slots__ = ("left", "op", "right")

    def __init__(self, left: object, op: str, right: object) -> None:
        if op not in _OPS:
            raise SchemaError(f"unknown comparison operator {op!r}")
        self.left = _as_term(left)
        self.op = op
        self.right = _as_term(right)

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def rename(self, mapping: Mapping[str, str]) -> "Comparison":
        return Comparison(self.left.rename(mapping), self.op, self.right.rename(mapping))

    def bind(self, schema: Schema) -> Callable[[tuple], bool]:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        compare = _OPS[self.op]

        def check(row: tuple) -> bool:
            try:
                return bool(compare(left(row), right(row)))
            except TypeError:
                # Mixed-type ordering comparisons are false rather than
                # an error, matching SQL's typed-comparison failure mode
                # under a best-effort Python value model.
                return False

        return check

    def negate(self) -> Predicate:
        if self.op in _NEGATED:
            return Comparison(self.left, _NEGATED[self.op], self.right)
        return Not(self)

    def equality_pairs(self) -> list[tuple[str, str]] | None:
        if self.op == "=" and isinstance(self.left, Attr) and isinstance(self.right, Attr):
            return [(self.left.name, self.right.name)]
        return None

    def __repr__(self) -> str:
        return f"{self.left!r}{self.op}{self.right!r}"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Comparison)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("Comparison", self.left, self.op, self.right))


class And(Predicate):
    """Conjunction of two predicates."""

    __slots__ = ("left", "right")

    def __init__(self, left: Predicate, right: Predicate) -> None:
        self.left = left
        self.right = right

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def rename(self, mapping: Mapping[str, str]) -> "And":
        return And(self.left.rename(mapping), self.right.rename(mapping))

    def bind(self, schema: Schema) -> Callable[[tuple], bool]:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        return lambda row: left(row) and right(row)

    def negate(self) -> Predicate:
        return Or(self.left.negate(), self.right.negate())

    def equality_pairs(self) -> list[tuple[str, str]] | None:
        left = self.left.equality_pairs()
        right = self.right.equality_pairs()
        if left is None or right is None:
            return None
        return left + right

    def __repr__(self) -> str:
        return f"({self.left!r} ∧ {self.right!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and other.left == self.left and other.right == self.right

    def __hash__(self) -> int:
        return hash(("And", self.left, self.right))


class Or(Predicate):
    """Disjunction of two predicates."""

    __slots__ = ("left", "right")

    def __init__(self, left: Predicate, right: Predicate) -> None:
        self.left = left
        self.right = right

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def rename(self, mapping: Mapping[str, str]) -> "Or":
        return Or(self.left.rename(mapping), self.right.rename(mapping))

    def bind(self, schema: Schema) -> Callable[[tuple], bool]:
        left = self.left.bind(schema)
        right = self.right.bind(schema)
        return lambda row: left(row) or right(row)

    def negate(self) -> Predicate:
        return And(self.left.negate(), self.right.negate())

    def __repr__(self) -> str:
        return f"({self.left!r} ∨ {self.right!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and other.left == self.left and other.right == self.right

    def __hash__(self) -> int:
        return hash(("Or", self.left, self.right))


class Not(Predicate):
    """Negation of a predicate."""

    __slots__ = ("operand",)

    def __init__(self, operand: Predicate) -> None:
        self.operand = operand

    def attributes(self) -> frozenset[str]:
        return self.operand.attributes()

    def rename(self, mapping: Mapping[str, str]) -> "Not":
        return Not(self.operand.rename(mapping))

    def bind(self, schema: Schema) -> Callable[[tuple], bool]:
        inner = self.operand.bind(schema)
        return lambda row: not inner(row)

    def negate(self) -> Predicate:
        return self.operand

    def __repr__(self) -> str:
        return f"¬{self.operand!r}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and other.operand == self.operand

    def __hash__(self) -> int:
        return hash(("Not", self.operand))


class _Boolean(Predicate):
    """A constant predicate (TRUE or FALSE)."""

    __slots__ = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def rename(self, mapping: Mapping[str, str]) -> "_Boolean":
        return self

    def bind(self, schema: Schema) -> Callable[[tuple], bool]:
        value = self.value
        return lambda row: value

    def negate(self) -> "_Boolean":
        return FALSE if self.value else TRUE

    def equality_pairs(self) -> list[tuple[str, str]] | None:
        return [] if self.value else None

    def __repr__(self) -> str:
        return "true" if self.value else "false"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Boolean) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("_Boolean", self.value))


#: The always-true predicate.
TRUE = _Boolean(True)
#: The always-false predicate.
FALSE = _Boolean(False)


# -- convenience constructors ---------------------------------------------


def eq(left: object, right: object) -> Comparison:
    """``left = right`` (strings are attribute names)."""
    return Comparison(left, "=", right)


def neq(left: object, right: object) -> Comparison:
    """``left != right`` (strings are attribute names)."""
    return Comparison(left, "!=", right)


def lt(left: object, right: object) -> Comparison:
    """``left < right``."""
    return Comparison(left, "<", right)


def le(left: object, right: object) -> Comparison:
    """``left <= right``."""
    return Comparison(left, "<=", right)


def gt(left: object, right: object) -> Comparison:
    """``left > right``."""
    return Comparison(left, ">", right)


def ge(left: object, right: object) -> Comparison:
    """``left >= right``."""
    return Comparison(left, ">=", right)


def conjunction(predicates: list[Predicate]) -> Predicate:
    """The conjunction of all *predicates* (TRUE when empty)."""
    result: Predicate = TRUE
    for index, predicate in enumerate(predicates):
        result = predicate if index == 0 else And(result, predicate)
    return result
