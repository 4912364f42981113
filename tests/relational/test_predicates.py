"""Selection predicates: evaluation, renaming, structure."""

import pytest

from repro.errors import SchemaError
from repro.relational import (
    And,
    Attr,
    Comparison,
    Const,
    FALSE,
    Not,
    Or,
    Schema,
    TRUE,
    conjunction,
    eq,
    ge,
    gt,
    le,
    lt,
    neq,
)

SCHEMA = Schema(("A", "B"))


def holds(predicate, row):
    return predicate.bind(SCHEMA)(row)


class TestComparisons:
    def test_attr_to_const(self):
        assert holds(eq("A", Const(1)), (1, 2))
        assert not holds(eq("A", Const(1)), (2, 2))

    def test_attr_to_attr(self):
        assert holds(eq("A", "B"), (3, 3))
        assert not holds(eq("A", "B"), (3, 4))

    def test_orderings(self):
        assert holds(lt("A", "B"), (1, 2))
        assert holds(le("A", "B"), (2, 2))
        assert holds(gt("B", "A"), (1, 2))
        assert holds(ge("A", "B"), (2, 2))
        assert holds(neq("A", "B"), (1, 2))

    def test_mixed_type_ordering_is_false_not_error(self):
        assert not holds(lt("A", "B"), (1, "x"))

    def test_unknown_operator_rejected(self):
        with pytest.raises(SchemaError):
            Comparison("A", "~", "B")

    def test_unknown_attribute_rejected_at_bind(self):
        with pytest.raises(SchemaError):
            eq("Z", Const(1)).bind(SCHEMA)


class TestConnectives:
    def test_and_or_not(self):
        p = And(eq("A", Const(1)), eq("B", Const(2)))
        assert holds(p, (1, 2)) and not holds(p, (1, 3))
        q = Or(eq("A", Const(1)), eq("B", Const(9)))
        assert holds(q, (5, 9)) and not holds(q, (5, 5))
        assert holds(Not(FALSE), (0, 0))

    def test_operator_sugar(self):
        p = eq("A", Const(1)) & ~eq("B", Const(2))
        assert holds(p, (1, 3)) and not holds(p, (1, 2))
        q = eq("A", Const(9)) | TRUE
        assert holds(q, (0, 0))

    def test_conjunction_of_empty_list_is_true(self):
        assert conjunction([]) is TRUE

    def test_conjunction_chains(self):
        p = conjunction([eq("A", Const(1)), eq("B", Const(2))])
        assert holds(p, (1, 2)) and not holds(p, (2, 2))


class TestNegation:
    def test_comparison_negation_flips_operator(self):
        assert eq("A", "B").negate().op == "!="
        assert neq("A", "B").negate().op == "="

    def test_ordering_negation_is_exact_on_mixed_types(self):
        """``A < B`` and ``A >= B`` are both False when the types mix,
        so an ordering's negation stays a ``Not`` instead of flipping."""
        for comparison in (lt("A", "B"), le("A", "B"), gt("A", "B"), ge("A", "B")):
            assert comparison.negate() == Not(comparison)
            assert not holds(comparison, (1, "x"))
            assert holds(comparison.negate(), (1, "x"))

    def test_de_morgan(self):
        p = And(eq("A", Const(1)), eq("B", Const(2))).negate()
        assert isinstance(p, Or)
        q = Or(eq("A", Const(1)), eq("B", Const(2))).negate()
        assert isinstance(q, And)

    def test_double_negation_collapses(self):
        p = eq("A", Const(1))
        assert Not(p).negate() == p


class TestStructure:
    def test_attributes_collects_all(self):
        p = And(eq("A", "B"), eq("A", Const(1)))
        assert p.attributes() == frozenset({"A", "B"})

    def test_rename(self):
        p = eq("A", "B").rename({"A": "X"})
        assert p.attributes() == frozenset({"X", "B"})

    def test_equality_and_hash(self):
        assert eq("A", Const(1)) == eq("A", Const(1))
        assert hash(eq("A", Const(1))) == hash(eq("A", Const(1)))
        assert eq("A", Const(1)) != eq("A", Const(2))

    def test_const_equality_is_type_sensitive(self):
        assert Const(1) != Const(True)
        assert Const(1) != Const(1.0)

    def test_equality_pairs_for_hash_joins(self):
        p = And(eq("A", "X"), eq("B", "Y"))
        assert p.equality_pairs() == [("A", "X"), ("B", "Y")]
        assert eq("A", Const(1)).equality_pairs() is None
        assert TRUE.equality_pairs() == []
        assert And(eq("A", "X"), lt("B", "Y")).equality_pairs() is None
