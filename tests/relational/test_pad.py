"""The PAD sentinel: identity, ordering, hashing, pickling."""

import copy
import pickle

from repro.relational import PAD, PadConstant
from repro.relational.pad import row_sort_key, sort_key


class TestSingleton:
    def test_construction_returns_the_singleton(self):
        assert PadConstant() is PAD

    def test_pickle_roundtrip_preserves_identity(self):
        assert pickle.loads(pickle.dumps(PAD)) is PAD

    def test_equality_and_hash(self):
        assert PAD == PadConstant()
        assert hash(PAD) == hash(PadConstant())
        assert PAD != 1 and PAD != "⊥"

    def test_copies_preserve_identity(self):
        assert copy.copy(PAD) is PAD
        assert copy.deepcopy(PAD) is PAD
        assert copy.deepcopy([(1, PAD)])[0][1] is PAD
        assert pickle.loads(pickle.dumps((PAD, [PAD])))[1][0] is PAD

    def test_identity_hash_and_equality(self):
        """⊥ hashes and compares by identity: no Python-level
        ``__hash__``/``__eq__``, so rows holding it hash at C speed."""
        assert "__hash__" not in vars(PadConstant)
        assert "__eq__" not in vars(PadConstant)
        assert hash(PAD) == object.__hash__(PAD)
        rows = [(1, PAD), (1, PadConstant()), (1, pickle.loads(pickle.dumps(PAD)))]
        assert len(set(rows)) == 1
        assert (1, PAD) in {(1, copy.deepcopy(PAD))}


class TestOrdering:
    def test_sorts_before_everything(self):
        values = sorted([3, PAD, "a", 1], key=sort_key)
        assert values[0] is PAD

    def test_comparisons(self):
        assert PAD < 0 and PAD <= 0 and not PAD > 0 and not PAD >= 0
        assert PAD <= PAD and PAD >= PAD and not PAD < PAD


class TestSortKeys:
    def test_numbers_sort_together(self):
        values = sorted([2.5, 1, 3], key=sort_key)
        assert values == [1, 2.5, 3]

    def test_mixed_types_are_grouped_not_compared(self):
        values = sorted(["b", 2, "a", 1], key=sort_key)
        assert values == [1, 2, "a", "b"]

    def test_row_sort_key_is_lexicographic(self):
        rows = sorted([(2, "a"), (1, "z"), (1, "a")], key=row_sort_key)
        assert rows == [(1, "a"), (1, "z"), (2, "a")]

    def test_pad_sort_key_is_unchanged(self):
        assert sort_key(PAD) == (0, "", "")
        assert sort_key(PAD) < sort_key(0) and sort_key(PAD) < sort_key("")
        rows = sorted([(1, "a"), (PAD, "b"), (0, PAD)], key=row_sort_key)
        assert rows == [(PAD, "b"), (0, PAD), (1, "a")]

    def test_bool_vs_int_distinct(self):
        assert sort_key(True) != sort_key(1)
