"""Array kernel: numpy column storage for the inline hot path.

``REPRO_KERNEL=array`` selects this third execution kernel: an
:class:`ArrayRelation` subclasses :class:`ColumnarRelation` but stores
each attribute as a numpy array wrapped in a :class:`_Column`, so the
operators the inline evaluator leans on become whole-array passes —

* selection compiles the predicate tree to one boolean mask
  (comparisons are elementwise array ops with the same best-effort
  ``TypeError → False`` semantics as the row closures; arithmetic and
  PAD-defaulting reads are array passes wherever no row can raise);
* ``mask``/``difference``/semijoins reduce to integer *row codes* —
  per-column factorizations combined into one int64 key per row — and a
  single membership pass (a scatter over a narrow key domain, else one
  sort and a binary search);
* ``join_on`` and ``left_outer_join_padded`` find each left row's
  partners as one run over the stably sorted right keys, then gather
  both sides (a dangling row's right columns gather as ⊥);
  ``product`` is ``repeat``/``tile`` gathers;
* grouping and deduplication (``aggregate_by``, ``group_worlds``,
  projection, union) number row codes by first occurrence: a reverse
  scatter over a narrow key domain, else one unstable argsort whose
  equal-key runs give each group's first row by ``np.minimum.reduceat``;
* ``cert`` counting is ``np.bincount`` over one column's codes;
* column aliasing (``copy_attribute``, alias-dropping projections)
  stays O(1): a :class:`_Column` object is shared, never copied.

Dtype tightening is deliberately strict: a column becomes ``int64``,
``float64``, ``bool_`` or ``U<k>`` only when *every* value has exactly
that Python type (and no trailing-NUL string, no NaN, no out-of-range
int would round-trip wrongly) — or, for int, float and str, that type
or ⊥ (:data:`~repro.relational.pad.PAD`): such a column keeps its typed
array plus a boolean pad mask, and factorizes ⊥ to one code of its own.
Anything else — ``None``, mixed types, ⊥ beside a bool — stays a Python
``object`` array holding the original values. Rows materialize through
``ndarray.tolist()`` (⊥ patched in), so the kernel never leaks numpy
scalars into row tuples.

numpy is an optional dependency: the kernel registers unconditionally
(``array`` is always a valid name) but raises a clear
:class:`EvaluationError` at selection time when numpy is missing.
Cross-kernel conversion (:func:`as_array`) is cached on the source
:class:`Relation` via its ``_array`` slot, mirroring ``as_columnar``.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import is_not
from typing import Iterator, Sequence

try:  # pragma: no cover - exercised via the numpy-absent tests
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from repro.errors import EvaluationError, SchemaError
from repro.relational import aggregates
from repro.relational.guards import checkpoint
from repro.relational.columnar import (
    ColumnarRelation,
    KernelOps,
    _transpose,
    as_tuple,
)
from repro.relational.predicates import (
    And,
    Arith,
    Attr,
    Comparison,
    Const,
    Not,
    Or,
    PadDefault,
    Predicate,
    _Boolean,
    arithmetic,
)
from repro.relational.pad import PAD, PadConstant
from repro.relational.relation import (
    Relation,
    Row,
    check_join_pairs_cover_shared,
    written_constant,
)
from repro.relational.schema import Schema

#: Largest per-row key the multiply-add code combiner may reach before
#: it compresses through np.unique (headroom below int64 overflow).
_CODE_LIMIT = 1 << 62

#: Every int of at most this magnitude converts to float64 exactly.
_FLOAT_EXACT = 1 << 53


def have_numpy() -> bool:
    """Whether numpy is importable (the array kernel's one dependency)."""
    return np is not None


def _require_numpy() -> None:
    if np is None:
        raise EvaluationError(
            "the array kernel requires numpy, which is not installed; "
            "install numpy or select REPRO_KERNEL=columnar|tuple"
        )


# -- typed column storage -----------------------------------------------------------


class _Column:
    """One attribute's values as a numpy array, plus cached factorization.

    ``values`` is an ``int64``, ``float64``, ``bool_`` or ``U<k>`` array,
    or an ``object`` array of the original Python values. An int, float
    or str column that also holds ⊥ (:data:`PAD`, the padding constant
    of Remark 5.5) stays typed: ``pad`` is then the boolean mask of its
    ⊥ positions, whose ``values`` slots hold some other value of the
    dtype and are never read as values. ``pad`` is None on a column
    without ⊥.

    ``codes()`` assigns each distinct value an integer in ``[0, nuniq)``:
    O(n) shift-coding for dense int64 columns, ``np.unique`` for other
    typed ones, and a dict pass (Python equality, so ``1``/``1.0``/
    ``True`` collapse exactly like they do in a row-tuple set) for
    object columns. A typed column's decode table ``_uniques`` holds
    only real values; ⊥ owns the one code after it, ``len(_uniques)``,
    so repaired id columns keep the dense path. Codes and the decode
    table survive gathers (:meth:`take`), so a session's base columns
    factorize once.
    """

    __slots__ = ("values", "pad", "_codes", "_nuniq", "_uniques")

    def __init__(self, values, pad=None) -> None:
        self.values = values
        self.pad = pad
        self._codes = None
        self._nuniq = 0
        self._uniques = None

    @classmethod
    def from_values(cls, column: list) -> "_Column":
        """Type-tighten a Python value list into the narrowest safe array.

        ⊥ beside one int, float or str kind keeps the column typed: the
        other values type as usual and spread back to their rows, a real
        value fills the ⊥ slots, and the pad mask marks those.
        """
        kinds = set(map(type, column))
        if PadConstant in kinds and len(kinds) == 2 and kinds & {int, float, str}:
            real = list(map(is_not, column, repeat(PAD)))
            typed = cls._typed(kinds - {PadConstant}, list(compress(column, real)))
            if typed is not None:
                at = np.fromiter(compress(range(len(column)), real), dtype=np.int64)
                return typed._spread(at, len(column))
        else:
            typed = cls._typed(kinds, column)
            if typed is not None:
                return typed
        values = np.empty(len(column), dtype=object)
        values[:] = column
        return cls(values)

    @classmethod
    def _typed(cls, kinds: set, column: list) -> "_Column | None":
        """*column* as an int64, float64, U or bool array when its value
        *kinds* allow one exactly; None keeps it object."""
        if kinds == {int}:
            try:
                return cls(np.array(column, dtype=np.int64))
            except OverflowError:
                return None
        if kinds == {float}:
            values = np.array(column, dtype=np.float64)
            if np.isnan(values).any():
                # NaN stays object: two NaN objects are distinct row
                # values under Python's identity-then-equality model,
                # which float64 uniqueness would collapse.
                return None
            return cls(values)
        if kinds == {str}:
            # Factorize first: one dict pass plus a gather from the
            # (small) unique table beats numpy's per-element U
            # conversion by an order of magnitude on multi-million-row
            # columns, and the codes come out pre-cached for free.
            mapping: dict = {}
            fresh_code = mapping.setdefault
            codes = np.array(
                [fresh_code(value, len(mapping)) for value in column],
                dtype=np.int64,
            )
            uniques = list(mapping)
            if any(map(str.endswith, uniques, repeat("\x00"))):
                # Trailing NULs would silently truncate in a U array
                # (checked over the uniques only — cheap).
                return None
            uarr = np.array(uniques, dtype=np.str_)
            fresh = cls(uarr[codes] if len(uniques) else uarr)
            fresh._codes = codes
            fresh._nuniq = len(uniques)
            fresh._uniques = uarr
            return fresh
        if kinds == {bool}:
            return cls(np.array(column, dtype=np.bool_))
        return None

    def _spread(self, at, n: int) -> "_Column":
        """This typed column's values placed at positions *at* of an
        *n*-row column whose other positions hold ⊥."""
        values = np.full(n, self.values[0], dtype=self.values.dtype)
        values[at] = self.values
        pad = np.ones(n, dtype=np.bool_)
        pad[at] = False
        spread = _Column(values, pad)
        if self._codes is not None:
            spread._codes = np.full(n, self._nuniq, dtype=np.int64)
            spread._codes[at] = self._codes
            spread._nuniq = self._nuniq + 1
            spread._uniques = self._uniques
        return spread

    def __len__(self) -> int:
        return len(self.values)

    def codes(self):
        """The int64 factorization codes (cached)."""
        if self._codes is None:
            values = self.values
            if values.dtype == object:
                mapping: dict = {}
                fresh_code = mapping.setdefault
                self._codes = np.array(
                    [
                        fresh_code(value, len(mapping))
                        for value in values.tolist()
                    ],
                    dtype=np.int64,
                )
                self._nuniq = len(mapping)
                self._uniques = list(mapping)
                return self._codes
            if (
                values.dtype == np.int64
                and len(values)
                and (span := _dense_span(values)) is not None
            ):
                # Dense ints (world ids above all): shift-coding is O(n)
                # where np.unique pays an argsort. Codes stay in
                # [0, nuniq) but need not be contiguous — every consumer
                # treats nuniq as a domain bound, not a distinct count.
                vmin, width = span
                self._codes = values - vmin
                self._uniques = np.arange(vmin, vmin + width, dtype=np.int64)
            else:
                uniques, inverse = np.unique(values, return_inverse=True)
                self._codes = inverse.astype(np.int64, copy=False)
                self._uniques = uniques
            self._nuniq = len(self._uniques)
            if self.pad is not None:
                self._codes[self.pad] = self._nuniq
                self._nuniq += 1
        return self._codes

    @property
    def nuniq(self) -> int:
        self.codes()
        return self._nuniq

    def table(self) -> list:
        """The decode table as Python values: entry *c* is code *c*'s
        value (⊥ last on a typed column that has a ⊥ code)."""
        uniques = self._uniques
        if isinstance(uniques, list):
            return uniques
        table = uniques.tolist()
        return table + [PAD] if self._nuniq > len(table) else table

    def decode(self, codes) -> list:
        """Python values for an array of this column's codes."""
        uniques = self._uniques
        if isinstance(uniques, list) or self._nuniq > len(uniques):
            table = self.table()
            return [table[code] for code in codes.tolist()]
        return uniques[codes].tolist()

    def pad_mask(self):
        """The ⊥ mask, all False on a column without ⊥."""
        if self.pad is None:
            return np.zeros(len(self.values), dtype=np.bool_)
        return self.pad

    def objects(self):
        """The values as an object array of Python values, ⊥ included."""
        values = self.values
        if values.dtype == object:
            return values
        objects = values.astype(object)
        if self.pad is not None:
            objects[self.pad] = PAD
        return objects

    def take(self, selector) -> "_Column":
        """The column gathered by a boolean mask or index array."""
        pad = None if self.pad is None else _any_pad(self.pad[selector])
        column = _Column(self.values[selector], pad)
        if self._codes is not None:
            column._codes = self._codes[selector]
            column._nuniq = self._nuniq
            column._uniques = self._uniques
        return column

    def tolist(self) -> list:
        if self.pad is None:
            return self.values.tolist()
        return self.objects().tolist()


def _any_pad(pad):
    """*pad*, or None when it marks no ⊥ (a column's pad is None then)."""
    return pad if pad is not None and pad.any() else None


def _concat_columns(left: _Column, right: _Column) -> _Column:
    """Stack two columns, falling back to object on any kind mismatch."""
    lv, rv = left.values, right.values
    if lv.dtype != object and rv.dtype != object and lv.dtype.kind == rv.dtype.kind:
        pad = None
        if left.pad is not None or right.pad is not None:
            pad = np.concatenate([left.pad_mask(), right.pad_mask()])
        return _Column(np.concatenate([lv, rv]), pad)
    return _Column(np.concatenate([left.objects(), right.objects()]))


def _const_fits(dtype, value) -> bool:
    """Whether writing *value* into an array of *dtype* is lossless
    (⊥ into an int, float or str column is, through its pad mask)."""
    kind = dtype.kind
    cls = type(value)
    if cls is PadConstant:
        return kind in "ifU"
    if kind == "i":
        return cls is int and -(1 << 63) <= value < (1 << 63)
    if kind == "f":
        return cls is float and value == value  # NaN stays object
    if kind == "b":
        return cls is bool
    if kind == "U":
        return (
            cls is str
            and len(value) * 4 <= dtype.itemsize
            and not value.endswith("\x00")
        )
    return False


def _const_dtype(dtype, value):
    """The dtype a column of *dtype* takes once *value* is written in:
    itself when the write is lossless, a wider U for a longer string,
    object otherwise."""
    if dtype != object and _const_fits(dtype, value):
        return dtype
    if dtype.kind == "U" and type(value) is str and not value.endswith("\x00"):
        return np.dtype(f"<U{max(len(value), dtype.itemsize // 4)}")
    return np.dtype(object)


def _const_code(column: _Column, value):
    """``(code, uniques)``: *value*'s code in *column*'s cached
    factorization, the unique table extended when *value* is new.

    ``(-1, None)`` when the column holds no codes, or its typed table
    cannot hold *value* exactly, or *value* is new to a table whose
    next code is already ⊥'s (the fresh column then factorizes on
    demand). List tables look up by Python equality, like the dict
    that built them.
    """
    if column._codes is None:
        return -1, None
    uniques = column._uniques
    if isinstance(uniques, list):
        try:
            return uniques.index(value), uniques
        except ValueError:
            return len(uniques), uniques + [value]
    dtype = _const_dtype(uniques.dtype, value)
    if dtype == object:
        return -1, None
    if value is PAD:
        return len(uniques), uniques
    hits = np.flatnonzero(uniques == value)
    if len(hits):
        return int(hits[0]), uniques
    if column._nuniq > len(uniques):
        return -1, None
    return len(uniques), np.concatenate([uniques, np.array([value], dtype=dtype)])


def _recast(values, dtype, extra: int = 0):
    """A fresh *dtype* copy of *values* with *extra* unset slots after."""
    fresh = np.empty(len(values) + extra, dtype=dtype)
    fresh[: len(values)] = values
    return fresh


def _written(column: _Column, value, extra: int = 0):
    """``(values, pad)`` of *column* recast for a write of *value*
    (see :func:`_const_dtype`) with *extra* slots after; the caller
    writes the slots, or, for ⊥ into a typed column, sets the pad."""
    values = column.values
    dtype = _const_dtype(values.dtype, value)
    if dtype == object:
        return _recast(column.objects(), dtype, extra), None
    fresh = _recast(values, dtype, extra)
    if extra and value is PAD:
        # Appended ⊥ slots hold a real value of the dtype.
        fresh[len(values) :] = values[:1] if len(values) else np.zeros(1, dtype)
    pad = column.pad
    if pad is not None or value is PAD:
        pad = _recast(column.pad_mask(), np.bool_, extra)
        pad[len(values) :] = False
    return fresh, pad


def _assign_const(column: _Column, mask, value) -> _Column:
    """*column* with *value* written at the masked positions.

    The dtype follows :func:`_const_dtype` (⊥ sets the pad mask of a
    typed column), and the fresh column's codes are the source's cached
    ones with *value*'s code written at the same positions — a
    rewritten column then deduplicates without another full
    :func:`np.unique` pass.
    """
    values, pad = _written(column, value)
    if value is PAD and values.dtype != object:
        pad[mask] = True
    else:
        values[mask] = value
        if pad is not None:
            pad[mask] = False
    fresh = _Column(values, _any_pad(pad))
    code, uniques = _const_code(column, value)
    if code >= 0:
        codes = column._codes.copy()
        codes[mask] = code
        fresh._codes, fresh._nuniq, fresh._uniques = (
            codes, max(column._nuniq, code + 1), uniques
        )
    return fresh


def _append_const(column: _Column, value, k: int) -> _Column:
    """*column* extended by *k* copies of *value*: one repeated code
    after the cached ones, dtype and codes as in :func:`_assign_const`."""
    n = len(column)
    values, pad = _written(column, value, k)
    if value is PAD and values.dtype != object:
        pad[n:] = True
    else:
        values[n:] = value
    fresh = _Column(values, pad)
    code, uniques = _const_code(column, value)
    if code >= 0:
        codes = _recast(column._codes, np.int64, k)
        codes[n:] = code
        fresh._codes, fresh._nuniq, fresh._uniques = (
            codes, max(column._nuniq, code + 1), uniques
        )
    return fresh


def _assign_column(target: _Column, mask, source: _Column) -> _Column:
    """*target* with *source*'s values copied at the masked positions."""
    tv, sv = target.values, source.values
    if tv.dtype == sv.dtype != object or tv.dtype.kind == sv.dtype.kind == "U":
        fresh = tv.astype(np.result_type(tv.dtype, sv.dtype))
        fresh[mask] = sv[mask]
        pad = None
        if target.pad is not None or source.pad is not None:
            pad = target.pad_mask().copy()
            pad[mask] = source.pad_mask()[mask]
        return _Column(fresh, _any_pad(pad))
    fresh = target.objects().copy()
    fresh[mask] = source.objects()[mask]
    return _Column(fresh)


def _inexact_as_float(values) -> bool:
    """Whether an int64 array holds a value float64 cannot represent.

    numpy compares int64 with float64 after casting the ints to float,
    which rounds beyond 2**53 (``2**53 + 1 == 2.0**53`` there, not in
    Python); such comparisons take the exact row path instead.
    """
    return bool(len(values)) and (
        int(values.max()) > _FLOAT_EXACT or int(values.min()) < -_FLOAT_EXACT
    )


def _dense_span(values, extra: int = 0):
    """``(vmin, width)`` when an int64 array's value range is narrow
    enough for O(n) shift-coding; ``None`` sends the caller to the
    ``np.unique`` argsort path. *extra* widens the size budget (for the
    two-array joint case)."""
    vmin = int(values.min())
    width = int(values.max()) - vmin + 1
    if width <= 4 * (len(values) + extra) + 1024:
        return vmin, width
    return None


def _pair_codes(left: _Column, right: _Column):
    """Jointly factorize two columns: ``(left_codes, right_codes, nuniq)``.

    Values equal under Python semantics get equal codes even across
    arrays (mixed kinds route through a dict pass, so ``1 == 1.0 ==
    True`` holds exactly as it does for row tuples); ⊥ in a typed
    column gets one code of its own.
    """
    lv, rv = left.values, right.values
    n = len(lv)
    if lv.dtype == np.int64 and rv.dtype == np.int64 and n and len(rv):
        vmin = min(int(lv.min()), int(rv.min()))
        width = max(int(lv.max()), int(rv.max())) - vmin + 1
        if width <= 4 * (n + len(rv)) + 1024:
            return _padded_pair(left, right, lv - vmin, rv - vmin, width)
    if (
        left._codes is not None
        and right._codes is not None
        and left._nuniq + right._nuniq <= n + len(rv)
    ):
        # Both sides already factorized: merge the two (small) unique
        # tables with a dict pass (Python equality, same semantics as
        # the all-values fallback below; ⊥ ends a typed column's table)
        # and remap the cached codes through lookup arrays — O(nuniq)
        # instead of re-uniquing millions of values.
        mapping = {}
        luts = []
        for table in (left.table(), right.table()):
            lut = np.empty(len(table), dtype=np.int64)
            for where, value in enumerate(table):
                code = mapping.get(value, -1)
                if code < 0:
                    code = len(mapping)
                    mapping[value] = code
                lut[where] = code
            luts.append(lut)
        return luts[0][left._codes], luts[1][right._codes], len(mapping)
    if lv.dtype != object and rv.dtype != object and lv.dtype.kind == rv.dtype.kind:
        merged = np.concatenate([lv, rv])
        uniques, inverse = np.unique(merged, return_inverse=True)
        inverse = inverse.astype(np.int64, copy=False)
        return _padded_pair(left, right, inverse[:n], inverse[n:], len(uniques))
    mapping: dict = {}
    fresh_code = mapping.setdefault
    out = np.array(
        [
            fresh_code(value, len(mapping))
            for value in left.tolist() + right.tolist()
        ],
        dtype=np.int64,
    )
    return out[:n], out[n:], len(mapping)


def _padded_pair(left: _Column, right: _Column, code_l, code_r, size):
    """Value codes of two typed columns with ⊥ moved to code *size*."""
    if left.pad is None and right.pad is None:
        return code_l, code_r, size
    if left.pad is not None:
        code_l[left.pad] = size
    if right.pad is not None:
        code_r[right.pad] = size
    return code_l, code_r, size + 1


def _combine_codes(first, pairs):
    """Fold per-column code pairs into one int64 row key per side.

    ``first`` is the initial ``(left, right, nuniq)`` triple; *pairs*
    the remaining ones. Compresses through ``np.unique`` whenever the
    multiply-add key would overflow 62 bits. Returns
    ``(left_keys, right_keys, domain)`` — *domain* bounds the key
    values, letting consumers pick O(n) scatter passes over argsorts.
    """
    code_l, code_r, size = first
    for cl, cr, k in pairs:
        k = max(k, 1)
        if size > _CODE_LIMIT // k:
            merged = np.concatenate([code_l, code_r])
            uniques, inverse = np.unique(merged, return_inverse=True)
            inverse = inverse.astype(np.int64, copy=False)
            code_l, code_r = inverse[: len(code_l)], inverse[len(code_l) :]
            size = len(uniques)
            if size > _CODE_LIMIT // k:  # pragma: no cover - 2^62 distinct rows
                raise EvaluationError("row key domain exceeds the array kernel")
        code_l = code_l * k + cl
        code_r = code_r * k + cr
        size *= k
    return code_l, code_r, size


def _fold_codes(code, size, other, k):
    """``(keys, domain)``: *code* (domain *size*) paired with *other*
    (domain *k*) into one key, compressed through ``np.unique`` when the
    multiply-add would pass 62 bits."""
    k = max(k, 1)
    if size > _CODE_LIMIT // k:
        uniques, inverse = np.unique(code, return_inverse=True)
        code = inverse.astype(np.int64, copy=False)
        size = len(uniques)
    return code * k + other, size * k


def _group_index(code, domain):
    """``(group, first)``: each row's group number and each group's
    first row, groups numbered in first-occurrence order."""
    if domain <= 4 * len(code) + 1024:
        first = _first_rows(code, domain)
        slot = np.empty(domain, dtype=np.int64)
        slot[code[first]] = np.arange(len(first), dtype=np.int64)
        return slot[code], first
    order, starts, first = _sorted_runs(code)
    by_row = np.argsort(first)
    rank = np.empty(len(first), dtype=np.int64)
    rank[by_row] = np.arange(len(first), dtype=np.int64)
    run = np.zeros(len(code), dtype=np.int64)
    run[starts[1:]] = 1
    group = np.empty(len(code), dtype=np.int64)
    group[order] = rank[np.cumsum(run)]
    return group, first[by_row]


def _sorted_runs(code):
    """``(order, starts, first)``: one unstable argsort of a key array,
    the start of each equal-key run in it, and each run's first row
    (its smallest row index) — what ``np.unique``'s stable mergesort
    gives with ``return_index``, from one quicksort."""
    order = np.argsort(code)
    ordered = code[order]
    starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    if len(code):
        starts = np.concatenate([np.zeros(1, dtype=starts.dtype), starts])
    return order, starts, np.minimum.reduceat(order, starts)


def _partners(code_l, code_r, domain):
    """``(order, starts, counts)``: the right rows stably sorted by key,
    and where each left key's run of equal right keys starts in that
    order and how long it is — from one ``np.bincount`` over a narrow
    *domain*, else two ``searchsorted`` passes."""
    order = np.argsort(code_r, kind="stable")
    if domain <= 4 * (len(code_l) + len(code_r)) + 1024:
        per_key = np.bincount(code_r, minlength=domain)
        begin = np.cumsum(per_key) - per_key
        return order, begin[code_l], per_key[code_l]
    ordered = code_r[order]
    starts = np.searchsorted(ordered, code_l, side="left")
    return order, starts, np.searchsorted(ordered, code_l, side="right") - starts


def _runs(starts, counts):
    """``(owner, position)``: entry i's run ``starts[i] .. +counts[i]``
    flattened — the vectorized ``for i: for j in range(counts[i])``."""
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    offsets = np.cumsum(counts) - counts
    position = np.repeat(starts - offsets, counts) + np.arange(
        len(owner), dtype=np.int64
    )
    return owner, position


def _int_fold(function: str, values, group, ngroups):
    """``sum``/``avg``/``min``/``max`` of an int64 column per group, or
    None when a ``sum`` could overflow int64 (the caller folds in
    Python ints then). ``avg`` divides the exact int sum in Python, so
    it rounds exactly as the shared fold does."""
    order = np.argsort(group, kind="stable")
    counts = np.bincount(group, minlength=ngroups)
    starts = np.cumsum(counts) - counts
    ordered = values[order]
    if function in ("min", "max"):
        reduce = np.minimum if function == "min" else np.maximum
        return _Column(reduce.reduceat(ordered, starts))
    largest = max(-int(values.min()), int(values.max()))
    if largest * int(counts.max()) >= 1 << 63:
        return None
    sums = np.add.reduceat(ordered, starts)
    if function == "sum":
        return _Column(sums)
    return _Column.from_values(
        [total / count for total, count in zip(sums.tolist(), counts.tolist())]
    )


def _first_rows(code, domain):
    """Row-ordered first-occurrence indices of each distinct key.

    With a narrow *domain* this is one reverse scatter (last write per
    slot = first occurrence), else one :func:`_sorted_runs` pass.
    """
    n = len(code)
    if domain <= 4 * n + 1024:
        first = np.full(domain, -1, dtype=np.int64)
        first[code[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
        first = first[first >= 0]
    else:
        first = _sorted_runs(code)[2]
    first.sort()
    return first


def _member_mask(code, pool, domain):
    """Which entries of *code* appear in *pool* (both key arrays)."""
    if domain <= 4 * (len(code) + len(pool)) + 1024:
        seen = np.zeros(domain, dtype=bool)
        seen[pool] = True
        return seen[code]
    if not len(pool):
        return np.zeros(len(code), dtype=bool)
    # One quicksort of the pool and a binary search per key.
    ordered = np.sort(pool)
    at = np.minimum(np.searchsorted(ordered, code), len(ordered) - 1)
    return ordered[at] == code


def _distinct_count(code, domain) -> int:
    """The number of distinct keys in *code*."""
    if domain <= 4 * len(code) + 1024:
        seen = np.zeros(domain, dtype=bool)
        seen[code] = True
        return int(seen.sum())
    return len(np.unique(code))


def _world_classes(world, nworlds: int, code, domain: int):
    """``(class_of, nclasses)``: worlds classed by exact fingerprint.

    *world* numbers each row's world in ``[0, nworlds)``; a world's
    fingerprint is the sorted tuple of the distinct *code*s (domain
    *domain*) its rows hold — one Python pass over the distinct
    (world, code) pairs, not the rows. Code equality is Python
    equality, so equal fingerprints are equal row sets. Classes are
    numbered in world order.
    """
    distinct = _first_rows(*_fold_codes(world, nworlds, code, domain))
    pair_world, pair_code = world[distinct], code[distinct]
    fingerprints = pair_code[np.lexsort((pair_code, pair_world))].tolist()
    bounds = np.cumsum(np.bincount(pair_world, minlength=nworlds)).tolist()
    classes: dict[tuple, int] = {}
    class_of, start = [], 0
    for end in bounds:
        fingerprint = tuple(fingerprints[start:end])
        class_of.append(classes.setdefault(fingerprint, len(classes)))
        start = end
    return np.array(class_of, dtype=np.int64), len(classes)


def _outcome(left, op: str, right) -> bool:
    """The row closure's verdict on one pair of Python values."""
    try:
        return bool(_NP_OPS[op](left, right))
    except TypeError:
        return False


def _numeric(value):
    """``(value, kind)`` for an int64-range int (kind ``"i"``) or a
    float (``"f"``); None for any other constant."""
    cls = type(value)
    if cls is int and -(1 << 63) <= value < (1 << 63):
        return value, "i"
    if cls is float:
        return value, "f"
    return None


def _magnitude(operand) -> int:
    """The largest absolute value an int operand (array or int) holds."""
    if isinstance(operand, int):
        return abs(operand)
    if not len(operand):
        return 0
    return max(-int(operand.min()), int(operand.max()))


def _exact_in(values, default) -> bool:
    """Whether *default* can stand in a *values* array (of kind i or f)
    and compare exactly like the Python value."""
    kind = values.dtype.kind
    if type(default) is int:
        return kind == "i" or (kind == "f" and abs(default) <= _FLOAT_EXACT)
    return kind == "f"


def _arith_column(op: str, left, right):
    """``left op right`` over int64/float64 operands (each a
    :class:`_Column` or a constant) as one array, equal elementwise to
    :func:`~repro.relational.predicates.arithmetic`; None wherever some
    row might differ or raise:

    * an operand holding ⊥, or of any other kind (str, bool, object);
    * int ``+ - *`` that could overflow int64;
    * int ``/`` int with an operand beyond 2**53 (numpy rounds both to
      float first, Python rounds the exact quotient once);
    * ``/`` by a divisor holding zero.

    An int meeting a float converts with the same rounding in both.
    """
    operands = []
    for operand in (left, right):
        if isinstance(operand, _Column):
            kind = operand.values.dtype.kind
            if operand.pad is not None or kind not in "if":
                return None
            operands.append((operand.values, kind))
        else:
            typed = _numeric(operand)
            if typed is None:
                return None
            operands.append(typed)
    (a, ak), (b, bk) = operands
    if op == "/" and not np.all(b != 0):
        return None
    if ak == bk == "i":
        # numpy wraps on int64 overflow and divides ints as floats.
        if op == "/":
            if max(_magnitude(a), _magnitude(b)) > _FLOAT_EXACT:
                return None
        elif op == "*":
            if _magnitude(a) * _magnitude(b) >= 1 << 63:
                return None
        elif _magnitude(a) + _magnitude(b) >= 1 << 63:
            return None
    with np.errstate(all="ignore"):
        result = _NP_ARITH[op](a, b)
    floats = op == "/" or "f" in (ak, bk)
    return np.asarray(result, dtype=np.float64 if floats else np.int64)


class ArrayRelation(ColumnarRelation):
    """A distinct relation stored as numpy columns.

    Inherits the full operator surface of :class:`ColumnarRelation`
    (any operator without an array override runs the row path and still
    returns an ``ArrayRelation`` via the ``type(self)``-based trusted
    constructors); the overrides below replace the hot loops with
    whole-array passes. At least one of ``_row_list``/``_columns``/
    ``_acols`` is always populated; the others build lazily.
    """

    __slots__ = ("_acols",)

    # -- constructors and views ----------------------------------------------

    @classmethod
    def _blank(cls, schema: Schema, nrows: int) -> "ArrayRelation":
        relation = super()._blank(schema, nrows)
        relation._acols = None
        return relation

    @classmethod
    def _share(cls, source: ColumnarRelation, schema: Schema) -> "ArrayRelation":
        relation = super()._share(source, schema)
        acols = getattr(source, "_acols", None)
        if acols is None and isinstance(source, ArrayRelation):
            # Build on the *source* so a cached conversion twin keeps the
            # typed columns — a rename of a lazy twin would otherwise
            # materialize onto the throwaway copy on every evaluation.
            acols = source.arrays()
        relation._acols = acols
        return relation

    @classmethod
    def _from_acols(
        cls, schema: Schema, acols: Sequence[_Column], nrows: int
    ) -> "ArrayRelation":
        """Trusted constructor: *acols* must hold distinct aligned rows."""
        relation = cls._blank(schema, nrows)
        relation._acols = tuple(acols)
        return relation

    def arrays(self) -> tuple[_Column, ...]:
        """The typed column storage (built lazily from rows)."""
        if self._acols is None:
            width = len(self.schema)
            if width == 0:
                self._acols = ()
            elif self._columns is not None:
                self._acols = tuple(
                    _Column.from_values(list(c)) for c in self._columns
                )
            elif self._row_list:
                self._acols = tuple(
                    _Column.from_values(list(c)) for c in zip(*self._row_list)
                )
            else:
                self._acols = tuple(
                    _Column.from_values([]) for _ in range(width)
                )
        return self._acols

    def row_list(self) -> list[Row]:
        if self._row_list is None and self._columns is None:
            if len(self.schema) == 0:
                self._row_list = [()] * self._nrows
            else:
                self._row_list = list(
                    zip(*(c.tolist() for c in self._acols))
                )
        return super().row_list()

    @property
    def columns(self) -> tuple[tuple, ...]:
        if self._columns is None:
            if self._row_list is not None:
                self._columns = _transpose(self._row_list, len(self.schema))
            else:
                self._columns = tuple(
                    tuple(c.tolist()) for c in (self._acols or ())
                )
        return self._columns

    def column_values(self, attribute: str):
        if self._columns is None and self._row_list is None:
            return self._acols[self.schema.index(attribute)].tolist()
        return super().column_values(attribute)

    def tuples(self, attributes: Sequence[str]) -> Iterator[tuple]:
        if self._columns is None and self._row_list is None:
            if not attributes:
                return repeat((), self._nrows)
            schema = self.schema
            return zip(
                *(self._acols[schema.index(a)].tolist() for a in attributes)
            )
        return super().tuples(attributes)

    def to_relation(self) -> Relation:
        if self._twin is None:
            if self._rowset is not None:
                twin = Relation._raw(self.schema, self._rowset)
            else:
                twin = Relation._from_kernel(self.schema)
            twin._array = self
            self._twin = twin
        return self._twin

    def __repr__(self) -> str:
        return f"ArrayRelation({list(self.schema)!r}, {self._nrows} rows)"

    # -- row codes ------------------------------------------------------------

    def _take(self, selector) -> "ArrayRelation":
        """Gather by boolean mask or index array (codes survive)."""
        acols = self.arrays()
        if not acols:
            if selector.dtype == np.bool_:
                n = int(selector.sum())
            else:
                n = len(selector)
            return type(self)._from_rows(self.schema, [()] if n else [])
        taken = tuple(c.take(selector) for c in acols)
        return type(self)._from_acols(self.schema, taken, len(taken[0]))

    def _row_codes(self, positions: Sequence[int]):
        """``(keys, domain)``: one int64 key per row over *positions*."""
        acols = self.arrays()
        code = None
        size = 1
        for p in positions:
            col = acols[p]
            if code is None:
                code, size = col.codes(), max(col.nuniq, 1)
            else:
                code, size = _fold_codes(code, size, col.codes(), col.nuniq)
        if code is None:
            code = np.zeros(self._nrows, dtype=np.int64)
        return code, size

    def _stacked_row_codes(
        self,
        other: "ArrayRelation",
        positions: Sequence[int] | None = None,
        other_positions: Sequence[int] | None = None,
    ):
        """``(self_keys, other_keys, domain)`` — jointly factorized row
        keys for self vs *other* (aligned attrs)."""
        if positions is None:
            positions = range(len(self.schema))
            other_positions = range(len(other.schema))
        acols, ocols = self.arrays(), other.arrays()
        pairs = [
            _pair_codes(acols[p], ocols[q])
            for p, q in zip(positions, other_positions)
        ]
        if not pairs:
            return (
                np.zeros(self._nrows, dtype=np.int64),
                np.zeros(len(other), dtype=np.int64),
                1,
            )
        return _combine_codes(pairs[0], pairs[1:])

    @staticmethod
    def _operand(other: "ColumnarRelation | Relation") -> "ArrayRelation":
        """*other* as an ArrayRelation."""
        if isinstance(other, ArrayRelation):
            return other
        if isinstance(other, ColumnarRelation):
            return ArrayRelation._from_rows(other.schema, other.row_list())
        return as_array(other)

    def _aligned_array(self, other: "ColumnarRelation | Relation") -> "ArrayRelation":
        """*other* as an ArrayRelation in this relation's attribute order."""
        return self._operand(other)._reordered(self.schema.attributes)

    # -- vectorized operators --------------------------------------------------

    def _reordered(self, attributes: Sequence[str]) -> "ArrayRelation":
        positions = self.schema.indices(attributes)
        if positions == tuple(range(len(self.schema))):
            return self
        if self._acols is None and self._columns is not None:
            return super()._reordered(attributes)
        acols = self.arrays()
        return type(self)._from_acols(
            Schema(attributes), tuple(acols[p] for p in positions), self._nrows
        )

    def project(self, attributes: Sequence[str]) -> "ArrayRelation":
        checkpoint("project", self._nrows)
        schema = self.schema.project(attributes)
        positions = self.schema.indices(attributes)
        if positions == tuple(range(len(self.schema))):
            return type(self)._share(self, schema)
        if len(positions) == len(self.schema):
            return self._reordered(attributes)
        if not positions:
            return type(self)._from_rows(schema, [()] if self._nrows else [])
        storage = self._acols if self._acols is not None else self._columns
        if storage is not None:
            kept = set(positions)
            kept_objects = {id(storage[p]) for p in positions}
            if all(
                id(storage[q]) in kept_objects
                for q in range(len(storage))
                if q not in kept
            ):
                # Every dropped column aliases a kept one: rows stay
                # distinct, so this is a zero-copy column selection.
                if self._acols is not None:
                    return type(self)._from_acols(
                        schema,
                        tuple(self._acols[p] for p in positions),
                        self._nrows,
                    )
                return type(self)._from_columns(
                    schema,
                    tuple(self._columns[p] for p in positions),
                    self._nrows,
                )
        code, domain = self._row_codes(positions)
        first = _first_rows(code, domain)
        acols = self.arrays()
        if len(first) == self._nrows:
            return type(self)._from_acols(
                schema, tuple(acols[p] for p in positions), self._nrows
            )
        return type(self)._from_acols(
            schema, tuple(acols[p].take(first) for p in positions), len(first)
        )

    def copy_attribute(self, source: str, target: str) -> "ArrayRelation":
        if target in self.schema:
            raise SchemaError(f"attribute {target!r} already exists")
        position = self.schema.index(source)
        acols = self.arrays()
        return type(self)._from_acols(
            Schema(self.schema.attributes + (target,)),
            acols + (acols[position],),
            self._nrows,
        )

    def _check_aligned(self, other: "ColumnarRelation | Relation", op: str) -> None:
        if not self.schema.same_attributes(other.schema):
            raise SchemaError(
                f"{op} operands must have equal attribute sets; "
                f"got {list(self.schema)} vs {list(other.schema)}"
            )

    def union(self, other: "ColumnarRelation | Relation") -> "ArrayRelation":
        self._check_aligned(other, "union")
        checkpoint("union", self._nrows + len(other))
        if len(other) == 0:
            return self
        aligned = self._aligned_array(other)
        if self._nrows == 0:
            return aligned
        acols, ocols = self.arrays(), aligned.arrays()
        merged = tuple(
            _concat_columns(a, b) for a, b in zip(acols, ocols)
        )
        combined = type(self)._from_acols(
            self.schema, merged, self._nrows + len(aligned)
        )
        code, domain = combined._row_codes(range(len(self.schema)))
        first = _first_rows(code, domain)
        if len(first) == len(combined):
            return combined
        return combined._take(first)

    def difference(self, other: "ColumnarRelation | Relation") -> "ArrayRelation":
        self._check_aligned(other, "difference")
        checkpoint("difference", self._nrows + len(other))
        if len(other) == 0 or self._nrows == 0:
            return self
        aligned = self._aligned_array(other)
        codes_s, codes_o, domain = self._stacked_row_codes(aligned)
        keep = ~_member_mask(codes_s, codes_o, domain)
        if keep.all():
            return self
        return self._take(keep)

    def intersection(self, other: "ColumnarRelation | Relation") -> "ArrayRelation":
        self._check_aligned(other, "intersection")
        checkpoint("intersection", self._nrows + len(other))
        if len(other) == 0 or self._nrows == 0:
            return type(self)._from_rows(self.schema, [])
        aligned = self._aligned_array(other)
        codes_s, codes_o, domain = self._stacked_row_codes(aligned)
        keep = _member_mask(codes_s, codes_o, domain)
        if keep.all():
            return self
        return self._take(keep)

    def join_on(
        self, other: "ColumnarRelation | Relation", pairs: Sequence[tuple[str, str]]
    ) -> "ArrayRelation":
        if not pairs:
            return self.product(other)
        left_set = self.schema.as_set()
        check_join_pairs_cover_shared(left_set, other.schema, pairs)
        left_attrs = tuple(a for a, _ in pairs)
        right_attrs = tuple(b for _, b in pairs)
        right_rest = tuple(a for a in other.schema if a not in left_set)
        if not right_rest:
            # Right side is pure key: the join degenerates to a semijoin
            # (the answer ⋈ world-projection pattern of the lazy §5.3
            # form) — one joint factorization and one np.isin pass.
            return self._semijoin_on(
                other, left_attrs, right_attrs, keep_matching=True
            )
        checkpoint("join_on", self._nrows + len(other))
        other = self._operand(other)
        # Each left row's partners are one run of the right rows stably
        # sorted by key (see _partners); the output is two gathers.
        order, starts, counts = _partners(
            *self._stacked_row_codes(
                other,
                self.schema.indices(left_attrs),
                other.schema.indices(right_attrs),
            )
        )
        left_rows, sorted_rows = _runs(starts, counts)
        right_rows = order[sorted_rows]
        ocols = other.arrays()
        columns = tuple(c.take(left_rows) for c in self.arrays()) + tuple(
            ocols[p].take(right_rows) for p in other.schema.indices(right_rest)
        )
        # Distinct: equal-keyed right rows differ off the key, and every
        # right attribute off the key is kept.
        return type(self)._from_acols(
            Schema(self.schema.attributes + right_rest), columns, len(left_rows)
        )

    def product(self, other: "ColumnarRelation | Relation") -> "ArrayRelation":
        other = self._operand(other)
        checkpoint("product", self._nrows + len(other))
        schema = self.schema.concat(other.schema)
        if not self.schema:
            # {⟨⟩} × R = R (the unit world table is a frequent operand).
            if self._nrows == 0:
                return type(self)._from_rows(schema, [])
            return type(self)._share(other, schema)
        if not other.schema:
            if len(other) == 0:
                return type(self)._from_rows(schema, [])
            return type(self)._share(self, schema)
        n, m = self._nrows, len(other)
        left_rows = np.repeat(np.arange(n, dtype=np.int64), m)
        right_rows = np.tile(np.arange(m, dtype=np.int64), n)
        columns = tuple(c.take(left_rows) for c in self.arrays()) + tuple(
            c.take(right_rows) for c in other.arrays()
        )
        return type(self)._from_acols(schema, columns, n * m)

    def left_outer_join_padded(
        self, other: "ColumnarRelation | Relation"
    ) -> "ArrayRelation":
        """``=⊳⊲`` as gathers: each left row's partners are one
        ``searchsorted`` run (as in :meth:`join_on`), and a dangling
        left row emits one row whose right-only columns are ⊥ — set
        through the pad mask of typed columns.

        Output rows are distinct without a dedup pass: left rows are,
        a left row's partners differ off the key, and a padded row's
        left part matched nothing, so no joined row shares it.
        """
        other = self._operand(other)
        checkpoint("left_outer_join_padded", self._nrows + len(other))
        common = self.schema.common(other.schema)
        if not common:
            # ⋈ is ×, and only an empty right side leaves rows dangling
            # (all of them) — the same ⋈ and ∪ steps as the row path.
            joined = self.natural_join(other)
            dangling = self._take(np.arange(0 if len(other) else self._nrows))
            pads = tuple(
                _Column.from_values([PAD] * len(dangling)) for _ in other.schema
            )
            return joined.union(
                type(self)._from_acols(
                    joined.schema, dangling.arrays() + pads, len(dangling)
                )
            )
        left_set = self.schema.as_set()
        rest = tuple(a for a in other.schema if a not in left_set)
        order, starts, counts = _partners(
            *self._stacked_row_codes(
                other, self.schema.indices(common), other.schema.indices(common)
            )
        )
        dangling = counts == 0
        left_rows, sorted_rows = _runs(starts, np.maximum(counts, 1))
        padded = dangling[left_rows]
        columns = [c.take(left_rows) for c in self.arrays()]
        if len(other):
            right_rows = order[np.minimum(sorted_rows, len(other) - 1)]
            ocols = other.arrays()
            for p in other.schema.indices(rest):
                column = ocols[p].take(right_rows)
                if dangling.any():
                    column = _assign_const(column, padded, PAD)
                columns.append(column)
        else:
            columns.extend(
                _Column.from_values([PAD] * len(left_rows)) for _ in rest
            )
        return type(self)._from_acols(
            Schema(self.schema.attributes + rest), columns, len(left_rows)
        )

    def _semijoin_on(
        self,
        other: "ColumnarRelation | Relation",
        left_attrs: Sequence[str],
        right_attrs: Sequence[str],
        keep_matching: bool,
    ) -> "ArrayRelation":
        checkpoint("semijoin", self._nrows + len(other))
        other = self._operand(other)
        codes_s, codes_o, domain = self._stacked_row_codes(
            other, self.schema.indices(left_attrs), other.schema.indices(right_attrs)
        )
        keep = _member_mask(codes_s, codes_o, domain)
        if not keep_matching:
            keep = ~keep
        if keep.all():
            return self
        return self._take(keep)

    def semijoin(self, other: "ColumnarRelation | Relation") -> "ArrayRelation":
        common = self.schema.common(other.schema)
        if not common:
            return self if len(other) else type(self)._from_rows(self.schema, [])
        return self._semijoin_on(other, common, common, keep_matching=True)

    def antijoin(self, other: "ColumnarRelation | Relation") -> "ArrayRelation":
        common = self.schema.common(other.schema)
        if not common:
            return type(self)._from_rows(self.schema, []) if len(other) else self
        return self._semijoin_on(other, common, common, keep_matching=False)

    def mask(
        self,
        matched: "ColumnarRelation | Relation",
        attributes: Sequence[str] | None = None,
    ) -> "ArrayRelation":
        attrs = (
            tuple(attributes) if attributes is not None else self.schema.attributes
        )
        self.schema.indices(attrs)  # validate eagerly, like the twins
        if len(matched) == 0 or self._nrows == 0:
            return self
        return self._semijoin_on(matched, attrs, attrs, keep_matching=False)

    # -- selection and DML masks (numpy boolean arrays) ---------------------------

    def _row_mask(self, predicate: Predicate):
        return np.array(super()._row_mask(predicate), dtype=np.bool_)

    def _indexed_hits(self, predicate: Predicate) -> None:
        # Equality selections stay one numpy pass over cached codes.
        return None

    def _keep(self, keep) -> "ArrayRelation":
        return self if keep.all() else self._take(keep)

    def _predicate_mask(self, predicate: Predicate):
        """Predicate → boolean mask, or None when only the row path fits.

        Covers comparisons over attributes, constants, PAD-defaulting
        reads and arithmetic, plus and/or/not and TRUE/FALSE — the
        closure semantics are matched exactly (mixed-type comparisons
        are elementwise False, ``!=`` elementwise True, ⊥ compares as
        :class:`~repro.relational.pad.PadConstant` does). A term is
        vectorized only when no row of it can raise (see
        :func:`_arith_column`), so short-circuit evaluation is
        unobservable. Scalar guards, object-dtype columns and any term
        that might raise fall back by returning None, and the row path
        raises its own error.
        """
        if isinstance(predicate, Comparison):
            return self._compare_mask(predicate)
        if isinstance(predicate, (And, Or)):
            left = self._predicate_mask(predicate.left)
            right = None if left is None else self._predicate_mask(predicate.right)
            if right is None:
                return None
            return left & right if isinstance(predicate, And) else left | right
        if isinstance(predicate, Not):
            inner = self._predicate_mask(predicate.operand)
            return None if inner is None else ~inner
        if isinstance(predicate, _Boolean):
            return self._const_mask(predicate.value)
        return None

    def _const_mask(self, value: bool):
        return np.full(self._nrows, bool(value))

    def _term_vector(self, term):
        """Term → ("col", _Column) | ("const", value) | None."""
        if isinstance(term, Attr):
            return ("col", self.arrays()[self.schema.index(term.name)])
        if isinstance(term, Const):
            return ("const", term.value)
        if isinstance(term, PadDefault):
            column = self.arrays()[self.schema.index(term.name)]
            if column.pad is None:
                return ("col", column)
            default = _numeric(term.default)
            if default is None or not _exact_in(column.values, default[0]):
                return None
            values = column.values.copy()
            values[column.pad] = default[0]
            return ("col", _Column(values))
        if isinstance(term, Arith):
            left = self._term_vector(term.left)
            right = None if left is None else self._term_vector(term.right)
            if right is None:
                return None
            if left[0] == right[0] == "const":
                try:
                    return ("const", arithmetic(term.op, left[1], right[1]))
                except EvaluationError:
                    return None
            result = _arith_column(term.op, left[1], right[1])
            return None if result is None else ("col", _Column(result))
        return None

    def _compare_mask(self, comparison: Comparison):
        left = self._term_vector(comparison.left)
        if left is None:
            return None
        right = self._term_vector(comparison.right)
        if right is None:
            return None
        op = comparison.op
        if left[0] == "const" and right[0] == "const":
            return self._const_mask(_outcome(left[1], op, right[1]))
        if left[0] == "const":
            return self._column_mask(right[1], left[1], _FLIPPED[op])
        if right[0] == "const":
            return self._column_mask(left[1], right[1], op)
        return self._column_pair_mask(left[1], right[1], op)

    def _column_mask(self, column: _Column, constant, op: str):
        """col ⟨op⟩ const as one elementwise pass (op already oriented)."""
        values = column.values
        kind = values.dtype.kind
        if kind == "O":
            return None
        if kind in "ifb":
            compatible = isinstance(constant, (bool, int, float))
        else:  # U
            compatible = isinstance(constant, str)
        if not compatible:
            # The closure's TypeError → False net (mixed-type equality
            # is elementwise False, inequality elementwise True,
            # orderings False), or the ⊥ constant's fixed verdicts.
            mask = self._const_mask(
                _outcome(0, op, PAD) if constant is PAD else op == "!="
            )
        elif (kind == "i" and type(constant) is float and _inexact_as_float(values)) or (
            kind == "f" and type(constant) is int and abs(constant) > _FLOAT_EXACT
        ):
            return None
        else:
            try:
                mask = np.asarray(_NP_OPS[op](values, constant), dtype=np.bool_)
            except (TypeError, OverflowError):
                # e.g. an int beyond int64 — let the row path decide.
                return None
        if column.pad is not None:
            mask[column.pad] = _outcome(PAD, op, constant)
        return mask

    def _column_pair_mask(self, left: _Column, right: _Column, op: str):
        lk, rk = left.values.dtype.kind, right.values.dtype.kind
        if lk == "O" or rk == "O":
            return None
        if (lk in "ifb") != (rk in "ifb"):
            mask = self._const_mask(op == "!=")
        elif ((lk, rk) == ("i", "f") and _inexact_as_float(left.values)) or (
            (lk, rk) == ("f", "i") and _inexact_as_float(right.values)
        ):
            return None
        else:
            try:
                mask = np.asarray(
                    _NP_OPS[op](left.values, right.values), dtype=np.bool_
                )
            except TypeError:
                return None
        if left.pad is None and right.pad is None:
            return mask
        # ⊥ meets a value or ⊥: the verdict depends on neither value.
        lp, rp = left.pad_mask(), right.pad_mask()
        mask[lp & rp] = _outcome(PAD, op, PAD)
        mask[lp & ~rp] = _outcome(PAD, op, 0)
        mask[rp & ~lp] = _outcome(0, op, PAD)
        return mask

    def distinct_count(self, attributes: Sequence[str]) -> int:
        """Distinct combined row codes (code equality is Python equality)."""
        checkpoint("distinct_count", self._nrows)
        if not self._nrows:
            return 0
        codes, domain = self._row_codes(self.schema.indices(attributes))
        return _distinct_count(codes, domain)

    def distinct_tuples(self, attributes: Sequence[str]) -> list[tuple]:
        checkpoint("distinct_tuples", self._nrows)
        positions = self.schema.indices(attributes)
        if not self._nrows or not positions:
            return [()] if self._nrows else []
        codes, domain = self._row_codes(positions)
        first = _first_rows(codes, domain)
        acols = self.arrays()
        return list(zip(*(acols[p].take(first).tolist() for p in positions)))

    def claimed_ids(self, attributes, values, id_attributes) -> set[tuple]:
        """Per-column equality masks where the dtype allows, Python
        ``is``-or-``==`` (tuple equality) on object columns."""
        checkpoint("claimed_ids", self._nrows)
        mask = np.ones(self._nrows, dtype=np.bool_)
        acols = self.arrays()
        for position, value in zip(self.schema.indices(attributes), values):
            column = acols[position]
            hit = self._column_mask(column, value, "=")
            if hit is None:
                hit = np.fromiter(
                    (entry is value or entry == value for entry in column.tolist()),
                    dtype=np.bool_,
                    count=self._nrows,
                )
            mask &= hit
            if not mask.any():
                return set()
        hits = np.flatnonzero(mask)
        if not len(hits):
            return set()
        if not id_attributes:
            return {()}
        return set(
            zip(
                *(
                    acols[p].take(hits).tolist()
                    for p in self.schema.indices(id_attributes)
                )
            )
        )

    def masked_assign(self, mask, settings) -> "ArrayRelation":
        """Rewrite columns under a boolean *mask* and dedup — the update kernel.

        *settings* is a sequence of ``(position, kind, payload)``
        triples: kind ``"const"`` writes a literal (*payload* is the
        value), kind ``"col"`` copies another column (*payload* is the
        source position). Untouched columns pass through by reference so
        their cached factorizations survive; a rewritten column keeps
        its dtype when the incoming values fit and widens to object
        otherwise. Rows that collide after the rewrite collapse to the
        first occurrence, like the other kernels' ``dict.fromkeys``
        dedup; when a constant is written, only the rows holding its
        code are deduplicated. Self when the mask selects nothing.
        """
        checkpoint("masked_assign", self._nrows)
        if not mask.any():
            return self
        acols = self.arrays()
        new_cols = list(acols)
        for position, kind, payload in settings:
            if kind == "const":
                new_cols[position] = _assign_const(acols[position], mask, payload)
            else:
                new_cols[position] = _assign_column(
                    acols[position], mask, acols[payload]
                )
        candidate = type(self)._from_acols(
            self.schema, tuple(new_cols), self._nrows
        )
        if not new_cols:
            return candidate
        everything = range(len(self.schema))
        written = written_constant(settings)
        if written is None:
            # Column copies may collide with any row: dedup the table.
            codes, domain = candidate._row_codes(everything)
            first = _first_rows(codes, domain)
            if len(first) == candidate._nrows:
                return candidate
            return candidate._take(first)
        # Kept rows are distinct already, so a collision needs a
        # rewritten row — and both rows then hold the written constant.
        # The rows holding its code are the rewritten ones plus the kept
        # rows they may clash with; only those are row-coded.
        column_codes = new_cols[written[0]].codes()
        touched = np.flatnonzero(column_codes == column_codes[np.argmax(mask)])
        first = _first_rows(*candidate._take(touched)._row_codes(everything))
        if len(first) == len(touched):
            return candidate
        keep = np.ones(candidate._nrows, dtype=np.bool_)
        keep[touched] = False
        keep[touched[first]] = True
        return candidate._take(keep)

    def append_broadcast(
        self,
        template: Sequence,
        id_positions: Sequence[int],
        id_rows: Sequence[tuple],
    ) -> "ArrayRelation":
        """Append *template* once per *id_rows* entry, ids patched in.

        The insert kernel for one value row replicated over world ids:
        each value column extends by one repeated code (see
        :func:`_append_const`), so its typed values and cached codes
        survive, and id columns extend by the id lists — no per-row
        tuples. The caller guarantees the additions are distinct from
        each other and from existing rows (``id_rows`` must already
        exclude claimed ids).
        """
        k = len(id_rows)
        if k == 0:
            return self
        checkpoint("append", self._nrows + k)
        if not self.schema:
            return type(self)._from_rows(self.schema, [()])
        by_id = {p: j for j, p in enumerate(id_positions)}
        columns = []
        for position, column in enumerate(self.arrays()):
            j = by_id.get(position)
            if j is None:
                columns.append(_append_const(column, template[position], k))
            else:
                ids = _Column.from_values([row[j] for row in id_rows])
                columns.append(_concat_columns(column, ids))
        return type(self)._from_acols(self.schema, columns, self._nrows + k)

    # -- grouping ----------------------------------------------------------------

    def aggregate_by(self, keys: Sequence[str], specs) -> "ArrayRelation":
        """Grouped SQL aggregation over group codes (see
        :meth:`ColumnarRelation.aggregate_by`).

        Groups come from :meth:`_row_codes`, numbered in first-occurrence
        order. ``count``, ``count(A)`` and ``single`` (distinct values
        through codes) are vectorized on every dtype, ``sum``/``avg``/
        ``min``/``max`` on int64 columns; float, bool and object columns
        keep the shared fold, whose order and signed zeros they depend on.
        """
        checkpoint("aggregate_by", self._nrows)
        keys = tuple(keys)
        schema = Schema(keys + tuple(spec.output for spec in specs))
        if not self._nrows:
            rows = [] if keys else [aggregates.default_row(specs)]
            return type(self)._from_rows(schema, rows)
        positions = self.schema.indices(keys)
        group, first = _group_index(*self._row_codes(positions))
        acols = self.arrays()
        columns = [acols[p].take(first) for p in positions]
        for spec in specs:
            columns.append(self._aggregate_column(spec, group, first))
        return type(self)._from_acols(schema, columns, len(first))

    def _aggregate_column(self, spec, group, first) -> _Column:
        """One aggregate's value per group (groups indexed like *first*)."""
        ngroups = len(first)
        if spec.argument is None:  # count(*)
            return _Column(np.bincount(group, minlength=ngroups))
        column = self.arrays()[self.schema.index(spec.argument)]
        if spec.function in ("count", "single"):
            pairs, domain = _fold_codes(group, ngroups, column.codes(), column.nuniq)
            distinct = np.bincount(
                group[_first_rows(pairs, domain)], minlength=ngroups
            )
            if spec.function == "count":
                return _Column(distinct)
            return _Column.from_values(
                [
                    value if count == 1 else aggregates.AMBIGUOUS
                    for value, count in zip(
                        column.take(first).tolist(), distinct.tolist()
                    )
                ]
            )
        if column.values.dtype == np.int64 and column.pad is None:
            folded = _int_fold(spec.function, column.values, group, ngroups)
            if folded is not None:
                return folded
        out = aggregates.aggregate_rows(
            zip(group.tolist()), zip(column.tolist()), (spec,)
        )
        return _Column.from_values([row[1] for row in out])

    def group_worlds(
        self,
        ids: Sequence[str],
        group_attrs: Sequence[str],
        proj_attrs: Sequence[str],
        certain: bool,
    ) -> "ArrayRelation":
        """Group worlds by their *group_attrs* rows and fold each class's
        *proj_attrs* rows (see :func:`~repro.relational.columnar.group_worlds_rows`),
        in code passes.

        Worlds class by the fingerprint of their group codes (see
        :func:`_world_classes`). The per-class union (``certain`` false)
        or intersection of projection codes is then gathered back per
        world.
        """
        checkpoint("group_worlds", self._nrows)
        ids, proj_attrs = tuple(ids), tuple(proj_attrs)
        schema = Schema(proj_attrs + ids)
        if not self._nrows:
            return type(self)._from_rows(schema, [])
        world, world_first = _group_index(*self._row_codes(self.schema.indices(ids)))
        nworlds = len(world_first)
        class_of, nclasses = _world_classes(
            world, nworlds, *self._row_codes(self.schema.indices(group_attrs))
        )

        proj_positions = self.schema.indices(proj_attrs)
        proj, proj_domain = self._row_codes(proj_positions)
        # Distinct (world, projection) rows; their class-level keys.
        held = _first_rows(*_fold_codes(world, nworlds, proj, proj_domain))
        held_class = class_of[world[held]]
        keys, key_domain = _fold_codes(held_class, nclasses, proj[held], proj_domain)
        if certain:
            # Kept iff the row holds in every world of its class.
            key_group, kept = _group_index(keys, key_domain)
            holding = np.bincount(key_group, minlength=len(kept))
            class_size = np.bincount(class_of, minlength=nclasses)
            kept = kept[holding == class_size[held_class[kept]]]
        else:
            kept = _first_rows(keys, key_domain)
        folded_rows, folded_class = held[kept], held_class[kept]

        # Gather back: each world emits its class's folded rows.
        by_class = np.argsort(folded_class, kind="stable")
        per_class = np.bincount(folded_class, minlength=nclasses)
        class_start = np.cumsum(per_class) - per_class
        owner, position = _runs(class_start[class_of], per_class[class_of])
        source_rows = folded_rows[by_class[position]]
        world_rows = world_first[owner]
        acols = self.arrays()
        columns = tuple(acols[p].take(source_rows) for p in proj_positions) + tuple(
            acols[p].take(world_rows) for p in self.schema.indices(ids)
        )
        return type(self)._from_acols(schema, columns, len(owner))

    def world_answers(
        self,
        ids: Sequence[str],
        values: Sequence[str],
        world: "ColumnarRelation | Relation",
    ) -> frozenset[Relation]:
        """The distinct per-world answers (see
        :func:`~repro.relational.columnar.answers_per_world`), in code
        passes.

        Worlds class by the fingerprint of their value codes (see
        :func:`_world_classes`), and one :class:`Relation` materializes
        per class from its first world's rows — plus the empty answer
        when some world of *world* holds no row.
        """
        checkpoint("world_answers", self._nrows)
        ids, values = tuple(ids), tuple(values)
        if not ids:
            if not len(world):
                return frozenset()
            return frozenset((as_tuple(self.project(values)),))
        empty = Relation._raw(Schema(values), frozenset())
        if not self._nrows:
            return frozenset((empty,)) if len(world) else frozenset()
        world = self._operand(world)
        id_codes, world_codes, domain = self._stacked_row_codes(
            world, self.schema.indices(ids), world.schema.indices(ids)
        )
        answers = set()
        if not _member_mask(world_codes, id_codes, domain).all():
            answers.add(empty)
        world_of, world_first = _group_index(id_codes, domain)
        nworlds = len(world_first)
        class_of, nclasses = _world_classes(
            world_of, nworlds, *self._row_codes(self.schema.indices(values))
        )
        # Classes number in world order: a class's first world is the
        # first occurrence of its number.
        chosen = np.zeros(nworlds, dtype=np.bool_)
        chosen[_first_rows(class_of, nclasses)] = True
        rows = np.flatnonzero(chosen[world_of])
        row_class = class_of[world_of[rows]]
        rows = rows[np.argsort(row_class, kind="stable")]
        decoded = list(self._take(rows).tuples(values))
        start = 0
        for end in np.cumsum(np.bincount(row_class, minlength=nclasses)).tolist():
            answers.add(Relation._raw(empty.schema, frozenset(decoded[start:end])))
            start = end
        return frozenset(answers)

    # -- cert counting -----------------------------------------------------------

    def certain_rows(self, attributes: Sequence[str], need: int) -> list[Row]:
        """π_attributes rows occurring in exactly *need* distinct rows.

        The ``cert``/``÷ W`` closing of the inline plan: with this
        relation holding distinct (world ids, value) rows, a value is
        certain iff its occurrence count equals the world count — one
        ``np.bincount`` over a single column's codes, or one
        ``np.unique`` with counts over the combined row codes.
        """
        positions = self.schema.indices(attributes)
        if len(positions) == 1:
            col = self.arrays()[positions[0]]
            codes = col.codes()
            counts = np.bincount(codes, minlength=col._nuniq)
            hits = np.flatnonzero(counts == need)
            if not len(hits):
                return []
            return [(value,) for value in col.decode(hits)]
        group, first = _group_index(*self._row_codes(positions))
        chosen = first[np.bincount(group, minlength=len(first)) == need]
        if not len(chosen):
            return []
        acols = self.arrays()
        columns = [acols[p].take(chosen).tolist() for p in positions]
        return list(zip(*columns))


def missing_world_ids(
    table: ArrayRelation,
    table_positions: Sequence[int],
    world: ArrayRelation,
    world_positions: Sequence[int],
) -> list[tuple] | None:
    """Id tuples in *table* absent from *world*; ``None`` when all known.

    One joint factorization + ``np.isin`` pass — the vectorized form of
    ``set(tuples_of(table, ids)) <= set(tuples_of(world, ids))`` that
    representation validation runs on every commit.
    """
    codes_t, codes_w, domain = table._stacked_row_codes(
        world, table_positions, world_positions
    )
    missing = ~_member_mask(codes_t, codes_w, domain)
    if not missing.any():
        return None
    where = np.flatnonzero(missing)
    acols = table.arrays()
    columns = [acols[p].take(where).tolist() for p in table_positions]
    return sorted(set(zip(*columns)), key=repr)


# -- kernel conversion boundary ------------------------------------------------------


def as_array(relation: "Relation | ColumnarRelation") -> ArrayRelation:
    """The array-kernel view of *relation*, cached on the source object."""
    _require_numpy()
    if isinstance(relation, ArrayRelation):
        return relation
    if isinstance(relation, ColumnarRelation):
        relation = relation.to_relation()
    cached = relation._array
    if cached is None:
        cached = ArrayRelation._from_rows(relation.schema, list(relation.rows))
        cached._rowset = relation.rows
        cached._twin = relation
        relation._array = cached
    return cached


def _array_from_distinct_rows(schema, rows) -> ArrayRelation:
    return ArrayRelation._from_rows(
        schema, rows if isinstance(rows, list) else list(rows)
    )


def _array_unit() -> ArrayRelation:
    return ArrayRelation._from_rows(Schema(()), [()])


def array_kernel_ops() -> KernelOps:
    """The array kernel's :class:`KernelOps` (raises without numpy)."""
    _require_numpy()
    return KernelOps("array", as_array, _array_from_distinct_rows, _array_unit)


if np is not None:
    import operator as _operator

    _NP_OPS = {
        "=": _operator.eq,
        "!=": _operator.ne,
        "<": _operator.lt,
        "<=": _operator.le,
        ">": _operator.gt,
        ">=": _operator.ge,
    }
    _NP_ARITH = {
        "+": _operator.add,
        "-": _operator.sub,
        "*": _operator.mul,
        "/": _operator.truediv,
    }
    #: const ⟨op⟩ col rewritten as col ⟨flipped op⟩ const.
    _FLIPPED = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
