"""Plan cache and result memo for the inline backend (`repro.cache`).

Every statement an inline-backed session executes pays parse → compile
(I-SQL → world-set algebra) → rewrite (the Figure 7 pass) before any
table is touched — 25–50% of wall time on small scenarios, even when
heavy traffic is the *same* statements re-run against slowly mutating
state. This module removes that tax with two bounded caches sharing one
:class:`StatementCache` façade:

* the **plan cache** (:attr:`StatementCache.plans`) maps a statement
  fingerprint — the parsed AST node (whose equality ignores source
  spans, so textual re-formatting still hits), the catalog's value
  schemas, the view definitions, the strategy/rewrite configuration,
  and the one-vs-many-worlds bit the rewriter specializes on — to the
  compiled **and rewritten** world-set-algebra artifact. A parse cache
  (:attr:`StatementCache.parses`) keyed on raw script text sits in
  front of both caches, so a repeated script skips parsing work
  entirely.
* the **result memo** (:attr:`StatementCache.memo`) maps a select's
  fingerprint *plus the per-table version counters of every relation it
  reads* (plus the world version) to the evaluated
  :class:`~repro.inline.physical.PhysicalState`. Versions live on
  :class:`~repro.inline.representation.InlinedRepresentation`: DML
  deltas — the ``mask``/``scatter_update``/``append`` kernel commits
  routed through ``replacing()`` — mint a fresh version for exactly the
  table they changed, and because versions travel *inside* the
  (immutable) representation, snapshot restore / rollback /
  ``restore_snapshot`` put the old versions back with the old tables:
  a stale entry can never be served, and a pinned reader keeps hitting
  its own snapshot's versions. The memo is probed *before* the plan
  cache, so a repeated select costs one parse lookup and one memo
  lookup.

Both caches are LRU-bounded and **lock-cheap**: one ``threading.Lock``
per map, held only for the dict probe/move — safe to share pool-wide
(``InlineBackend.spawn()`` hands the same :class:`StatementCache` to
every forked session). Entries hold only immutable objects (AST nodes,
compiled plans, physical states over immutable relations), so sharing
them across sessions is exactly the copy-on-write discipline the rest
of the engine is built on.

``session.cache_info()`` / ``connection.cache_info()`` surface the
counters as a :class:`CacheInfo`; ``run(..., cache=False)`` /
``connect(..., cache=False)`` bypass both caches per statement for
differential testing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import NamedTuple

#: Sentinel distinguishing "no entry" from a cached None-like value.
MISS = object()


class CacheInfo(NamedTuple):
    """A point-in-time summary of one cache (or an aggregate of several).

    *invalidations* counts entries dropped — LRU evictions plus
    explicit clears. With version-keyed memo entries there is no
    in-place invalidation event: a DML delta mints a fresh table
    version, new lookups key past the stale entry, and the stale entry
    ages out of the LRU (where it is counted here). *bytes_estimate* is
    a rough accounting of entry payloads (answer-table cells at tuple
    cost, scripts at character cost, plans at a flat rate), not a
    promise from the allocator.
    """

    hits: int
    misses: int
    entries: int
    invalidations: int
    bytes_estimate: int

    @staticmethod
    def empty() -> "CacheInfo":
        return CacheInfo(0, 0, 0, 0, 0)


def _estimate_bytes(value: object) -> int:
    """A rough payload size for *value* (see :class:`CacheInfo`)."""
    answer = getattr(value, "_answer", None)
    if answer is not None:
        # A memoized PhysicalState: answer cells dominate.
        try:
            width = max(len(answer.schema.attributes), 1)
            return 256 + 28 * len(answer) * width
        except Exception:
            return 512
    if isinstance(value, str):
        return 64 + len(value)
    if isinstance(value, tuple):
        return 64 + sum(_estimate_bytes(item) for item in value)
    return 512  # compiled plans, parsed statements: small AST graphs


class LRUCache:
    """A bounded, thread-safe LRU map with hit/miss/eviction counters.

    Deliberately minimal: ``get`` returns :data:`MISS` on absence (an
    entry may legitimately be falsy), ``put`` inserts or refreshes, and
    the single lock is held only for the OrderedDict probe/move — the
    "lock-cheap" property that lets one instance back a whole session
    pool.
    """

    __slots__ = ("maxsize", "_entries", "_lock", "hits", "misses", "invalidations")

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"cache size must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def get(self, key: object) -> object:
        with self._lock:
            value = self._entries.get(key, MISS)
            if value is MISS:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
            return value

    def put(self, key: object, value: object) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.invalidations += 1

    def clear(self) -> None:
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def info(self) -> CacheInfo:
        with self._lock:
            size = sum(_estimate_bytes(value) for value in self._entries.values())
            return CacheInfo(
                self.hits, self.misses, len(self._entries), self.invalidations, size
            )


class StatementCache:
    """The per-backend (or pool-shared) bundle of statement caches.

    Three LRU maps with one aggregated :meth:`info`, probed in this
    order for a select:

    * :attr:`parses` — script text → parsed statement tuple;
    * :attr:`memo` — select fingerprint + table/world versions →
      evaluated :class:`~repro.inline.physical.PhysicalState`; a hit
      ends the lookup (the state also caches its decode);
    * :attr:`plans` — statement fingerprint → compiled + rewritten plan
      (selects, probed on a memo miss only) or ``(rewritten match plan,
      attrs[, set_terms])`` (DML).

    Instances are shared by reference: ``InlineBackend.spawn()`` passes
    its cache to the child, so every session forked from one snapshot
    store template amortizes compilation pool-wide. ``close()`` on a
    backend *detaches* it from the shared instance instead of clearing
    it — a retired session must stop pinning memoized relations without
    wiping its siblings' entries.
    """

    __slots__ = ("parses", "plans", "memo")

    def __init__(
        self,
        plan_entries: int = 256,
        memo_entries: int = 64,
        parse_entries: int = 128,
    ) -> None:
        self.parses = LRUCache(parse_entries)
        self.plans = LRUCache(plan_entries)
        self.memo = LRUCache(memo_entries)

    def clear(self) -> None:
        """Drop every entry (counted as invalidations); counters survive."""
        self.parses.clear()
        self.plans.clear()
        self.memo.clear()

    def info(self) -> CacheInfo:
        """Aggregate :class:`CacheInfo` over parses + plans + memo."""
        parts = (self.parses.info(), self.plans.info(), self.memo.info())
        return CacheInfo(*(sum(values) for values in zip(*parts)))

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"StatementCache(entries={info.entries}, hits={info.hits}, "
            f"misses={info.misses})"
        )


__all__ = ["CacheInfo", "LRUCache", "MISS", "StatementCache"]
