"""The checkpoint seam: resource budgets, op hooks and phase timing.

Every relational kernel op (select/join/mask/scatter/append/… on the
tuple, columnar and array kernels) calls :func:`checkpoint` exactly
once, before it starts mutating or allocating in earnest. The
checkpoint is the single place where two cross-cutting concerns hook
into the kernels:

* **Resource budgets** — :func:`guarded` installs a per-statement
  budget of cumulative input rows (``max_rows``) and wall time
  (``max_seconds``); an exceeded budget raises
  :class:`~repro.errors.ResourceLimitError`. Because the check fires at
  op *boundaries* — before the op commits anything into session state —
  the error is guaranteed recoverable: the session's state still equals
  its last commit.
* **Op hooks** — :func:`op_hook` installs an arbitrary callable invoked
  on every checkpoint, before budget accounting; ``repro.testing.faults``
  uses it to raise at the Nth op invocation and prove crash-consistency
  (the differential sweep in ``tests/backend/test_fault_injection.py``),
  and a caller can sum its ``rows`` to measure what a plan reads.
  :func:`record_ops` lists a block's checkpoints (still passing them
  on), so a cached decode can replay them.

The seam also carries per-phase wall-clock accounting, one level up
from the kernel ops: :func:`collect_phases` installs a collector dict
and instrumented code brackets work in ``with phase("execute"):`` —
compile, rewrite, execute, dml_apply (the mask/scatter/append
application of DML answers, including the batched pipeline's
single-pass commit), decode, rollback (``atomic`` scripts,
``transaction()`` exits and ``rollback_to``), cache_lookup. Phases must
not nest: the accounting adds sibling durations, and instrumentation
sites are chosen to be disjoint. Collections do nest: on exit a
collector adds its totals into the enclosing one, which is how
:meth:`repro.isql.session.ISQLSession.run` attaches private
per-statement timings while a benchmark's outer collector still sees
every phase.

All state lives in :class:`~contextvars.ContextVar` objects, none in
module globals, so budgets, hooks and collectors are scoped to the
installing thread (and asyncio task): N pooled sessions can run
statements concurrently, each under its own connection's budget, and
never charge, abort, observe or time another's statement. Installs
shadow the enclosing value and restore it on exit; hooks do not chain.
The disarmed checkpoint is one ``ContextVar.get()`` and one falsy test
per *op* (not per row); the benchmark gate in
``benchmarks/check_regression.py`` holds armed-guard overhead under
1.1× as well.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from numbers import Integral, Real
from typing import Callable, ContextManager, Iterator

from repro.errors import ReproError, ResourceLimitError

Hook = Callable[[str, int], None]

#: What this context's checkpoints feed: ``(hook, budget)``, either
#: half possibly None, or None itself when neither is installed.
_armed: ContextVar[tuple[Hook | None, ResourceGuard | None] | None] = ContextVar(
    "checkpoint_armed", default=None
)

#: This context's phase collector, or None outside a collection.
_collector: ContextVar[dict[str, float] | None] = ContextVar(
    "phase_collector", default=None
)


class ResourceGuard:
    """A per-statement budget: cumulative input rows and a deadline."""

    __slots__ = ("max_rows", "max_seconds", "deadline", "rows")

    def __init__(self, max_rows: int | None, max_seconds: float | None) -> None:
        _check_limit("max_rows", max_rows, Integral)
        _check_limit("max_seconds", max_seconds, Real)
        self.max_rows = max_rows
        self.max_seconds = max_seconds
        self.deadline = (
            None if max_seconds is None else time.perf_counter() + max_seconds
        )
        self.rows = 0


def _check_limit(name: str, value: object, kind: type) -> None:
    """Reject a limit the budget check cannot use: nan never trips, and
    ``"10"`` would fail as a ``TypeError`` at the first kernel op."""
    if value is None:
        return
    # ``not value >= 0`` also catches nan, which compares false to all.
    if isinstance(value, bool) or not isinstance(value, kind) or not value >= 0:
        expected = "integer" if kind is Integral else "number"
        raise ReproError(
            f"{name} must be None or a non-negative {expected}, got {value!r}"
        )


def checkpoint(op: str, rows: int = 0) -> None:
    """The kernel-op boundary: fire the hook, feed *rows* to the budget.

    *rows* is the op's input size (sum of operand cardinalities) — an
    upper-bound proxy for the work the op is about to do. Near-free when
    nothing is installed.
    """
    armed = _armed.get()
    if armed:
        _checkpoint_armed(armed, op, rows)


def _checkpoint_armed(
    armed: tuple[Hook | None, ResourceGuard | None], op: str, rows: int
) -> None:
    hook, guard = armed
    if hook is not None:
        hook(op, rows)
    if guard is None:
        return
    guard.rows += rows
    if guard.max_rows is not None and guard.rows > guard.max_rows:
        raise ResourceLimitError(
            f"statement exceeded max_rows={guard.max_rows}: "
            f"{guard.rows} cumulative input rows at kernel op {op!r}"
        )
    if guard.deadline is not None and time.perf_counter() > guard.deadline:
        raise ResourceLimitError(
            f"statement exceeded max_seconds={guard.max_seconds} "
            f"at kernel op {op!r}"
        )


def guarded(
    max_rows: int | None = None, max_seconds: float | None = None
) -> ContextManager[ResourceGuard | None]:
    """Install a fresh resource budget for this context's block.

    With both limits ``None`` this is a shared no-op context (the fast
    path stays disarmed); any other value that is not a non-negative
    number raises :class:`~repro.errors.ReproError`. Budgets do not nest
    additively: an inner ``guarded`` shadows the outer one and restores
    it on exit, so each statement gets its own fresh budget.
    """
    if max_rows is None and max_seconds is None:
        return _UNGUARDED
    return _installed(ResourceGuard(max_rows, max_seconds))


#: What :func:`guarded` returns without limits.
_UNGUARDED = nullcontext()


@contextmanager
def _installed(guard: ResourceGuard) -> Iterator[ResourceGuard]:
    armed = _armed.get()
    token = _armed.set((armed[0] if armed else None, guard))
    try:
        yield guard
    finally:
        _armed.reset(token)


@contextmanager
def op_hook(hook: Hook) -> Iterator[None]:
    """Install *hook* to observe (or sabotage) every checkpoint.

    The hook receives ``(op, rows)`` and may raise — that is exactly
    how the fault injector simulates a crash inside a kernel op. The
    previous hook is restored on exit; hooks do not chain.
    """
    armed = _armed.get()
    token = _armed.set((hook, armed[1] if armed else None))
    try:
        yield
    finally:
        _armed.reset(token)


@contextmanager
def record_ops() -> Iterator[list[tuple[str, int]]]:
    """Yield a list that collects the block's checkpoints as ``(op, rows)``.

    The enclosing hook and budget still see every checkpoint, so
    recording changes nothing for them; a cached result replays the
    list through :func:`checkpoint` to be charged and observed like
    the work it stands for.
    """
    ops: list[tuple[str, int]] = []
    armed = _armed.get()
    outer = armed[0] if armed else None

    def record(op: str, rows: int) -> None:
        ops.append((op, rows))
        if outer is not None:
            outer(op, rows)

    with op_hook(record):
        yield ops


class collect_phases:
    """Install *target* (or a fresh dict) as this context's collector.

    Durations accumulate under their phase name for the duration of the
    ``with`` block. On exit the previous collector is restored and the
    block's totals are added into it. Pass an empty *target*:
    everything it holds on exit counts as the block's.

    This and :class:`phase` are plain classes, not generator context
    managers: a repeated select enters three of them per execution,
    and a generator's set-up costs more than the rest of its work.
    """

    __slots__ = ("_target", "_token")

    def __init__(self, target: dict[str, float] | None = None) -> None:
        self._target = target if target is not None else {}

    def __enter__(self) -> dict[str, float]:
        self._token = _collector.set(self._target)
        return self._target

    def __exit__(self, *exc_info: object) -> None:
        _collector.reset(self._token)
        outer = _collector.get()
        if outer is not None:
            for name, seconds in self._target.items():
                outer[name] = outer.get(name, 0.0) + seconds


class phase:
    """Bracket one phase of work; a no-op without an active collector."""

    __slots__ = ("_name", "_collector", "_start")

    def __init__(self, name: str) -> None:
        self._name = name

    def __enter__(self) -> None:
        self._collector = _collector.get()
        if self._collector is not None:
            self._start = time.perf_counter()

    def __exit__(self, *exc_info: object) -> None:
        collector = self._collector
        if collector is not None:
            collector[self._name] = (
                collector.get(self._name, 0.0) + time.perf_counter() - self._start
            )


__all__ = [
    "ResourceGuard",
    "checkpoint",
    "collect_phases",
    "guarded",
    "op_hook",
    "phase",
    "record_ops",
]
