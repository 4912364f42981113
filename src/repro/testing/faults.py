"""Fault injection at kernel-op boundaries.

The transactional claims of :mod:`repro.isql.session` — a statement
either applies whole or not at all, ``atomic`` scripts roll back
wholesale, the session survives any mid-kernel crash — are only worth
stating if something adversarially exercises them. This module is that
something: it installs an :func:`~repro.relational.guards.op_hook` on
the checkpoint seam every kernel op passes through and raises
:class:`InjectedFault` at the Nth invocation, simulating a crash
*inside* the evaluation of a statement — between two kernel ops, after
some intermediate relations exist but before anything committed. The
hook is scoped to the installing thread's context, like every install
on the seam: a fault armed on one pooled connection's thread never
fires in another's statement.

:class:`InjectedFault` deliberately does **not** derive from
:class:`~repro.errors.ReproError`: it stands in for the exceptions the
library does not raise on purpose (a numpy error, a bug). The session's
exception-hygiene net must therefore surface it as
:class:`~repro.errors.EvaluationError` with the fault as ``__cause__``
— the differential sweep in ``tests/backend/test_fault_injection.py``
asserts exactly that, plus bit-identical post-fault state.

Typical use::

    total = count_ops(lambda: run())          # dry run: how many ops?
    for n in sweep_points(total, limit=8):    # bounded injection sweep
        with inject_fault(n):
            with pytest.raises(EvaluationError) as info:
                run()
        assert isinstance(info.value.__cause__, InjectedFault)
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.relational import guards


class InjectedFault(RuntimeError):
    """The simulated mid-kernel crash raised by :func:`inject_fault`.

    Intentionally a bare :class:`RuntimeError`: it models the faults
    the library never raises deliberately, so it must only ever reach
    the public API wrapped in an
    :class:`~repro.errors.EvaluationError`.
    """


class FaultCounter:
    """Mutable op count shared with the caller of :func:`inject_fault`."""

    __slots__ = ("ops", "fired")

    def __init__(self) -> None:
        self.ops = 0
        self.fired = False


@contextmanager
def inject_fault(at: int, op: str | None = None) -> Iterator[FaultCounter]:
    """Raise :class:`InjectedFault` at the *at*-th checkpoint (1-based).

    *op* narrows the countdown to checkpoints of one kernel op name
    (``"mask"``, ``"join_on"``, …); by default every op counts. The
    yielded :class:`FaultCounter` reports how many matching checkpoints
    ran and whether the fault fired — a sweep uses ``fired`` to detect
    that it has walked past the last op boundary.
    """
    counter = FaultCounter()

    def hook(name: str, rows: int) -> None:
        if op is not None and name != op:
            return
        counter.ops += 1
        if counter.ops == at:
            counter.fired = True
            raise InjectedFault(
                f"injected fault at kernel op #{at} ({name}, {rows} rows)"
            )

    with guards.op_hook(hook):
        yield counter


def count_ops(run: Callable[[], object], op: str | None = None) -> int:
    """The number of checkpoint crossings a clean run of *run* makes.

    The dry-run half of a sweep: run once while counting, then inject
    at points 1..N. *op* filters like in :func:`inject_fault`.
    """
    counter = FaultCounter()

    def hook(name: str, rows: int) -> None:
        if op is None or name == op:
            counter.ops += 1

    with guards.op_hook(hook):
        run()
    return counter.ops


def sweep_points(total: int, limit: int | None = None) -> list[int]:
    """Injection points covering ``1..total``, at most *limit* of them.

    With no limit (or ``total <= limit``) every op boundary is swept —
    the nightly configuration. Otherwise the sample always includes the
    first and last boundary and spreads the rest evenly, so a bounded
    per-PR sweep still probes the edges (before anything ran / after
    almost everything ran) plus the interior.
    """
    if total <= 0:
        return []
    if limit is None or total <= limit:
        return list(range(1, total + 1))
    if limit == 1:
        return [1]
    step = (total - 1) / (limit - 1)
    points = {round(1 + i * step) for i in range(limit)}
    points.add(1)
    points.add(total)
    return sorted(points)


__all__ = ["FaultCounter", "InjectedFault", "count_ops", "inject_fault", "sweep_points"]
