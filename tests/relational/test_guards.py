"""Unit coverage for the kernel-op checkpoint layer.

:mod:`repro.relational.guards` is the single seam through which both
resource budgets and fault injection reach the kernels; these tests pin
its contract directly — disarmed fast path, budget accounting, deadline
handling, shadowing/restore discipline, hook semantics — and that the
kernel ops actually cross it. Every check goes through behaviour: a
disarmed budget lets ``checkpoint("select", 10**9)`` pass, and an
uninstalled hook stops seeing ops.
"""

import threading

import pytest

from repro.errors import EvaluationError, ReproError, ResourceLimitError
from repro.relational import Relation, as_columnar
from repro.relational.guards import checkpoint, guarded, op_hook


@pytest.fixture
def flights():
    return Relation(("Dep", "Arr"), [("FRA", "BCN"), ("FRA", "ATL"), ("PAR", "ATL")])


def test_disarmed_checkpoint_is_a_noop():
    checkpoint("select", 10**9)  # nothing installed: never raises


def test_guarded_with_no_limits_stays_disarmed():
    with guarded(None, None) as guard:
        assert guard is None
        checkpoint("select", 10**9)


def test_max_rows_budget_accumulates_across_ops():
    with guarded(max_rows=10):
        checkpoint("select", 6)
        checkpoint("join_on", 4)  # exactly at the limit: still fine
        with pytest.raises(ResourceLimitError) as info:
            checkpoint("project", 1)
    assert "max_rows=10" in str(info.value)
    assert "project" in str(info.value)


def test_max_seconds_deadline_fires_at_next_checkpoint():
    with guarded(max_seconds=0.0):
        with pytest.raises(ResourceLimitError) as info:
            checkpoint("union", 1)
    assert "max_seconds=0.0" in str(info.value)


@pytest.mark.parametrize(
    "limits",
    [{"max_seconds": float("nan")}, {"max_rows": "10"}, {"max_rows": -1}],
)
def test_guarded_rejects_limits_it_cannot_compare(limits):
    with pytest.raises(ReproError) as info:
        with guarded(**limits):
            pass  # pragma: no cover - the install itself raises
    assert not isinstance(info.value, EvaluationError)
    ((name, value),) = limits.items()
    assert f"{name} must be" in str(info.value) and repr(value) in str(info.value)
    checkpoint("select", 10**9)  # nothing left installed


def test_guard_restored_after_block_and_after_raise():
    with pytest.raises(ResourceLimitError):
        with guarded(max_rows=0):
            checkpoint("select", 1)
    checkpoint("select", 10**9)  # disarmed again


def test_inner_guard_shadows_outer_and_restores_it():
    with guarded(max_rows=1) as outer:
        with guarded(max_rows=100) as inner:
            checkpoint("select", 50)  # over the *outer* limit: inner rules
        assert (inner.rows, outer.rows) == (50, 0)
        with pytest.raises(ResourceLimitError):
            checkpoint("select", 2)  # the outer budget is back
    checkpoint("select", 10**9)  # and gone after its block


def test_each_guard_starts_with_a_fresh_budget():
    with guarded(max_rows=5):
        checkpoint("select", 5)
    with guarded(max_rows=5):
        checkpoint("select", 5)  # previous accumulation does not leak


def test_op_hook_observes_every_checkpoint_and_restores():
    seen = []
    with op_hook(lambda op, rows: seen.append((op, rows))):
        checkpoint("select", 3)
        checkpoint("mask", 7)
    assert seen == [("select", 3), ("mask", 7)]
    checkpoint("union", 1)
    assert seen == [("select", 3), ("mask", 7)]  # uninstalled


def test_guard_is_per_thread():
    # A budget installed in one thread never charges (or aborts) another
    # thread's ops — the contract the service-layer pool relies on.
    errors = []

    def other_thread():
        try:
            checkpoint("select", 10**9)  # unbudgeted in this thread
            with guarded(max_rows=0):
                with pytest.raises(ResourceLimitError):
                    checkpoint("select", 1)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    with guarded(max_rows=5):
        worker = threading.Thread(target=other_thread)
        worker.start()
        worker.join()
        checkpoint("select", 5)  # this thread's budget is untouched
        with pytest.raises(ResourceLimitError):
            checkpoint("select", 1)
    assert not errors


def test_hook_is_per_thread():
    seen = []
    with op_hook(lambda op, rows: seen.append(op)):
        worker = threading.Thread(target=lambda: checkpoint("mask", 1))
        worker.start()
        worker.join()
        checkpoint("select", 1)
    assert seen == ["select"]


def test_op_hook_restores_previous_hook():
    outer_seen, inner_seen = [], []
    with op_hook(lambda op, rows: outer_seen.append(op)):
        with op_hook(lambda op, rows: inner_seen.append(op)):
            checkpoint("select")  # hooks do not chain: inner only
        checkpoint("project")
    assert inner_seen == ["select"]
    assert outer_seen == ["project"]


def test_hook_fires_before_budget_accounting():
    order = []

    def hook(op, rows):
        order.append("hook")

    with guarded(max_rows=0):
        with op_hook(hook):
            with pytest.raises(ResourceLimitError):
                checkpoint("select", 1)
    assert order == ["hook"]


def test_hook_exceptions_propagate_uncaught():
    class Boom(RuntimeError):
        pass

    with op_hook(lambda op, rows: (_ for _ in ()).throw(Boom("x"))):
        with pytest.raises(Boom):
            checkpoint("select", 1)
    checkpoint("select", 1)  # hook uninstalled despite the raise


@pytest.mark.parametrize("kernel", ["tuple", "columnar"])
def test_kernel_ops_cross_the_checkpoint(kernel, flights):
    relation = flights if kernel == "tuple" else as_columnar(flights)
    seen = []
    with op_hook(lambda op, rows: seen.append(op)):
        relation.project(("Dep",))
        relation.union(relation)
        relation.intersection(relation)
    assert seen[:1] == ["project"]
    assert "union" in seen and "intersection" in seen


def test_kernel_op_rows_feed_the_budget(flights):
    # project reports its input cardinality (3 rows here).
    with guarded(max_rows=2):
        with pytest.raises(ResourceLimitError):
            flights.project(("Dep",))
    assert flights.project(("Dep",)).rows  # recovered, op works disarmed


def test_resource_limit_error_is_a_recoverable_library_error():
    assert issubclass(ResourceLimitError, EvaluationError)
    assert issubclass(ResourceLimitError, ReproError)
    from repro import ResourceLimitError as exported

    assert exported is ResourceLimitError
