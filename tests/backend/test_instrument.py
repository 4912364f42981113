"""Phase collection is per thread, and nested collections roll up."""

import threading

from repro.relational.guards import collect_phases, phase
from repro.isql.session import ISQLSession
from repro.relational import Relation


def test_overlapping_threads_see_only_their_own_phases():
    """Two threads overlap ``collect_phases()``: each dict records only
    its own thread's phase, and once both have exited no collector is
    left installed anywhere."""
    barrier = threading.Barrier(2, timeout=10)
    first_exited = threading.Event()
    collected: dict[str, dict[str, float]] = {}

    def worker(name: str, exits_first: bool) -> None:
        with collect_phases() as phases:
            barrier.wait()  # both collectors installed
            with phase(name):
                pass
            barrier.wait()  # both phases recorded
            if not exits_first:
                first_exited.wait(10)
        if exits_first:
            first_exited.set()
        collected[name] = phases
        with phase(f"{name}-after"):
            pass

    threads = [
        threading.Thread(target=worker, args=("A", True)),
        threading.Thread(target=worker, args=("B", False)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10)
        assert not thread.is_alive()
    with phase("main-after"):
        pass
    # A stale collector would have caught the "-after" phases.
    assert set(collected["A"]) == {"A"}
    assert set(collected["B"]) == {"B"}


def test_nested_collection_adds_into_the_enclosing_one():
    with collect_phases() as outer:
        with phase("parse"):
            pass
        with collect_phases() as inner:
            with phase("execute"):
                pass
        assert set(inner) == {"execute"}
    assert set(outer) == {"parse", "execute"}
    assert outer["execute"] == inner["execute"]


def test_run_phases_reach_an_outer_collector():
    """``run()`` times each statement privately; an enclosing collector
    still sees every phase of every statement."""
    session = ISQLSession(backend="inline")
    session.register("R", Relation(("A",), [(1,), (2,)]))
    with collect_phases() as outer:
        results = session.run("select possible A from R; delete from R where A = 1;")
    assert results[0].phases and results[1].phases
    for result in results:
        for name, seconds in result.phases.items():
            assert outer[name] >= seconds
