"""Shared benchmark fixtures, scaling workloads, and JSON reporting.

Benchmarks that compare execution backends append rows to
:data:`BACKEND_BENCH_RESULTS` (via :func:`record`); at the end of the
benchmark session the rows are written to
``BENCH_backends.json`` in the repository root, so the explicit-vs-
inline performance trajectory is machine-readable and tracked across
PRs.
"""

from __future__ import annotations

import json
import platform
from pathlib import Path

import pytest

from repro.datagen import flights, hotels

#: Rows recorded by bench_backends.py during this pytest session.
BACKEND_BENCH_RESULTS: list[dict] = []

#: The writer's speedup maps: (name, numerator backend, denominator
#: backend), each holding numerator/denominator seconds per scenario.
SPEEDUPS = (
    ("inline_speedup_over_explicit", "explicit", "inline"),
    ("columnar_speedup_over_tuple_kernel", "inline-tuple", "inline"),
    ("array_speedup_over_columnar_kernel", "inline", "inline-array"),
)


def _rounded(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {name: _rounded(item) for name, item in sorted(value.items())}
    return value


def record(scenario: str, backend: str, seconds: float | None, **fields) -> None:
    """Append one (scenario, backend) row for BENCH_backends.json.

    *seconds* is ``None`` on a row stating that the backend cannot run
    the scenario at all (pass ``infeasible=True``) — distinct from an
    unmeasured 0. *fields* are the row's measurements, written as
    given; the ones ``check_regression.GATES`` names are gated. Common
    ones: ``session_worlds`` (the state's world count after the
    script), ``result_worlds`` (the final query result's),
    ``scenario_worlds`` (the world space the evaluation ranges over — a
    closed query may collapse to one world at the very end),
    ``representation_size``, the per-phase breakdown ``phases``, the
    inline ``route`` and ``fallback_reason``, and the paired
    same-process ratios (``guard_overhead``, ``snapshot_overhead``,
    ``plan_cache_speedup``), which are machine-independent and
    therefore gate absolutely, and ``sample_seconds``, the paired
    sample their noise floor reads.
    """
    row: dict = {
        "scenario": scenario,
        "backend": backend,
        "seconds": _rounded(seconds),
        **{name: _rounded(value) for name, value in fields.items()},
        # Provenance: ratios are only computed between rows from the
        # same interpreter on the same platform (best effort — a
        # hostname would identify machines exactly but does not
        # belong in a committed file).
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    # Every row states its kernel — explicitly null for backends that
    # have none (the explicit engine), so a missing key can only mean
    # a pre-registry row, not an unstated default.
    row.setdefault("kernel", None)
    BACKEND_BENCH_RESULTS.append(row)


def pytest_addoption(parser):
    parser.addoption(
        "--repeats",
        action="store",
        type=int,
        default=3,
        help="timing repetitions per (scenario, backend); the median is recorded",
    )


@pytest.fixture(scope="session")
def bench_repeats(request) -> int:
    """The ``--repeats`` knob: N timed runs, median-of-N recorded."""
    return max(int(request.config.getoption("--repeats")), 1)


def _ratio(numerator: dict | None, denominator: dict | None) -> float | None:
    """Seconds ratio of two rows when both are measured and comparable.

    Infeasible rows (``seconds`` null) never produce a ratio, and rows
    from different interpreters/platforms are not compared (a
    carried-over row may come from another machine).
    """
    if not numerator or not denominator:
        return None
    if numerator.get("seconds") is None or not denominator.get("seconds"):
        return None
    if (
        numerator.get("python") != denominator.get("python")
        or numerator.get("platform") != denominator.get("platform")
    ):
        return None
    return round(numerator["seconds"] / denominator["seconds"], 2)


def pytest_sessionfinish(session, exitstatus):
    if not BACKEND_BENCH_RESULTS:
        return
    path = Path(__file__).resolve().parent.parent / "BENCH_backends.json"
    # One row per (scenario, backend): several tests may time the same
    # pair in one session (keep the best of this run), and a partial run
    # must not wipe rows of scenarios it did not touch (carry those over
    # from the previous file). Fresh measurements always replace old
    # ones — never min across runs, or regressions would be masked.
    best: dict[tuple[str, str], dict] = {}
    if path.exists():
        try:
            for row in json.loads(path.read_text()).get("entries", []):
                best[(row["scenario"], row["backend"])] = row
        except (ValueError, KeyError):
            pass  # unreadable previous file: rebuild from this run
    measured: dict[tuple[str, str], dict] = {}
    for row in BACKEND_BENCH_RESULTS:
        key = (row["scenario"], row["backend"])
        previous = measured.get(key)
        # Among this run's rows: a measurement beats an infeasible
        # marker, and the fastest measurement wins; among infeasible
        # markers the latest wins.
        if (
            previous is None
            or previous["seconds"] is None
            or (row["seconds"] is not None and row["seconds"] < previous["seconds"])
        ):
            measured[key] = row
    best.update(measured)
    entries = sorted(best.values(), key=lambda r: (r["scenario"], r["backend"]))
    by_scenario: dict[str, dict[str, dict]] = {}
    for row in entries:
        by_scenario.setdefault(row["scenario"], {})[row["backend"]] = row
    payload = {"generated_by": "benchmarks/bench_backends.py", "entries": entries}
    for name, numerator, denominator in SPEEDUPS:
        ratios = {
            scenario: _ratio(rows.get(numerator), rows.get(denominator))
            for scenario, rows in by_scenario.items()
        }
        payload[name] = {s: r for s, r in ratios.items() if r is not None}
    path.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture(scope="session")
def backend_recorder():
    """The recording hook handed to bench_backends (same module instance
    as the session-finish writer, unlike a direct conftest import)."""
    return record


@pytest.fixture(scope="module")
def small_flights():
    return flights(6, 8, 3, seed=1)


@pytest.fixture(scope="module")
def medium_flights():
    return flights(15, 20, 5, seed=1)


@pytest.fixture(scope="module")
def large_flights():
    return flights(30, 40, 8, seed=1)


@pytest.fixture(scope="module")
def small_hotels():
    return hotels(8, 2, seed=1)
