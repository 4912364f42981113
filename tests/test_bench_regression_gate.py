"""The CI benchmark-regression gate (benchmarks/check_regression.py).

CI compares the freshly generated BENCH_backends.json against the
committed baseline. Every rule is one entry of ``GATES``; the
parametrized cases below hold each entry, alone, to its bound and to
the two presence rules, and the remaining cases pin the rules that
span entries: cross-machine normalization, routes, and which rows are
gated at all.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
check_regression = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("check_regression", check_regression)
_spec.loader.exec_module(check_regression)

GATES = check_regression.GATES
PAIRED = [gate for gate in GATES if gate.fails in check_regression.ABSOLUTE]
ROW_GATES = [gate for gate in GATES if gate.backend is not None]
BOUNDED = [gate for gate in GATES if gate.fails is not None]

#: A DML scenario name, so the DML presence rules apply to it.
SCENARIO = "census_cleanup_dml_xl"

#: The contract the table must keep, written out independently of it:
#: label → (how it fails, bound, noise floor, whether SCENARIO's
#: baseline row must stay in the current file).
CONTRACT = {
    "inline seconds": (check_regression.GREW, 2.0, 0.002, True),
    "inline phases.dml_apply": (check_regression.GREW, 2.0, 0.002, False),
    "inline route": (check_regression.BECAME, "fallback", 0.0, False),
    "inline representation_size": (check_regression.GREW, 1.5, 0.0, False),
    "inline-tuple representation_size": (check_regression.GREW, 1.5, 0.0, True),
    "inline-array representation_size": (check_regression.GREW, 1.5, 0.0, False),
    "array_speedup_over_columnar_kernel": (check_regression.FELL, 2.0, 0.0, True),
    "inline-guarded guard_overhead": (check_regression.ABOVE, 1.1, 0.05, True),
    "inline-pool snapshot_overhead": (check_regression.ABOVE, 1.2, 0.05, True),
    "inline-replay plan_cache_speedup": (check_regression.BELOW, 3.0, 0.05, True),
    "inline-replay cache_hit_rate": (None, None, 0.0, False),
}


def _payload(*rows):
    return {"entries": [dict(row) for row in rows]}


def _row(scenario, backend="inline", seconds=0.1, **extra):
    return {"scenario": scenario, "backend": backend, "seconds": seconds, **extra}


def _gate_payload(gate, value, sample_seconds=0.5):
    """A BENCH file whose one row (or map entry) of *gate* holds *value*.

    The row also carries the paired ``sample_seconds`` that only the
    absolute gates read.
    """
    if gate.backend is None:
        return {"entries": [], gate.field: {SCENARIO: value}}
    row = _row(SCENARIO, gate.backend, 0.5, sample_seconds=sample_seconds)
    *parents, leaf = gate.field.split(".")
    target = row
    for name in parents:
        target = target.setdefault(name, {})
    target[leaf] = value
    return _payload(row)


def _values(gate):
    """(baseline, within-bound, past-bound) values of one gate's field."""
    bound = gate.bound
    if gate.fails == check_regression.GREW:
        return 0.1, 0.1 * (1 + bound) / 2, 0.1 * bound * 1.5
    if gate.fails == check_regression.FELL:
        return 6.0, 6.0 / ((1 + bound) / 2), 6.0 / bound / 1.5
    if gate.fails == check_regression.BECAME:
        return "direct", "direct", bound
    if gate.fails == check_regression.ABOVE:
        return bound * 0.95, bound * 0.95, bound * 1.2
    return bound * 2, bound * 2, bound / 2  # BELOW


def test_gate_table_keeps_its_contract():
    """No bound, floor or presence rule moves without this test moving."""
    assert {
        gate.label: (gate.fails, gate.bound, gate.floor, gate.keep(SCENARIO))
        for gate in GATES
    } == CONTRACT


@pytest.fixture
def only(monkeypatch):
    """Run check() with the gate table narrowed to one entry."""

    def narrow(gate):
        monkeypatch.setattr(check_regression, "GATES", (gate,))

    return narrow


@pytest.mark.parametrize("gate", BOUNDED, ids=lambda gate: gate.label)
def test_gate_within_bound_passes(gate, only):
    only(gate)
    old, within, _ = _values(gate)
    baseline, current = _gate_payload(gate, old), _gate_payload(gate, within)
    assert check_regression.check(baseline, current) == []


@pytest.mark.parametrize("gate", BOUNDED, ids=lambda gate: gate.label)
def test_gate_past_bound_fails(gate, only):
    only(gate)
    old, _, past = _values(gate)
    baseline, current = _gate_payload(gate, old), _gate_payload(gate, past)
    problems = check_regression.check(baseline, current)
    assert len(problems) == 1 and SCENARIO in problems[0]
    assert gate.field in problems[0]


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.label)
def test_gate_dropped_row(gate, only):
    """A row the gate keeps must not disappear; others may (a partial
    run carries unmeasured rows over, so absence means not measured)."""
    only(gate)
    old = _values(gate)[0] if gate.fails else 0.9
    problems = check_regression.check(_gate_payload(gate, old), _payload())
    if CONTRACT[gate.label][3]:
        assert len(problems) == 1 and "disappeared" in problems[0]
    else:
        assert problems == []


@pytest.mark.parametrize("gate", ROW_GATES, ids=lambda gate: gate.label)
def test_gate_dropped_field_fails(gate, only):
    """A measured row must keep every gated field its baseline recorded
    — dropped instrumentation would silently disarm the gate. (For
    ``seconds``, the loss is the row becoming infeasible.)"""
    only(gate)
    old = _values(gate)[0] if gate.fails else 0.9
    current = _gate_payload(gate, None)
    problems = check_regression.check(_gate_payload(gate, old), current)
    assert len(problems) == 1 and gate.label in problems[0]
    expected = "infeasible" if gate.field == "seconds" else "lost"
    assert expected in problems[0]


@pytest.mark.parametrize("gate", PAIRED, ids=lambda gate: gate.label)
def test_paired_gate_below_floor_fails(gate, only):
    """Floor-is-failure: a paired ratio measured on a sample below the
    floor measured nothing — the gate fails rather than skipping, with
    no baseline needed."""
    only(gate)
    _, within, _ = _values(gate)
    current = _gate_payload(gate, within, sample_seconds=0.001)
    problems = check_regression.check(_payload(), current)
    assert len(problems) == 1 and "floor" in problems[0]


@pytest.mark.parametrize("gate", PAIRED, ids=lambda gate: gate.label)
def test_paired_gate_is_absolute_not_baseline_relative(gate, only):
    """A bad ratio fails even when the baseline's was just as bad, and
    with no baseline row at all — the bound is the contract."""
    only(gate)
    _, _, past = _values(gate)
    current = _gate_payload(gate, past)
    assert len(check_regression.check(current, current)) == 1
    assert len(check_regression.check(_payload(), current)) == 1


@pytest.mark.parametrize("gate", PAIRED, ids=lambda gate: gate.label)
def test_paired_floor_is_on_sample_seconds(gate, only):
    """The floor reads the sample the benchmark protects, not the row's
    per-run ``seconds``: a cached replay is supposed to be tiny, and a
    looped guard sample is many runs long. A row that records no sample
    fails like a short one."""
    only(gate)
    _, within, _ = _values(gate)
    current = _gate_payload(gate, within)
    current["entries"][0]["seconds"] = 0.001
    assert check_regression.check(_payload(), current) == []
    del current["entries"][0]["sample_seconds"]
    problems = check_regression.check(_payload(), current)
    assert len(problems) == 1 and "sample_seconds None" in problems[0]


def test_relative_noise_floor_skips_tiny_values():
    baseline = _payload(_row("trip", seconds=0.0005, phases={"dml_apply": 0.0005}))
    current = _payload(_row("trip", seconds=0.0100, phases={"dml_apply": 0.0019}))
    assert check_regression.check(baseline, current) == []


#: Committed scenarios whose rows fail their gate: a known defect stays
#: visible in the committed file instead of being re-measured away.
#: ROADMAP item 2 tracks the pooled read path, whose memo-hit reads run
#: about 3× a plain session's. Strict both ways: fixing the defect
#: must empty this set.
KNOWN_FAILING = {"pool_concurrent_readers"}


def test_committed_file_passes_against_itself():
    committed = json.loads((ROOT / "BENCH_backends.json").read_text())
    problems = check_regression.check(committed, committed)
    assert {problem.split(":")[0] for problem in problems} == KNOWN_FAILING, problems


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.label)
def test_every_gated_field_is_recorded_in_the_committed_file(gate):
    """A renamed bench field or backend would disarm its gate silently:
    each gate must find its field (and a paired gate its floored
    ``sample_seconds``) on at least one committed row."""
    committed = json.loads((ROOT / "BENCH_backends.json").read_text())
    rows = check_regression._gate_rows(committed, gate).values()
    fields = [gate.field] + (["sample_seconds"] if gate in PAIRED else [])
    for field in fields:
        assert any(check_regression._value(row, field) is not None for row in rows)


def test_only_gated_backends_gate():
    baseline = _payload(_row("trip", backend="explicit", seconds=0.1))
    current = _payload(_row("trip", backend="explicit", seconds=1.0))
    assert check_regression.check(baseline, current) == []


def test_missing_and_new_scenarios_are_skipped():
    baseline = _payload(_row("old_only", seconds=0.1))
    current = _payload(_row("new_only", seconds=9.9))
    assert check_regression.check(baseline, current) == []


def test_non_dml_scenario_dropped_is_still_skipped():
    baseline = _payload(
        _row("trip_xl", seconds=0.5),
        _row("trip_xl", backend="inline-tuple", seconds=0.7),
    )
    assert check_regression.check(baseline, _payload()) == []


def test_baseline_infeasible_rows_do_not_gate():
    baseline = _payload(_row("xl", seconds=None, infeasible=True))
    current = _payload(_row("xl", seconds=4.0))
    assert check_regression.check(baseline, current) == []


def test_infeasible_current_row_skips_field_presence():
    """An infeasible row records no measurements; only its ``seconds``
    gate (became infeasible) speaks for it."""
    baseline = _payload(
        _row("repair", backend="inline-array", representation_size=100),
        _row("statement_replay", backend="inline-replay", seconds=0.05,
             plan_cache_speedup=10.0, cache_hit_rate=0.98),
    )
    current = _payload(
        _row("repair", backend="inline-array", seconds=None, infeasible=True),
        _row("statement_replay", backend="inline-replay", seconds=None,
             infeasible=True),
    )
    assert check_regression.check(baseline, current) == []


def test_array_speedup_map_absent_from_old_baseline_is_skipped():
    """Baselines that predate the array kernel have no map at all: new
    speedups never gate against nothing."""
    baseline = _payload(_row("trip", seconds=0.1))
    current = _payload(_row("trip", seconds=0.1))
    current["array_speedup_over_columnar_kernel"] = {"trip_certain_2p16": 6.0}
    assert check_regression.check(baseline, current) == []


def test_explicit_rows_do_not_size_gate():
    """The explicit backend materializes per-world tables — its size is
    not the factored encoding's to defend."""
    baseline = _payload(
        _row("census_repair", backend="explicit", representation_size=30720)
    )
    current = _payload(
        _row("census_repair", backend="explicit", representation_size=99999)
    )
    assert check_regression.check(baseline, current) == []


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    bad = tmp_path / "bad.json"
    base = tmp_path / "base.json"
    base.write_text(json.dumps(_payload(_row("trip", seconds=0.1))))
    good.write_text(json.dumps(_payload(_row("trip", seconds=0.1))))
    bad.write_text(json.dumps(_payload(_row("trip", seconds=0.9))))
    assert check_regression.main([str(base), str(good)]) == 0
    assert check_regression.main([str(base), str(bad)]) == 1
    with pytest.raises(SystemExit):
        check_regression.main([str(base), str(good), "--threshold", "3.0"])


# -- routes ---------------------------------------------------------------------------


def test_route_regression_direct_to_fallback_fails():
    """Re-routing a direct scenario through the explicit fallback is an
    architectural regression even when the seconds pass the threshold."""
    baseline = _payload(_row("tpch", seconds=0.100, route="direct"))
    current = _payload(
        _row(
            "tpch",
            seconds=0.110,
            route="fallback",
            fallback_reason="aggregation left the fragment",
        )
    )
    problems = check_regression.check(baseline, current)
    assert len(problems) == 1 and "direct → fallback" in problems[0]
    assert "aggregation" in problems[0]


def test_newly_direct_route_gates_on_seconds_like_the_rest():
    """A scenario that flipped fallback→direct is faster and passes; a
    genuine slowdown on it still fails like any other row."""
    baseline = _payload(_row("tpch", seconds=0.400, route="fallback"))
    improved = _payload(_row("tpch", seconds=0.050, route="direct"))
    assert check_regression.check(baseline, improved) == []
    slower = _payload(_row("tpch", seconds=1.000, route="direct"))
    problems = check_regression.check(baseline, slower)
    assert len(problems) == 1 and "tpch" in problems[0]


def test_rows_without_route_do_not_route_gate():
    """Old baselines predate route recording: absent routes never gate."""
    baseline = _payload(_row("trip", seconds=0.100))
    current = _payload(_row("trip", seconds=0.110, route="fallback"))
    assert check_regression.check(baseline, current) == []


# -- cross-machine comparisons -------------------------------------------------------


def test_cross_machine_rows_compare_normalized_not_raw():
    """A uniformly slower runner must not fail the gate: the inline /
    explicit ratio is unchanged even though raw seconds tripled."""
    baseline = _payload(
        _row("trip", seconds=0.100, python="3.11", platform="dev"),
        _row("trip", backend="explicit", seconds=1.000, python="3.11", platform="dev"),
    )
    current = _payload(
        _row("trip", seconds=0.300, python="3.12", platform="ci"),
        _row("trip", backend="explicit", seconds=3.000, python="3.12", platform="ci"),
    )
    assert check_regression.check(baseline, current) == []


def test_cross_machine_normalized_regression_fails():
    """Same machines as above, but inline got 4× slower relative to the
    explicit reference — a real regression, flagged despite the
    provenance mismatch."""
    baseline = _payload(
        _row("trip", seconds=0.100, python="3.11", platform="dev"),
        _row("trip", backend="explicit", seconds=1.000, python="3.11", platform="dev"),
    )
    current = _payload(
        _row("trip", seconds=1.200, python="3.12", platform="ci"),
        _row("trip", backend="explicit", seconds=3.000, python="3.12", platform="ci"),
    )
    problems = check_regression.check(baseline, current)
    assert len(problems) == 1 and "normalized" in problems[0]


def test_cross_machine_falls_back_to_tuple_kernel_reference():
    """XL scenarios have no explicit timing; the inline-tuple row is
    the normalizer there."""
    baseline = _payload(
        _row("xl", seconds=0.2, python="3.11", platform="dev"),
        _row("xl", backend="explicit", seconds=None, infeasible=True,
             python="3.11", platform="dev"),
        _row("xl", backend="inline-tuple", seconds=0.4, python="3.11", platform="dev"),
    )
    current_ok = _payload(
        _row("xl", seconds=0.6, python="3.12", platform="ci"),
        _row("xl", backend="inline-tuple", seconds=1.2, python="3.12", platform="ci"),
    )
    assert check_regression.check(baseline, current_ok) == []
    current_bad = _payload(
        _row("xl", seconds=2.4, python="3.12", platform="ci"),
        _row("xl", backend="inline-tuple", seconds=1.2, python="3.12", platform="ci"),
    )
    problems = check_regression.check(baseline, current_bad)
    assert len(problems) == 1 and "inline-tuple" in problems[0]


def test_cross_machine_without_reference_is_skipped():
    baseline = _payload(_row("lonely", seconds=0.1, python="3.11", platform="dev"))
    current = _payload(_row("lonely", seconds=9.0, python="3.12", platform="ci"))
    assert check_regression.check(baseline, current) == []


def test_cross_machine_noise_floor_applies_to_normalized_path():
    """Sub-floor timings are all jitter; the normalized branch must not
    gate on them either."""
    baseline = _payload(
        _row("tiny", seconds=0.0009, python="3.11", platform="dev"),
        _row("tiny", backend="explicit", seconds=0.030, python="3.11", platform="dev"),
    )
    current = _payload(
        _row("tiny", seconds=0.0019, python="3.12", platform="ci"),
        _row("tiny", backend="explicit", seconds=0.030, python="3.12", platform="ci"),
    )
    assert check_regression.check(baseline, current) == []


def test_reference_from_another_machine_is_not_used():
    """A merged file can carry a reference row from a different machine
    (e.g. a carried-over explicit timing): normalizing against it would
    manufacture a regression, so the pair is skipped instead."""
    baseline = _payload(
        _row("trip", seconds=0.100, python="3.11", platform="dev"),
        _row("trip", backend="explicit", seconds=1.000, python="3.11", platform="dev"),
    )
    current = _payload(
        _row("trip", seconds=0.300, python="3.12", platform="ci"),
        # Carried-over explicit row from the dev machine.
        _row("trip", backend="explicit", seconds=1.000, python="3.11", platform="dev"),
    )
    assert check_regression.check(baseline, current) == []


def test_dml_apply_phase_not_gated_cross_machine():
    """Phases are too small for cross-machine normalization; provenance
    mismatches skip the phase gate rather than compare raw seconds."""
    baseline = _payload(
        _row("dml_xl", seconds=0.5, phases={"dml_apply": 0.1},
             python="3.11", platform="dev")
    )
    current = _payload(
        _row("dml_xl", seconds=0.5, phases={"dml_apply": 0.4},
             python="3.12", platform="ci")
    )
    assert check_regression.check(baseline, current) == []


def test_representation_size_gates_cross_machine():
    """Sizes are deterministic row counts: a provenance mismatch that
    skips the timing comparison must not skip the size one."""
    baseline = _payload(
        _row("census_repair_xl", seconds=0.1, representation_size=100,
             python="3.11", platform="dev")
    )
    current = _payload(
        _row("census_repair_xl", seconds=0.1, representation_size=1000,
             python="3.12", platform="ci")
    )
    problems = check_regression.check(baseline, current)
    assert len(problems) == 1 and "representation_size" in problems[0]
    assert "product size" in problems[0]
