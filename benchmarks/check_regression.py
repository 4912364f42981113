"""Fail CI when a ``BENCH_backends.json`` metric regresses past its gate.

Compares a freshly generated ``BENCH_backends.json`` against the
committed baseline (the file as of the base commit). Every rule is one
row of :data:`GATES`; :func:`check` is one loop over that table. A gate
names a row backend and a field, and says how the field may move:

* **relative** gates (``GREW``/``FELL``/``BECAME``) compare the current
  value with the baseline's. A scenario the baseline did not measure
  does not gate, and values below the gate's noise floor on either side
  are timer jitter and skip.
* **absolute** gates (``ABOVE``/``BELOW``) hold the paired same-process
  ratios the benchmark records (guard, pooled-reader and replay
  overheads) to a fixed bound on the current file alone — no baseline
  and no cross-machine normalization needed. Their floor is a failure,
  not a skip: a ratio whose paired sample (the row's ``sample_seconds``)
  ran below the floor, or was not recorded, measured nothing and must be
  re-measured on a longer sample.

Raw seconds only compare across two rows of the same provenance
(interpreter + platform): a committed baseline is usually recorded on
other hardware than the CI runner. A ``NORMALIZED`` gate then compares
the value divided by a same-file, same-provenance reference row of the
scenario — the explicit backend when it was measured, else the
``inline-tuple`` kernel row — so a uniformly slower runner cancels out.
A ``SAME`` gate skips mismatched pairs; an ``ANY`` gate's values are
hardware-independent (row counts, routes, same-file ratios).

Two presence rules hold for every gate, so lost instrumentation cannot
silently disarm one: a measured current row must keep every gated
field its baseline row recorded (for ``seconds``, becoming infeasible
is the loss), and the rows a gate's ``keep`` predicate selects must not
disappear from the current file. The benchmark writer carries
unmeasured rows over from the committed file, so partial runs still
satisfy both.

Usage::

    python benchmarks/check_regression.py BASELINE.json CURRENT.json
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: How a gated value fails, given the baseline value, the current value
#: and the bound. ``ABOVE``/``BELOW`` ignore the baseline (absolute).
GREW, FELL, BECAME = "grew past", "fell past", "became"
ABOVE, BELOW = "above", "below"
_FAILS = {
    GREW: lambda old, new, bound: new > old * bound,
    FELL: lambda old, new, bound: new < old / bound,
    BECAME: lambda old, new, bound: new == bound != old,
    ABOVE: lambda old, new, bound: new > bound,
    BELOW: lambda old, new, bound: new < bound,
}
ABSOLUTE = (ABOVE, BELOW)

#: Cross-machine pairs: compare as-is, skip, or normalize by a reference.
ANY, SAME, NORMALIZED = "any", "same", "normalized"

#: Same-file rows used to normalize away hardware differences, in
#: preference order.
REFERENCE_BACKENDS = ("explicit", "inline-tuple")


def _is_dml(scenario: str) -> bool:
    """DML scenarios must stay measured on every kernel they ran on."""
    return "dml" in scenario


def _always(scenario: str) -> bool:
    return True


def _never(scenario: str) -> bool:
    return False


@dataclass(frozen=True)
class Gate:
    #: The gated row backend; ``None`` reads ``field`` as a top-level
    #: scenario → value map of the payload.
    backend: str | None
    #: A row field; ``phases.<name>`` reads one per-phase timing.
    field: str
    #: One of GREW / FELL / BECAME / ABOVE / BELOW; ``None`` gates only
    #: the field's presence.
    fails: str | None = None
    bound: float | str | None = None
    #: Relative gates skip values below it; absolute gates fail a row
    #: whose ``sample_seconds`` (the paired sample the benchmark holds
    #: to the floor) fall below it.
    floor: float = 0.0
    #: Which baseline rows (by scenario) must still exist in the
    #: current file.
    keep: Callable[[str], bool] = _never
    machines: str = ANY
    why: str = ""

    @property
    def label(self) -> str:
        return " ".join(filter(None, (self.backend, self.field)))


_PRODUCT = "the factored encoding regressed toward product size"

GATES = (
    # End-to-end inline seconds: 2× over the baseline. A DML scenario
    # must keep its inline row; losing the ability to run at all (now
    # infeasible) is the worst regression.
    Gate("inline", "seconds", GREW, 2.0, floor=0.002, keep=_is_dml,
         machines=NORMALIZED),
    # The DML apply phase hides inside a scenario's total; phases are
    # too small for the cross-machine normalization to mean anything.
    Gate("inline", "phases.dml_apply", GREW, 2.0, floor=0.002,
         machines=SAME),
    # Re-routing through the explicit engine is an architectural
    # regression even when the seconds pass.
    Gate("inline", "route", BECAME, "fallback",
         why="re-routed through the explicit engine"),
    # Representation sizes are deterministic row counts, so they gate
    # across machines: the factored per-group id encoding must not slide
    # back toward the joint product. DML scenarios keep their
    # kernel-vs-kernel row.
    Gate("inline", "representation_size", GREW, 1.5, why=_PRODUCT),
    Gate("inline-tuple", "representation_size", GREW, 1.5, keep=_is_dml,
         why=_PRODUCT),
    Gate("inline-array", "representation_size", GREW, 1.5, why=_PRODUCT),
    # The writer computes this map from same-provenance rows, so it
    # compares across machines; the array kernel losing its edge (or
    # its inline-array row) fails.
    Gate(None, "array_speedup_over_columnar_kernel", FELL, 2.0, keep=_always),
    # Paired same-process ratios, gated absolutely.
    Gate("inline-guarded", "guard_overhead", ABOVE, 1.1, floor=0.05,
         keep=_always, why="armed checkpoints are no longer near-free"),
    Gate("inline-pool", "snapshot_overhead", ABOVE, 1.2, floor=0.05,
         keep=_always, why="the pooled read path is no longer near-free"),
    Gate("inline-replay", "plan_cache_speedup", BELOW, 3.0, floor=0.05,
         keep=_always,
         why="the statement cache collapsed on the replay hot path"),
    Gate("inline-replay", "cache_hit_rate"),
)


def _rows(payload: dict, backend: str) -> dict[str, dict]:
    return {
        row["scenario"]: row
        for row in payload.get("entries", [])
        if row.get("backend") == backend
    }


def _gate_rows(payload: dict, gate: Gate) -> dict[str, dict]:
    """scenario → row of the gate's backend, or of its top-level map."""
    if gate.backend is not None:
        return _rows(payload, gate.backend)
    values = payload.get(gate.field) or {}
    return {scenario: {gate.field: value} for scenario, value in values.items()}


def _value(row: dict, field: str):
    for part in field.split("."):
        row = (row or {}).get(part)
    return row


def _provenance(row: dict) -> tuple:
    return (row.get("python"), row.get("platform"))


def _normalized(payload: dict, scenario: str, row: dict, field: str):
    """*field* over a same-file, same-provenance reference row's seconds.

    A merged file can carry rows from several machines, and dividing
    machine-B seconds by a machine-A reference would manufacture (or
    mask) a regression.
    """
    for backend in REFERENCE_BACKENDS:
        reference = _rows(payload, backend).get(scenario)
        if (
            reference
            and reference.get("seconds")
            and _provenance(reference) == _provenance(row)
        ):
            return _value(row, field) / reference["seconds"], backend
    return None


def _fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _absolute(gate: Gate, scenario: str, new: dict) -> str | None:
    """A paired ratio against its fixed bound (``None`` = pass)."""
    value = _value(new, gate.field)
    sample = new.get("sample_seconds")
    if sample is None or sample < gate.floor:
        return (
            f"{scenario}: {gate.label} {_fmt(value)} has sample_seconds "
            f"{_fmt(sample)}, under the {gate.floor}s floor — re-measure "
            "it on a longer sample"
        )
    if _FAILS[gate.fails](None, value, gate.bound):
        return (
            f"{scenario}: {gate.label} {value:.3f} {gate.fails} the "
            f"{gate.bound}× bound — {gate.why}"
        )
    return None


def _relative(
    gate: Gate, scenario: str, old: dict | None, new: dict,
    baseline: dict, current: dict,
) -> str | None:
    """A current value against its baseline value (``None`` = pass)."""
    old_value = _value(old, gate.field) if old else None
    value = _value(new, gate.field)
    if old_value is None:
        return None
    if gate.floor and (old_value < gate.floor or value < gate.floor):
        return None
    label, note = gate.label, ""
    if gate.machines != ANY and _provenance(old) != _provenance(new):
        if gate.machines == SAME:
            return None
        old_norm = _normalized(baseline, scenario, old, gate.field)
        new_norm = _normalized(current, scenario, new, gate.field)
        if old_norm is None or new_norm is None:
            return None
        (old_value, old_ref), (value, new_ref) = old_norm, new_norm
        label += f"/{new_ref}"
        note = f"; cross-machine, normalized by {old_ref}/{new_ref}"
    if not _FAILS[gate.fails](old_value, value, gate.bound):
        return None
    if gate.fails == BECAME:
        change = f"{old_value} → {value}"
    else:
        change = (
            f"{_fmt(old_value)} → {_fmt(value)} ({value / old_value:.2f}×, "
            f"{gate.fails} the {gate.bound}× bound{note})"
        )
    why = f" — {gate.why}" if gate.why else ""
    if new.get("fallback_reason"):
        why += f" ({new['fallback_reason']})"
    return f"{scenario}: {label} {change}{why}"


def check(baseline: dict, current: dict) -> list[str]:
    """The list of regression messages (empty = pass)."""
    problems: list[str] = []
    for gate in GATES:
        old_rows, new_rows = _gate_rows(baseline, gate), _gate_rows(current, gate)
        for scenario in sorted(old_rows.keys() | new_rows.keys()):
            old, new = old_rows.get(scenario), new_rows.get(scenario)
            if new is None:
                if old is not None and gate.keep(scenario):
                    problems.append(
                        f"{scenario}: the {gate.backend or gate.field} row "
                        "disappeared — it must stay measured (or carried "
                        "over by the benchmark writer)"
                    )
                continue
            if _value(new, gate.field) is None:
                lost = old is not None and _value(old, gate.field) is not None
                if lost and gate.field == "seconds":
                    problems.append(
                        f"{scenario}: {gate.label} was {_fmt(old['seconds'])} at "
                        "baseline but is now recorded as infeasible"
                    )
                elif lost and new.get("seconds") is not None:
                    problems.append(
                        f"{scenario}: {gate.label} was recorded at baseline "
                        "but the measured row lost it — dropped "
                        "instrumentation disarms this gate"
                    )
                continue
            if gate.fails in ABSOLUTE:
                problem = _absolute(gate, scenario, new)
            elif gate.fails is not None:
                problem = _relative(gate, scenario, old, new, baseline, current)
            else:
                problem = None  # a presence-only gate
            if problem:
                problems.append(problem)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    args = parser.parse_args(argv)
    baseline = json.loads(args.baseline.read_text())
    current = json.loads(args.current.read_text())
    problems = check(baseline, current)
    if problems:
        print("benchmark regressions:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"no regression across the {len(GATES)} gates of check_regression.GATES")
    return 0


if __name__ == "__main__":
    sys.exit(main())
