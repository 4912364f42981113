"""Self-test of the end-to-end benchmark harness, at tiny scale.

Runs every workload untraced and traced on tiny data with short windows
(a few seconds in all) and checks the contract the full benchmark relies
on: declared and emitted metrics agree, request streams are a function
of the seed, spans nest, tails are supported by samples, and a failing
request is counted without stopping the run.
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

import run
from e2e_harness import drift_problem, percentile, run_workload, supported_tail
from e2e_workloads import WORKLOADS, Request

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 3


def tiny_run(workload, trace: bool, trace_path=None) -> dict:
    return run_workload(
        workload, SEED, 0.1, trace, scale="tiny", warmup=0.02, trace_path=trace_path
    )


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory) -> dict:
    directory = tmp_path_factory.mktemp("traces")
    runs = {}
    for name, workload in WORKLOADS.items():
        runs[name, False] = tiny_run(workload, False)
        path = directory / f"{name}.jsonl"
        runs[name, True] = tiny_run(workload, True, path)
        runs[name, "spans"] = path
    return runs


def test_benchmark_json_is_well_formed():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [w["name"] for w in BENCHMARK["workloads"]] + [m["name"] for m in metrics]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_every_declared_metric_is_emitted_and_no_other(tiny_runs):
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        for name in WORKLOADS:
            result = tiny_runs[name, trace]
            emitted = {metric: unit for metric, (_, unit) in result["metrics"].items()}
            assert emitted == declared, (name, section)
            assert all(math.isfinite(value) for value, _ in result["metrics"].values())
            assert result["attempted"] > 0 and result["failed"] == 0, result["detail"]
            # Tiny data holds fewer statements than the caches, so the
            # capacity guard is the only one that may fire here.
            assert all("cache tiers" in problem for problem in result["problems"])


def test_same_seed_same_requests_other_seed_other_requests():
    for workload in WORKLOADS.values():
        def first(seed: int) -> list[Request]:
            stream = workload.stream(workload.data(seed, "tiny"), seed)
            return [next(stream) for _ in range(60)]

        assert first(SEED) == first(SEED)
        assert first(SEED) != first(SEED + 1)


def test_spans_nest_and_self_times_sum_to_the_request(tiny_runs):
    for name in WORKLOADS:
        by_request = defaultdict(list)
        with open(tiny_runs[name, "spans"], encoding="utf-8") as spans:
            for line in spans:
                span = json.loads(line)
                by_request[span["request"]].append(span)
        assert by_request, name
        for spans in by_request.values():
            roots = [span for span in spans if span["parent"] is None]
            assert len(roots) == 1
            root = roots[0]
            assert all(span["self"] >= -1e-9 for span in spans)
            assert all(root["start"] <= span["start"] <= span["end"] <= root["end"] for span in spans)
            duration = root["end"] - root["start"]
            assert sum(span["self"] for span in spans) == pytest.approx(duration, rel=0.01)
        assert tiny_runs[name, True]["metrics"]["trace.attributed_share"][0] > 0


def test_percentiles_and_supported_tails():
    ordered = list(range(1, 101))
    assert percentile(ordered, 0.5) == 50
    assert percentile(ordered, 0.9) == 90
    assert supported_tail(100) == 0.9
    assert supported_tail(1000) == 0.99
    assert supported_tail(10_000) == 0.999
    assert supported_tail(109) == 0.9
    assert supported_tail(19) is None


def test_a_failing_request_is_counted_and_the_run_goes_on():
    workload = WORKLOADS["whatif_columnar"]

    def with_bad_requests(data, seed):
        for index, request in enumerate(workload.stream(data, seed)):
            if index % 7 == 0:
                yield Request("trip", "select Nope from HFlights;")
            yield request

    result = tiny_run(replace(workload, stream=with_bad_requests), False)
    assert 0 < result["failed"] < result["attempted"]
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(result["metrics"])
    assert "Nope" in result["detail"]["errors"][0]


def test_representation_drift_guard():
    assert drift_problem(1000, 1049) is None
    assert drift_problem(1000, 951) is None
    assert "not stationary" in drift_problem(1000, 1051)


def test_compare_verdicts():
    base = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    assert run.verdict(base, [v * 1.2 for v in base], 0.1, "lower")[0] == "worse"
    assert run.verdict(base, [v * 0.8 for v in base], 0.1, "lower")[0] == "better"
    assert run.verdict(base, [v * 1.01 for v in base], 0.1, "lower")[0] == "unchanged"
    assert run.verdict(base, [v * 1.2 for v in base], 0.1, "higher")[0] == "better"
    noisy = [60.0, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    assert run.verdict(base, noisy, 0.1, "lower")[0] == "unresolved"
