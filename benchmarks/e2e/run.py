"""The repository's end-to-end benchmark (see README.md beside this file).

One workload, one run, result as the last line of standard output::

    python3 benchmarks/e2e/run.py --workload point_reads --seed 1 --seconds 20 --trace 0

Every workload, N sets (set i uses seed S+i; odd sets run the workloads
in reverse order), each run in a fresh subprocess, with the median and
quartiles of every metric::

    python3 benchmarks/e2e/run.py --seed 1 --repeat 10 --out base.json

Two such files, one verdict per workload and end-to-end metric, judged
by the bounds in BENCHMARK.json::

    python3 benchmarks/e2e/run.py compare base.json new.json

It runs from a checkout: the library is imported from its ``src``
directory, never from anywhere else.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"
TRACES = ROOT / ".e2e_traces"
#: A run measures for --seconds; set-up, warm-up and verification add
#: well under this.
CHILD_TIMEOUT = 170


def _import_library() -> None:
    """Import ``repro`` from the checkout's ``src``; exit if it is not there."""
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as error:
        sys.exit(f"cannot import the library from {source}: {error}")
    if Path(repro.__file__).resolve().parent.parent != source:
        sys.exit(f"imported repro from {repro.__file__}, not from {source}")


def _declared() -> dict:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


# -- one run ------------------------------------------------------------------------


def run_one(args) -> int:
    from e2e_harness import run_workload
    from e2e_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    trace_path = None
    if args.trace:
        TRACES.mkdir(exist_ok=True)
        trace_path = TRACES / f"{args.workload}-seed{args.seed}.jsonl"
    result = run_workload(
        WORKLOADS[args.workload],
        args.seed,
        args.seconds,
        bool(args.trace),
        trace_path=trace_path,
    )
    for problem in result["problems"] + result["detail"]["errors"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    line = {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump({"result": line, "detail": result["detail"]}, out, indent=1)
    print("detail " + json.dumps(result["detail"]))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# -- repeated sets --------------------------------------------------------------------


def _child(name: str, seed: int, args) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": f"timed out after {CHILD_TIMEOUT}s"}
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail "):
        return {"seed": seed, "error": f"exit {completed.returncode}, no result"}
    return {
        "seed": seed,
        "result": json.loads(lines[-1]),
        "detail": json.loads(lines[-2][len("detail "):]),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of every metric over the successful runs."""
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, metric in run.get("result", {}).get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, series in values.items():
        q1, median, q3 = quartiles(series)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "n": len(series)}
    return summary


def run_sets(args) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in _declared()["workloads"]]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(args.repeat or 1):
        order = names if index % 2 == 0 else names[::-1]
        for name in order:
            run = _child(name, args.seed + index, args)
            runs[name].append(run)
            status = run.get("error") or ("ok" if run["result"]["correct"] else "INCORRECT")
            print(f"set {index} {name} seed {run['seed']}: {status}", file=sys.stderr)
    report = {
        "provenance": set_provenance(runs),
        "runs": runs,
        "summary": {name: summarize(series) for name, series in runs.items()},
    }
    for name, summary in report["summary"].items():
        for metric, stats in summary.items():
            spread = (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0
            print(
                f"{name:16s} {metric:32s} median {stats['median']:12.4f} "
                f"q1 {stats['q1']:12.4f} q3 {stats['q3']:12.4f} spread {spread:6.1%}"
            )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(report, out, indent=1)
    failed = any(
        "error" in run or not run["result"]["correct"]
        for series in runs.values()
        for run in series
    )
    return 1 if failed else 0


def set_provenance(runs: dict[str, list[dict]]) -> dict:
    """What must match for two result files to be compared."""
    provenance: dict = {"seeds": {}, "kernels": {}}
    for name, series in runs.items():
        provenance["seeds"][name] = [run["seed"] for run in series]
        for run in series:
            if "detail" not in run:
                continue
            detail = dict(run["detail"]["provenance"])
            provenance["kernels"][name] = detail.pop("kernel")
            detail.pop("seed")
            provenance.update(detail)
    return provenance


# -- compare --------------------------------------------------------------------------


def verdict(base: list[float], new: list[float], bound: float, better: str) -> tuple[str, float]:
    """better / worse / unchanged / unresolved, and the signed median change.

    The change is positive when *new* is worse. A metric is unresolved
    when either side's quartile spread exceeds *bound*, unless every new
    run beats every base run. It is better only when the medians differ
    by more than the base's own spread and the new run wins at least
    nine in ten same-seed pairs.
    """
    sign = 1.0 if better == "lower" else -1.0
    b1, base_median, b3 = quartiles(base)
    n1, new_median, n3 = quartiles(new)
    change = sign * (new_median - base_median) / base_median
    base_spread = (b3 - b1) / base_median
    new_spread = (n3 - n1) / new_median
    all_better = all(sign * (n - b) < 0 for b in base for n in new)
    if max(base_spread, new_spread) > bound and not all_better:
        return "unresolved", change
    if change > bound:
        return "worse", change
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) < 0 for b, n in pairs)
    if change < -base_spread and wins >= 0.9 * len(pairs):
        return "better", change
    return "unchanged", change


def compare(base_path: str, new_path: str) -> int:
    with open(base_path, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    differing = sorted(
        key
        for key in set(base["provenance"]) | set(new["provenance"])
        if base["provenance"].get(key) != new["provenance"].get(key)
    )
    if differing:
        print(f"refusing to compare: provenance differs in {differing}", file=sys.stderr)
        return 2

    def series(report: dict, workload: str, metric: str) -> list[float]:
        return [
            run["result"]["metrics"][metric]["value"]
            for run in report["runs"][workload]
            if "result" in run and metric in run["result"]["metrics"]
        ]

    worse = False
    print(f"{'workload':16s} {'metric':16s} {'base':>12s} {'new':>12s} {'change':>8s} {'bound':>6s} verdict")
    for workload in base["runs"]:
        for declared in _declared()["end_to_end"]:
            name = declared["name"]
            old, current = series(base, workload, name), series(new, workload, name)
            if not old or not current:
                print(f"{workload:16s} {name:16s} missing")
                worse = True
                continue
            result, change = verdict(old, current, declared["bound"], declared["better"])
            worse |= result == "worse"
            print(
                f"{workload:16s} {name:16s} {quartiles(old)[1]:12.4f} "
                f"{quartiles(current)[1]:12.4f} {change:+8.1%} {declared['bound']:6.0%} {result}"
            )
    return 1 if worse else 0


# -- entry point ------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    _import_library()
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload, run in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="measured window")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1: report the per-layer metrics of a traced run",
    )
    parser.add_argument("--repeat", type=int, help="sets of runs, each in subprocesses")
    parser.add_argument("--out", help="write the full result record here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = _declared()["run_seconds"]
    if args.workload and args.repeat is None:
        return run_one(args)
    return run_sets(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
