"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

For each workload, traced and untraced: every check passes, and every
metric the run measures is one BENCHMARK.json names.  Across workloads,
every named metric is measured by some workload (the runner reports a
metric a workload does not measure as 0, so emission alone proves
nothing).  Then each workload runs again against deliberately wrong
oracles and must fail checks.  Exits non-zero on any problem.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    run.import_program()
    spec = run.load_spec()
    problems = []
    measured: dict[str, set[str]] = {"end_to_end": set(), "per_layer": set()}
    for name in run.WORKLOAD_NAMES:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, record = run.run_workload(name, seed=1, seconds=1e-3, trace=trace, size="tiny")
            named = {m["name"] for m in spec[kind]}
            if set(result["metrics"]) != named:
                problems.append(f"{name} trace={int(trace)}: emitted {sorted(result['metrics'])}")
            if not set(record["measured"]) <= named:
                problems.append(f"{name}: measures unlisted {sorted(set(record['measured']) - named)}")
            if kind == "end_to_end" and set(record["measured"]) != named:
                problems.append(f"{name}: end-to-end metrics not measured: {sorted(named - set(record['measured']))}")
            measured[kind] |= set(record["measured"])
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {record['failures']}")
        wrong, _ = run.run_workload(name, seed=1, seconds=1e-3, trace=False, size="tiny", bias=1.0)
        if wrong["failed"] == 0 or wrong["correct"]:
            problems.append(f"{name}: wrong oracles went unnoticed")
        else:
            print(f"{name}: wrong oracles fail {wrong['failed']} of {wrong['attempted']} checks")
    unmeasured = {m["name"] for m in spec["per_layer"]} - measured["per_layer"]
    if unmeasured:
        problems.append(f"per-layer metrics no workload measures: {sorted(unmeasured)}")
    for problem in problems:
        print("FAIL", problem)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
