"""Smoke test of the benchmark: every workload at tiny sizes, both modes.

Run from the repository root::

    python3 perfbench/smoke.py

Each workload runs once untraced and once traced, on one small dataset, with
the same seed, so the traced run also re-checks the untraced run's result
digest.  The test fails unless every run is correct, no command fails, and
every metric ``BENCHMARK.json`` declares is emitted with its unit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run as bench

TINY = {
    "float-violating": {"observations": 12},
    "float-consistent": {"observations": 12, "verify_samples": 50},
    "exact-verify": {"observations": 8, "verify_samples": 2},
}


def problems_in(result: dict, declared: list[dict], positive: bool) -> list[str]:
    problems = []
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    metrics = result["metrics"]
    wanted = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        value = entry["value"]
        if entry["unit"] != unit:
            problems.append(f"{name}: unit {entry['unit']}, declared {unit}")
        if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
            problems.append(f"{name}: value {value!r}")
        elif positive and value == 0:
            problems.append(f"{name}: end-to-end metric is 0")
    return problems


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(bench.SRC))
    failures = []
    for workload in spec["workloads"]:
        name = workload["name"]
        tiny = dataclasses.replace(bench.WORKLOADS[name], **TINY[name])
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result = bench.run(f"smoke-{name}", tiny, seed=0, seconds=0, trace=trace)
            found = problems_in(result, declared, positive=not trace)
            failures += [f"{name} trace={int(trace)}: {p}" for p in found]
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("smoke: " + ("failed" if failures else f"all {len(spec['workloads'])} workloads pass"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
