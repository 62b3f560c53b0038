"""Smoke self-test of the benchmark: every workload at its smallest size.

Run from the repository root:

    python3 bench/smoke.py [--workload NAME ...]

For each workload it makes one untraced run and two traced runs with the
same seed, and checks that each run is correct with no failed op, that
every metric BENCHMARK.json names is emitted with its unit and nothing
else, and that every count metric repeats exactly between the two traced
runs.  Exits 0 when all checks pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
COUNT_UNITS = {"count", "B", "GFLOP"}


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(result: dict, specs: list) -> list:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"run not clean: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    want = {spec["name"]: spec["unit"] for spec in specs}
    for name in sorted(set(want) - set(metrics)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(metrics) - set(want)):
        problems.append(f"metric {name} not in BENCHMARK.json")
    for name in sorted(set(want) & set(metrics)):
        if metrics[name].get("unit") != want[name]:
            problems.append(f"metric {name} has unit {metrics[name].get('unit')}, want {want[name]}")
        if not isinstance(metrics[name].get("value"), (int, float)):
            problems.append(f"metric {name} has no numeric value")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="benchmark smoke self-test")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in args.workload or WORKLOADS:
        problems = []
        try:
            plain = run_once(workload, args.seed, 0)
            traced = [run_once(workload, args.seed, 1) for _ in range(2)]
        except (AssertionError, subprocess.TimeoutExpired, ValueError) as exc:
            problems.append(str(exc))
        else:
            problems += check_result(plain, spec["end_to_end"])
            for result in traced:
                problems += check_result(result, spec["per_layer"])
            for name in sorted(traced[0]["metrics"]):
                first, second = (r["metrics"][name] for r in traced)
                if first["unit"] in COUNT_UNITS and first["value"] != second.get("value"):
                    problems.append(f"count {name} did not repeat: {first['value']} vs {second['value']}")
        failures += bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
