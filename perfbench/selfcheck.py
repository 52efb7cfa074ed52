"""Self-check of the benchmark on tiny versions of every workload.

    python3 perfbench/selfcheck.py

Asserts that an untraced run reports every end-to-end metric of
BENCHMARK.json and a traced run every per-layer metric, each with its
unit; that the run record carries failure accounting, the tail latency and
the machine; and that two traced runs under different PYTHONHASHSEEDs give
identical counts. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD_KEYS = ("python", "platform", "nproc", "git_commit", "seed", "queries_per_pass",
               "failed_ratio", "failed_classes", "wrong_answers", "query_p50_samples",
               "query_tail")


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def run(workload: str, trace: int, hashseed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    env = {**os.environ, "PYTHONHASHSEED": str(hashseed)}
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "results" / f"{workload}-seed7-trace{trace}-tiny.json").read_text()
    )
    return result, record


def expect_metrics(result: dict, specs: list[dict], where: str) -> None:
    require(set(result) == {"correct", "attempted", "failed", "metrics"}, where)
    require(result["correct"] is True, f"{where}: wrong answers")
    require(result["attempted"] >= 1, where)
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    require(set(got) == set(want), f"{where}: metrics differ: {set(got) ^ set(want)}")
    for name, unit in want.items():
        require(got[name]["unit"] == unit, f"{where}: {name} has unit {got[name]['unit']}")
        require(isinstance(got[name]["value"], (int, float)), f"{where}: {name}")


def main() -> int:
    try:
        check_all()
    except CheckFailed as e:
        print(f"FAIL {e}")
        return 1
    return 0


def check_all() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in (spec["name"] for spec in bench["workloads"]):
        result, record = run(w, 0, 1)
        expect_metrics(result, bench["end_to_end"], f"{w} untraced")
        missing = [k for k in RECORD_KEYS if k not in record]
        require(not missing, f"{w}: run record lacks {missing}")
        require(record["failed_ratio"] == result["failed"] / result["attempted"], w)

        first, _ = run(w, 1, 1)
        second, _ = run(w, 1, 2)
        for r in (first, second):
            expect_metrics(r, bench["per_layer"], f"{w} traced")
        # every count, and every ratio of counts, must repeat exactly
        counts = {m["name"] for m in bench["per_layer"]
                  if m["unit"] != "s" and m["name"] != "trace_overhead_ratio"}
        differ = {
            n: (first["metrics"][n]["value"], second["metrics"][n]["value"])
            for n in counts
            if first["metrics"][n]["value"] != second["metrics"][n]["value"]
        }
        require(not differ, f"{w}: traced counts differ between runs: {differ}")
        print(f"ok {w}: {len(bench['end_to_end'])} end-to-end and "
              f"{len(bench['per_layer'])} per-layer metrics, {len(counts)} counts and count ratios repeat")


if __name__ == "__main__":
    sys.exit(main())
