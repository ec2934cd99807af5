"""Smoke test of the benchmark itself (not part of the test suite).

    python3 benchmarks/smoke.py

Runs every workload at tiny sizes, untraced and traced, and checks that each
run exits 0 and ends with one JSON object holding exactly the keys
correct, attempted, failed and metrics, all jobs correct, and every metric
of BENCHMARK.json with its unit.
Then checks that in a directory holding only BENCHMARK.json and the
benchmark's files, the benchmark exits non-zero without printing a result.
Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "benchmarks/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "2", "--trace", str(trace), "--tiny")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}\n{proc.stderr}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected.items()))}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")
    return problems


def check_bare_directory() -> list[str]:
    """Without the package sources the benchmark must fail and print no result."""
    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        (bare / "benchmarks").mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        for f in HERE.glob("*.py"):
            shutil.copy2(f, bare / "benchmarks")
        proc = run(bare, "--workload", "direct_deep", "--seed", "1", "--seconds", "2", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems += check_run(w["name"], trace, expected[trace])
    problems += check_bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
