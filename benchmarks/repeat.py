"""Run the benchmark on several seeds and summarise each metric.

    python3 benchmarks/repeat.py --workload direct_deep --seeds 1-10 [--trace 1] [--json FILE]

For every metric: the median over seeds, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, their distance as a
share of the median.  End-to-end metrics are marked against a third of their
bound in BENCHMARK.json.  Runs are sequential, one process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if hi else [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the summary to this file")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, "benchmarks/run.py", "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3, "spread": spread}
        mark = ""
        if name in bounds:
            mark = "steady" if spread < bounds[name] / 3 else f"spread above a third of bound {bounds[name]}"
        print(f"{name:50s} median {med:.6g} {units[name]:6s} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} {mark}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "trace": args.trace,
                                               "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
