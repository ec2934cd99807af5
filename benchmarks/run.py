"""Benchmark of mrcscatter: time to solution on three workloads.

    python3 benchmarks/run.py --workload all

runs every workload and prints every end-to-end metric by name with its
unit.  One workload:

    python3 benchmarks/run.py --workload direct_deep --seed 1 --seconds 30 --trace 0

One process, one client, a closed loop: the next job starts when the last
one has finished.  After set-up (import, input build, one untimed warm-up
job) jobs run in whole rounds until --seconds have passed.  With --trace 0
the last line of standard output is a JSON object with the end-to-end
metrics; with --trace 1 every second round is traced, and the line holds the
per-layer metrics of the traced rounds.  Details of each run (machine,
per-job latencies, spans) go to benchmarks/out/.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# BLAS threads are fixed before numpy loads: one thread on a shared box
# gives steadier timings and a fixed order of reductions
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# name -> unit; every workload reports all of them.  Job times are in units
# of "ref": the time of a fixed reference kernel, run before and after every
# job, as the mean of the two runs around each job.  The speed of this kind
# of shared box drifts by 15-35% over minutes, also within a run; the ratio
# cancels most of that drift.
END_TO_END = {
    "setup_s": "s",
    "jobs_per_ref": "1/ref",
    "job_p50_ref": "ref",
    "job_tail_ref": "ref",
    "correct_frac": "ratio",
    "peak_rss_mb": "MB",
    "degree_mean": "degree",
    "err_geomean": "ratio",
    "resolved_frac": "ratio",
}
SETUP_PROBES = 2  # extra fresh-interpreter set-ups; setup_s is the median of 1 + SETUP_PROBES
PROBE_TIMEOUT_S = 60


@dataclass
class Record:
    label: str
    latency: float  # the job's call, seconds
    outcome: object
    traced: bool
    cycle: float = 0.0  # job, check and next input build, without the kernel, seconds
    ref: float = 0.0  # mean reference-kernel time just before and just after, seconds


def _import_package():
    """Import mrcscatter from this checkout's src/, never from elsewhere."""
    if not (SRC / "mrcscatter" / "__init__.py").is_file():
        raise SystemExit(f"error: no mrcscatter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import mrcscatter

    if Path(mrcscatter.__file__).resolve().parent != SRC / "mrcscatter":
        raise SystemExit(f"error: imported mrcscatter from {mrcscatter.__file__}, not {SRC}")
    return mrcscatter


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def reference_kernel(matrix) -> float:
    """A fixed piece of work independent of mrcscatter, like the two kinds of
    work the workloads do: a complex SVD, then a loop of scalar numpy
    operations and a loop of small-array numpy operations.  Returns its wall
    time."""
    t = time.perf_counter()
    np.linalg.svd(matrix, full_matrices=False)
    x = np.float64(0.0)
    for i in range(20000):
        x += math.sin(i * 1e-3) * np.float64(1.0001)
    z = np.linspace(0.45, 3.75, 3)
    for _ in range(1500):
        h = np.empty((4, 3), dtype=complex)
        h[0] = np.exp(1j * z) / z
        h[1] = h[0] * (1 / z - 1j)
        for ell in (1, 2):
            h[ell + 1] = (2 * ell + 1) / z * h[ell] - h[ell - 1]
        np.abs(h.sum(axis=0))
    return time.perf_counter() - t


def run_job(job, tracer=None, index=None):
    """Run one job; returns (latency, outcome).  An exception fails the job."""
    from workloads import Outcome

    t = time.perf_counter()
    try:
        if tracer is None:
            result = job.run()
        else:
            with tracer.job(job.label, index):
                result = job.run()
    except Exception:
        return time.perf_counter() - t, Outcome(ok=False, why=traceback.format_exc(limit=3))
    latency = time.perf_counter() - t
    try:
        return latency, job.check(result)
    except Exception:
        return latency, Outcome(ok=False, why=traceback.format_exc(limit=3))


def run_rounds(wl, seconds, tracer=None) -> list[Record]:
    """Run whole rounds until ``seconds`` have passed, with the reference
    kernel between jobs.  With a tracer every second round is traced, so
    that traced and untraced rounds see the same machine."""
    matrix = np.random.default_rng(0).standard_normal((500, 500)).view(complex)
    records: list[Record] = []
    start = time.perf_counter()
    mark = before = None

    def kernel():
        nonlocal before
        now = time.perf_counter()
        k = reference_kernel(matrix)
        if records:
            records[-1].cycle = now - mark
            records[-1].ref = 0.5 * (before + k)
        before = k

    r = 0
    while True:
        traced = tracer is not None and r % 2 == 1
        with tracer.patch() if traced else contextlib.nullcontext():
            for job in wl.round(r):
                kernel()
                mark = time.perf_counter()
                latency, outcome = run_job(job, tracer if traced else None, len(records))
                records.append(Record(job.label, latency, outcome, traced))
        r += 1
        if time.perf_counter() - start >= seconds and (tracer is None or r >= 2):
            kernel()
            return records


def tail(values):
    """The value with ten larger ones beyond it, and its percentile (the
    maximum when there are ten values or fewer)."""
    s = sorted(values)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def probe_setup(args) -> list[float]:
    """Set-up time of fresh interpreters, each building the inputs and
    running the warm-up job."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(records: list[Record], outcomes, setup_samples) -> tuple[dict, dict]:
    """The end-to-end metric values, and raw figures for the detail file.
    ``outcomes`` are the warm-up's and then the timed jobs'."""
    failed = sum(1 for o in outcomes if not o.ok)
    scored = [o for o in outcomes[1:] if o.ok]
    latency = [rec.latency / rec.ref for rec in records]
    tail_ref, tail_pct = tail(latency)

    def over_scored(stat, values):
        # a run in which every job failed reports 0 (and correct: false)
        values = list(values)
        return stat(values) if values else 0.0

    values = {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_ref": len(records) / sum(rec.cycle / rec.ref for rec in records),
        "job_p50_ref": statistics.median(latency),
        "job_tail_ref": tail_ref,
        "correct_frac": 1.0 - failed / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "degree_mean": over_scored(statistics.fmean, (d for o in scored for d in o.degrees)),
        "err_geomean": over_scored(lambda e: math.exp(statistics.fmean(map(math.log, e))), (o.err for o in scored)),
        "resolved_frac": over_scored(statistics.fmean, (o.resolved for o in scored)),
    }
    raw_latency = [rec.latency for rec in records]
    raw = {
        "setup_samples_s": setup_samples,
        "n_jobs": len(records),
        "tail_percentile": tail_pct,
        "ref_median_s": statistics.median(rec.ref for rec in records),
        "jobs_per_s": len(records) / sum(rec.cycle for rec in records),
        "job_p50_s": statistics.median(raw_latency),
        "job_tail_s": tail(raw_latency)[0],
    }
    return values, raw


def run_workload(args) -> dict:
    _import_package()
    import workloads
    from tracing import Tracer, metric_units

    OUT.mkdir(exist_ok=True)
    wl = workloads.build(args.workload, args.seed, args.tiny, OUT / f"work-{os.getpid()}")
    try:
        warm_latency, warm = run_job(wl.round(-1)[0])
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            return {"setup_s": setup_s}
        tracer = Tracer() if args.trace else None
        records = run_rounds(wl, args.seconds, tracer)
    finally:
        wl.close()

    outcomes = [warm] + [rec.outcome for rec in records]
    failed = sum(1 for o in outcomes if not o.ok)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "warmup": {"latency_s": warm_latency, "ok": warm.ok, "why": warm.why},
        "jobs": [
            {"label": rec.label, "latency_s": rec.latency, "ref_s": rec.ref, "cycle_s": rec.cycle,
             "traced": rec.traced, "ok": rec.outcome.ok, "why": rec.outcome.why,
             "degrees": rec.outcome.degrees, "err": rec.outcome.err, "resolved": rec.outcome.resolved}
            for rec in records
        ],
    }
    if args.trace:
        values = tracer.layer_metrics()
        traced = [rec.latency / rec.ref for rec in records if rec.traced]
        untraced = [rec.latency / rec.ref for rec in records if not rec.traced]
        values["trace_overhead_frac"] = statistics.fmean(traced) / statistics.fmean(untraced) - 1.0
        units = metric_units()
        detail.update({"absent_spans": tracer.absent, "traced_jobs": len(traced)})
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    else:
        values, raw = end_to_end(records, outcomes, [setup_s] + probe_setup(args))
        units = END_TO_END
        detail["raw"] = raw
        print(f"{args.workload:14s} ref = {raw['ref_median_s']:.4g} s, {raw['n_jobs']} jobs, "
              f"tail at p{raw['tail_percentile']:.0f}, raw p50 {raw['job_p50_s']:.4g} s")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    detail["metrics"] = metrics
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1, default=str), encoding="utf-8")

    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:50s} {m['value']:.6g} {m['unit']}")
    for label, o in [("warm-up", warm)] + [(rec.label, rec.outcome) for rec in records]:
        if not o.ok:
            print(f"FAILED {label}: {o.why}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own fresh interpreter; metrics as workload.name."""
    _import_package()
    import workloads

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        result["correct"] &= one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        result["metrics"].update({f"{name}.{k}": v for k, v in one["metrics"].items()})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="direct_deep, inverse_sweep, cli_pipeline or all")
    parser.add_argument("--seed", type=int, default=1, help="drives noise draws and incidence azimuths")
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, to test the benchmark itself")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
