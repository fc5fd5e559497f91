"""qprobe benchmark: timed CLI workloads, output checks and a traced run.

    python3 bench/run_bench.py --workload all
    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; ``src/qprobe`` is imported
from the checkout.  Each metric is printed as "name value unit"; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones from the traced
run.  ``--workload all`` runs every workload in turn and ends with one
JSON object keyed by workload.  See README.md for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import speed
import tracing
from workloads import DEFAULT_SEED, EXPECTED_CALLS, TRACED_JOBS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_SECONDS = 25
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "job_p50_s": "s", "cpu_per_job_s": "s",
              "peak_rss_mb": "MB"}
#: printed next to the metrics, not part of the result object
EXTRA_UNITS = {"raw_setup_s": "s", "raw_job_p50_s": "s", "raw_cpu_per_job_s": "s",
               "kernel_s": "s", "jobs_timed": "count", "spans": "count"}
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "QPROBE_THREADS")


class BenchError(Exception):
    """The benchmark could not run the program at all."""


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    # the default sweep pool (os.cpu_count() threads) is what gets measured
    env.pop("QPROBE_THREADS", None)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def measure_setup(work: Path) -> list[tuple[float, float]]:
    """(import seconds, kernel seconds) from fresh interpreters importing qprobe.cli.

    One untimed import first, so that bytecode compilation and a cold
    file cache do not count.
    """
    samples = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")], cwd=work,
                              env=child_env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"cannot import qprobe.cli: {proc.stderr.strip()}")
        if i:
            import_s, kernel_s = (float(v) for v in proc.stdout.split())
            samples.append((import_s, kernel_s))
    return samples


def run_worker(work: Path, tag: str, workload: str, seed: int,
               budget: list[str]) -> dict:
    """One workload's jobs in a fresh process; returns the worker's record."""
    jobdir = work / tag
    jobdir.mkdir()
    result = work / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
           str(result), str(jobdir), *budget]
    proc = subprocess.run(cmd, cwd=work, env=child_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def timed(rec: dict) -> list[dict]:
    """Jobs after the warm-up."""
    return rec["jobs"][1:]


def scaled(job: dict, key: str = "wall_s") -> float:
    """A job's time rescaled by the machine speed measured around it."""
    return speed.scale(job[key], job["kernel_s"])


def end_to_end(work: Path, workload: str, seed: int, seconds: float):
    setup = measure_setup(work)
    rec = run_worker(work, "run", workload, seed, ["--seconds", str(seconds)])
    jobs = timed(rec)
    metrics = {
        "setup_s": statistics.median(speed.scale(*s) for s in setup),
        "job_p50_s": statistics.median(scaled(j) for j in jobs),
        "cpu_per_job_s": statistics.median(scaled(j, "cpu_s") for j in jobs),
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    raw = {
        "raw_setup_s": statistics.median(s[0] for s in setup),
        "raw_job_p50_s": statistics.median(j["wall_s"] for j in jobs),
        "raw_cpu_per_job_s": statistics.median(j["cpu_s"] for j in jobs),
        "kernel_s": statistics.median(j["kernel_s"] for j in jobs),
        "jobs_timed": len(jobs),
    }
    return metrics, [rec], raw


def traced(work: Path, workload: str, seed: int):
    n = str(TRACED_JOBS[workload])
    plain = run_worker(work, "untraced", workload, seed, ["--jobs", n])
    rec = run_worker(work, "traced", workload, seed, ["--jobs", n, "--trace"])
    spans = rec["spans"]
    counts = {(job, name): v for job, name, v in rec["counts"]}
    calls = tracing.calls_per_job(spans)
    for job_id, job in enumerate(rec["jobs"]):
        for fn, want in EXPECTED_CALLS[workload].items():
            got = calls[job_id][fn]
            if got != want:
                job["problems"].append(f"traced {fn} {got} calls, expected {want}")
    jobs = {i: j for i, j in enumerate(rec["jobs"]) if i}
    factors = {i: speed.scale(1.0, j["kernel_s"]) for i, j in jobs.items()}
    metrics = tracing.layer_metrics(spans, counts, factors)
    p50 = statistics.median(scaled(j) for j in timed(rec))
    p50_plain = statistics.median(scaled(j) for j in timed(plain))
    metrics["cli.first_job_s"] = scaled(rec["jobs"][0])
    metrics["trace_overhead_pct"] = 100.0 * (p50 / p50_plain - 1.0)
    metrics["unattributed_s"] = tracing.unattributed(
        spans, {i: j["wall_s"] for i, j in jobs.items()}, factors)
    return metrics, [plain, rec], {"spans": len(spans)}


def failed_jobs(recs: list[dict]) -> list[dict]:
    """Jobs with any problem; each counts once towards ``failed``."""
    return [j for rec in recs for j in rec["jobs"] if j["problems"]]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its metrics; return the result object."""
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".bench_work"))
    try:
        if trace:
            metrics, recs, extra = traced(work, workload, seed)
        else:
            metrics, recs, extra = end_to_end(work, workload, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass
    attempted = sum(len(rec["jobs"]) for rec in recs)
    failed = failed_jobs(recs)
    for j in failed:
        print(f"FAILED {' '.join(j['argv'])}: {'; '.join(j['problems'])}",
              file=sys.stderr)
    env = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        **recs[-1]["versions"],
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": git_commit(),
    }
    print("env " + json.dumps(env))
    units = dict(tracing.per_layer_metrics()) if trace else END_TO_END
    for name, value in metrics.items():
        print(f"{workload} {name} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{workload} {name} {value:.6g} {EXTRA_UNITS[name]}")
    print(f"{workload} error_rate {len(failed) / attempted:.6g} ratio")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qprobe" / "cli.py").is_file():
        print(f"error: no qprobe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
