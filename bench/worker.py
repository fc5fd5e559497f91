"""Runs one workload's jobs in this fresh process and writes a JSON result.

    python worker.py WORKLOAD SEED RESULT_JSON WORKDIR (--seconds S | --jobs N) [--trace]

Job 0 is the untimed warm-up.  Timed jobs follow one at a time until
``--seconds`` have passed (at least three), or exactly ``--jobs`` of
them.  The calibration kernel (speed.py) runs before every job and after
the last.  Jobs run in WORKDIR, so their ``--out`` files land there; each
job's stdout and files are checked before the next job starts.
``qprobe`` must be importable (run_bench.py puts ``src`` on the path).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import checks
import speed
import tracing
from workloads import DEFAULT_SEED, OUTPUTS, jobs

MIN_TIMED_JOBS = 3
#: long enough that no run reaches the end of its job list
MAX_JOBS = 1000
GOLDEN = Path(__file__).with_name(f"golden_seed{DEFAULT_SEED}.json")


def run_job(main, workload: str, argv: list[str], golden: dict | None) -> dict:
    """Run one job in-process and check its outputs."""
    for name in OUTPUTS[workload]:
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    problems: list[str] = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except Exception as exc:  # a job that raises is a failed job, not a crash
        rc = None
        problems.append(f"raised {exc!r}")
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    if rc not in (0, None):
        problems.append(f"exit code {rc}: {err.getvalue().strip()}")
    if not problems:
        files = {name: Path(name).read_text(encoding="utf-8")
                 for name in OUTPUTS[workload] if Path(name).exists()}
        problems += checks.check_job(workload, argv, out.getvalue(), files, golden)
    return {"argv": argv, "wall_s": wall, "cpu_s": cpu, "problems": problems}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("seed", type=int)
    ap.add_argument("result")
    ap.add_argument("workdir")
    budget = ap.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--jobs", type=int)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import numpy
    import scipy
    import qprobe.cli

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    golden = []
    if args.seed == DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["jobs"][args.workload]

    job_list = jobs(args.workload, args.seed, MAX_JOBS)
    os.chdir(args.workdir)
    records = []
    kernels = []
    start = None
    for i, argv in enumerate(job_list):
        if i == 1:
            start = time.perf_counter()
        elif i > 1:
            timed = i - 1
            if args.jobs is not None and timed >= args.jobs:
                break
            if (args.jobs is None and timed >= MIN_TIMED_JOBS
                    and time.perf_counter() - start >= args.seconds):
                break
        if tracer:
            tracer.job = i
        kernels.append(speed.kernel_seconds())
        records.append(run_job(qprobe.cli.main, args.workload, argv,
                               golden[i] if i < len(golden) else None))
    kernels.append(speed.kernel_seconds())
    # machine speed around each job: the kernel just before and just after it
    for rec, before, after in zip(records, kernels, kernels[1:]):
        rec["kernel_s"] = 0.5 * (before + after)

    result = {
        "jobs": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = [[job, name, v] for (job, name), v in tracer.counts.items()]
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
