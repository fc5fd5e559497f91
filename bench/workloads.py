"""The benchmark's workloads: seeded lists of ``qprobe`` CLI jobs.

Each workload is a closed loop with one client: one fresh Python process
runs its jobs one after another through ``qprobe.cli.main(argv)``.  The
seed only generates the job inputs; qprobe receives nothing else.  Every
job writes its outputs under explicit ``--out`` names, which the worker
resolves inside a temporary directory.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

#: rows per sweep job: x runs from s to s + 0.45 in steps of 0.045
SWEEP_ROWS = 11

WHY = {
    "sweep-noisy": "the paper's main figure: optimizer reports plus RK4 per row, "
                   "thread pool and SVG; measures and dynamics carry the time",
    "qnd-shots": "non-demolition sequence with 10^6 pooled shots per stage: "
                 "transfer-time search, shot sampling and estimation, no RK4",
    "evolve-boson": "one long RK4 run at dimension 18 with 201 samples: dynamics "
                    "and qcore validation, no optimizer",
}
WORKLOADS = tuple(WHY)

#: files each job writes, relative to the job's working directory
OUTPUTS = {
    "sweep-noisy": ("sweep.csv", "sweep.svg"),
    "qnd-shots": ("qnd.csv",),
    "evolve-boson": ("evolve.csv",),
}

#: jobs timed in a traced run after the warm-up job; fixed so that two
#: traced runs with one seed must report identical counts
TRACED_JOBS = {"sweep-noisy": 3, "qnd-shots": 20, "evolve-boson": 6}

#: exact calls per job that a traced run must see; a function bound by
#: ``from .x import y`` that escapes the wrappers breaks these
EXPECTED_CALLS = {
    "sweep-noisy": {
        "measures.classical_correlation_optimized": 2 * SWEEP_ROWS,
        "dynamics.integrate_master": SWEEP_ROWS,
    },
    "qnd-shots": {
        "protocols.sample_shots": 6,
        "protocols.find_transfer_time": 2,
    },
    "evolve-boson": {
        "dynamics.integrate_master": 1,
    },
}


def _x(rng: random.Random) -> str:
    """A family parameter in [0.5, 1] with six decimals."""
    return f"{0.5 + rng.randrange(500001) / 1e6:.6f}"


def _job(workload: str, rng: random.Random) -> list[str]:
    if workload == "sweep-noisy":
        start = 0.5 + rng.randrange(50000) / 1e6
        return ["sweep", "--gamma", "0.1",
                "--x-start", f"{start:.6f}", "--x-stop", f"{start + 0.45:.6f}",
                "--x-step", "0.045", "--emit-svg", "--out", "sweep.csv"]
    if workload == "qnd-shots":
        return ["qnd", "--x", _x(rng), "--cycles", "3", "--shots", "1000000",
                "--seed", str(rng.randrange(2 ** 31)), "--report-tm",
                "--out", "qnd.csv"]
    if workload == "evolve-boson":
        return ["evolve", "--x", _x(rng), "--model", "secii-boson",
                "--gamma", "0.1", "--t-end", "10", "--samples", "201",
                "--out", "evolve.csv"]
    raise ValueError(f"unknown workload {workload}")


def jobs(workload: str, seed: int, count: int) -> list[list[str]]:
    """The first ``count`` jobs of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    return [_job(workload, rng) for _ in range(count)]
