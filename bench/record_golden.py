"""Record the outputs the benchmark compares the default seed's jobs with.

    PYTHONPATH=src python3 bench/record_golden.py

Run once at the commit whose outputs are the reference; it rewrites
golden_seed<DEFAULT_SEED>.json.  The first GOLDEN_JOBS jobs of each
workload are recorded, the warm-up job included.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from workloads import DEFAULT_SEED, OUTPUTS, WORKLOADS, jobs

GOLDEN_JOBS = {"sweep-noisy": 2, "qnd-shots": 4, "evolve-boson": 2}


def main() -> None:
    from qprobe.cli import main as qprobe_main

    bench = Path(__file__).resolve().parent
    target = bench / f"golden_seed{DEFAULT_SEED}.json"
    recorded = {}
    with tempfile.TemporaryDirectory(dir=bench.parent) as tmp:
        os.chdir(tmp)
        for workload in WORKLOADS:
            recorded[workload] = []
            for argv in jobs(workload, DEFAULT_SEED, GOLDEN_JOBS[workload]):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    if qprobe_main(argv) != 0:
                        raise SystemExit(f"job failed: {argv}")
                files = {name: Path(name).read_text(encoding="utf-8")
                         for name in OUTPUTS[workload]}
                recorded[workload].append(
                    {"argv": argv, "stdout": out.getvalue(), "files": files})
        os.chdir(bench)
    target.write_text(json.dumps({"seed": DEFAULT_SEED, "jobs": recorded}, indent=1)
                      + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
