"""Gate tests for the benchmark itself: the output checker catches broken
outputs, and BENCHMARK.json names exactly the metrics the benchmark prints."""

import json
from pathlib import Path

import numpy as np

import checks
import run_bench
import tracing
from workloads import DEFAULT_SEED, TRACED_JOBS, WORKLOADS, jobs

BENCH = Path(__file__).resolve().parent
GOLDEN = json.loads((BENCH / f"golden_seed{DEFAULT_SEED}.json").read_text())["jobs"]


def _check(workload, job, stdout=None, files=None):
    return checks.check_job(workload, job["argv"],
                            job["stdout"] if stdout is None else stdout,
                            job["files"] if files is None else files, job)


def test_recorded_outputs_pass():
    for workload in WORKLOADS:
        for job in GOLDEN[workload]:
            assert _check(workload, job) == []


def test_corrupted_row_and_wrong_x_hat_count_as_failures():
    sweep = GOLDEN["sweep-noisy"][0]
    lines = sweep["files"]["sweep.csv"].splitlines(keepends=True)
    cells = lines[4].split(",")
    cells[1] = "0.5"  # concurrence no longer |2 - 3x|
    lines[4] = ",".join(cells)
    bad_sweep = _check("sweep-noisy", sweep,
                       files={**sweep["files"], "sweep.csv": "".join(lines)})
    assert any("concurrence != |2-3x|" in p for p in bad_sweep)

    qnd = GOLDEN["qnd-shots"][0]
    x_hat = next(ln for ln in qnd["stdout"].splitlines() if ln.startswith("x_hat"))
    bad_qnd = _check("qnd-shots", qnd,
                     stdout=qnd["stdout"].replace(x_hat, "x_hat = 0.9"))
    assert any("outside ci99" in p for p in bad_qnd)

    good = _check("evolve-boson", GOLDEN["evolve-boson"][0])
    records = [{"jobs": [{"problems": bad_sweep}, {"problems": bad_qnd},
                         {"problems": good}]}]
    assert len(run_bench.failed_jobs(records)) == 2


def test_golden_tolerance():
    assert checks.compare_text("f", "x = 22.2144146139", "x = 22.2144146908") == []
    assert checks.compare_text("f", "x = 0.25", "x = 0.2500003") != []
    assert checks.compare_text("f", "x = 0", "x = 1e-13") == []
    # one unit in the last place of a rounded SVG coordinate
    assert checks.compare_text("f.svg", 'x="72.31"', 'x="72.32"') == []
    assert checks.compare_text("f.csv", "72.31", "72.32") != []
    assert checks.compare_text("f", "a = 1", "b = 1") != []


def test_jobs_depend_only_on_seed():
    for workload in WORKLOADS:
        assert jobs(workload, 3, 5) == jobs(workload, 3, 5)
        assert jobs(workload, 3, 5) != jobs(workload, 4, 5)
        assert set(TRACED_JOBS) == set(WORKLOADS)


def test_rk4_step_count_follows_the_integrator_schedule():
    assert tracing._rk4_steps(10.0, 1e-3, np.linspace(0.0, 10.0, 201)) == 10002
    assert tracing._rk4_steps(np.pi / 2, 1e-3, None) == 1573


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run_bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.per_layer_metrics()
    assert spec["run_seconds"] == run_bench.RUN_SECONDS
