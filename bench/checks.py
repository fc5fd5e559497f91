"""Output checks for benchmark jobs.

Every job is checked against invariants that hold for any seed.  For the
default seed the first jobs are also compared, number by number, with
outputs recorded from the seed commit (``golden_seed0.json``).  A job with
any problem counts as failed.
"""

from __future__ import annotations

import math
import re

from workloads import SWEEP_ROWS

TOL = 1e-9
#: relative tolerance against the recorded outputs; wide enough for the
#: planned closed-form transfer time (about 3e-7 absolute on ~22)
GOLDEN_REL = 1e-6
#: absolute floor for recorded values at or near zero
GOLDEN_ABS = 1e-12
#: SVG coordinates have two decimals, so a change below the tolerance can
#: still flip one of them by a unit in the last place
SVG_ABS = 0.01

SWEEP_BASE = ("concurrence", "mutual_info", "classical", "discord",
              "classical_eq20", "sigma_z")
SWEEP_HEADER = ["x", *SWEEP_BASE, *(f"{c}_noisy" for c in SWEEP_BASE)]
EVOLVE_HEADER = ["t", "concurrence", "mutual_info", "sigma_z", "p_excited",
                 "dist_to_initial"]
QND_HEADER = ["cycle", "stage", "prep", "duration", "p_excited", "shots",
              "count_excited"]

# a number that is not part of a word, so "ci99" and "#1f77b4" hold none
_NUMBER = re.compile(r"(?<![\w.#])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def _csv(text: str, header: list[str], problems: list[str]) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0].split(",") != header:
        problems.append(f"unexpected CSV header {lines[:1]}")
        return []
    rows = [ln.split(",") for ln in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        problems.append("ragged CSV row")
        return []
    return rows


def _floats(rows: list[list[str]], problems: list[str]) -> list[list[float]]:
    """Rows of a numeric CSV as floats; non-finite or non-numeric cells are problems."""
    out = []
    for r in rows:
        try:
            vals = [float(v) for v in r]
        except ValueError:
            problems.append(f"non-numeric CSV row {r}")
            return []
        if not all(math.isfinite(v) for v in vals):
            problems.append(f"non-finite CSV row {r}")
        out.append(vals)
    return out


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_sweep(argv: list[str], stdout: str, files: dict[str, str]) -> list[str]:
    problems: list[str] = []
    if "sweep.csv" not in files or "sweep.svg" not in files:
        return ["missing sweep.csv or sweep.svg"]
    rows = _floats(_csv(files["sweep.csv"], SWEEP_HEADER, problems), problems)
    if len(rows) != SWEEP_ROWS:
        problems.append(f"{len(rows)} sweep rows, expected {SWEEP_ROWS}")
    start = float(_option(argv, "--x-start"))
    step = float(_option(argv, "--x-step"))
    for i, vals in enumerate(rows):
        r = dict(zip(SWEEP_HEADER, vals))
        x = r["x"]
        bad = []
        if abs(x - (start + i * step)) > TOL:
            bad.append("x off the grid")
        if abs(r["concurrence"] - abs(2.0 - 3.0 * x)) > TOL:
            bad.append("concurrence != |2-3x|")
        if abs(r["sigma_z"] - (3.0 - 4.0 * x)) > TOL:
            bad.append("sigma_z != 3-4x")
        for sfx in ("", "_noisy"):
            if abs(r["discord" + sfx] - (r["mutual_info" + sfx] - r["classical" + sfx])) > TOL:
                bad.append(f"discord{sfx} != mutual_info{sfx} - classical{sfx}")
        if r["concurrence_noisy"] > r["concurrence"] + TOL:
            bad.append("noise raised the concurrence")
        if bad:
            problems.append(f"row {i} (x={x}): {', '.join(bad)}")
    svg = files["sweep.svg"]
    if not svg.startswith("<?xml") or not svg.rstrip().endswith("</svg>"):
        problems.append("sweep.svg is not a complete SVG document")
    elif svg.count("<polyline") != 4:
        problems.append("sweep.svg should draw four series")
    if f"wrote {SWEEP_ROWS} rows to sweep.csv" not in stdout:
        problems.append("sweep did not report its rows")
    return problems


def _key_values(stdout: str) -> dict[str, str]:
    return dict(ln.split(" = ", 1) for ln in stdout.splitlines() if " = " in ln)


def check_qnd(argv: list[str], stdout: str, files: dict[str, str]) -> list[str]:
    problems: list[str] = []
    kv = _key_values(stdout)
    try:
        x_hat = float(kv["x_hat"])
        lo, hi = (float(v) for v in kv["ci99"].strip("[]").split(","))
        restoration = float(kv["restoration_distance"])
        transfer_fidelity = float(kv["transfer_fidelity"])
        stderr = float(kv["stderr"])
    except (KeyError, ValueError) as exc:
        return [f"qnd output unreadable: {exc!r}"]
    if not lo <= x_hat <= hi:
        problems.append(f"x_hat {x_hat} outside ci99 [{lo}, {hi}]")
    if not stderr > 0.0:
        problems.append(f"stderr {stderr} not positive")
    if not restoration <= 1e-8:
        problems.append(f"restoration_distance {restoration} > 1e-8")
    if not transfer_fidelity >= 1.0 - 1e-6:
        problems.append(f"transfer_fidelity {transfer_fidelity} < 1 - 1e-6")
    if "qnd.csv" not in files:
        return problems + ["missing qnd.csv"]
    rows = _csv(files["qnd.csv"], QND_HEADER, problems)
    cycles = int(_option(argv, "--cycles"))
    shots = int(_option(argv, "--shots"))
    if len(rows) != 2 * cycles:
        problems.append(f"{len(rows)} stages, expected {2 * cycles}")
    for i, r in enumerate(rows):
        prep = "excited" if i % 2 == 0 else "ground"
        if r[2] != prep or int(r[5]) != shots or not 0 <= int(r[6]) <= shots:
            problems.append(f"stage row {i} inconsistent: {r}")
    return problems


def check_evolve(argv: list[str], stdout: str, files: dict[str, str]) -> list[str]:
    problems: list[str] = []
    if "evolve.csv" not in files:
        return ["missing evolve.csv"]
    rows = _floats(_csv(files["evolve.csv"], EVOLVE_HEADER, problems), problems)
    samples = int(_option(argv, "--samples"))
    t_end = float(_option(argv, "--t-end"))
    if len(rows) != samples:
        return problems + [f"{len(rows)} samples, expected {samples}"]
    times = [r[0] for r in rows]
    if abs(times[0]) > TOL or abs(times[-1] - t_end) > TOL:
        problems.append(f"t runs from {times[0]} to {times[-1]}, expected 0 to {t_end}")
    if any(b <= a for a, b in zip(times, times[1:])):
        problems.append("sample times not increasing")
    for r in rows:
        if not 0.0 <= r[4] <= 1.0:
            problems.append(f"p_excited {r[4]} outside [0, 1] at t={r[0]}")
    return problems


CHECKS = {
    "sweep-noisy": check_sweep,
    "qnd-shots": check_qnd,
    "evolve-boson": check_evolve,
}


def compare_text(name: str, ref: str, got: str) -> list[str]:
    """Same text around the numbers, and every number within tolerance."""
    if _NUMBER.sub("#", ref) != _NUMBER.sub("#", got):
        return [f"{name}: text differs from the recorded output"]
    floor = SVG_ABS if name.endswith(".svg") else GOLDEN_ABS
    for a, b in zip(_NUMBER.findall(ref), _NUMBER.findall(got)):
        ra, rb = float(a), float(b)
        if not abs(ra - rb) <= max(GOLDEN_REL * abs(ra), floor):
            return [f"{name}: {b} differs from recorded {a}"]
    return []


def compare_golden(ref: dict, argv: list[str], stdout: str,
                   files: dict[str, str]) -> list[str]:
    """Compare one job's stdout and files with a recorded job."""
    if ref["argv"] != argv:
        return [f"job inputs {argv} differ from the recorded {ref['argv']}"]
    problems = compare_text("stdout", ref["stdout"], stdout)
    for fname, text in ref["files"].items():
        if fname not in files:
            problems.append(f"missing {fname}")
        else:
            problems += compare_text(fname, text, files[fname])
    return problems


def check_job(workload: str, argv: list[str], stdout: str, files: dict[str, str],
              golden: dict | None = None) -> list[str]:
    """All problems with one job's outputs; an empty list means it passed."""
    try:
        problems = CHECKS[workload](argv, stdout, files)
    except (ValueError, IndexError, KeyError) as exc:
        problems = [f"output unreadable: {exc!r}"]
    if golden is not None:
        problems += compare_golden(golden, argv, stdout, files)
    return problems
