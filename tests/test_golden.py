"""Golden CLI outputs: each command's exit code, stdout, stderr and written files, byte for byte.

COMMANDS run in order, in one process and one directory, so a command may
read what an earlier one wrote.  A file that a command creates or rewrites
is one of its outputs; above PIN_ABOVE bytes it is kept as its SHA-256, line
count and first and last lines.  ``PYTHONPATH=src python tests/record_golden.py``
records golden/outputs.json again and prints every changed cell.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

import qprobe
from qprobe import measures
from qprobe.cli import build_parser, main, merged_options
from qprobe.protocols import derive_seed, sample_shots
from qprobe.qcore import DensityMatrix
from qprobe.states import one_param_density

GOLDEN = Path(__file__).with_name("golden") / "outputs.json"
PIN_ABOVE = 64 * 1024

_README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
_GRID = "--x-start 0.6666666666666666 --x-stop 1 --x-step 0.0833333333333334"
#: qprobe command lines in run order, the README's first; those that exit 2 write nothing
COMMANDS = [
    *(line[len("qprobe "):] for line in _README.split("## CLI", 1)[1].split("```")[1]
      .splitlines() if line.startswith("qprobe ")),
    "evolve --x 1 --gamma 0.5 --t-end 100 --samples 11",  # p_excited once printed -6.5e-17
    "sweep --out noiseless.csv",
    "sweep --gamma 0.1 --model secii-boson --emit-svg --out boson-0.01.csv",
    *(f"sweep --gamma 0.1 --model {m} --x-step 0.001 --out {m}-0.001.csv"
      for m in ("secii-qubit", "secii-boson")),
    f"sweep --gamma 0.1 {_GRID} --out grid.csv",
    f"sweep --model secii-boson --gamma 0.1 {_GRID} --out b.csv",
    "sweep --gamma 0.5 --x-step 0.05 --out gamma0.5.csv",
    "sweep --gamma 0.1 --out noisy.csv",
    "sweep --gamma 0.1 --model secii-boson --x-step 0.05 --emit-svg --out boson.csv",
    "sweep --gamma 500 --x-step 0.25 --out stiff.csv",
    "sweep --gamma 0.1 --x-start 0.75 --x-stop 0.75 --out one.csv",
    "sweep --x-step 0.25 --emit-svg --out out.d/sweep",
    *(f"evolve --x 0.75 --model {m} --gamma 0.1 --samples 41 --out {m.split()[0]}.csv"
      for m in ("secii-qubit", "secii-boson", "seciii-eff --delta 10")),
    "evolve --x 0.75 --model seciii-full --delta 10 --gamma 0.1 --t-end 1 --out full.csv",
    "evolve --x 0.75 --model seciii-full --delta 10 --gamma 0.1 --samples 2001 --out big.csv",
    "evolve --x 0.75 --model secii-boson --gamma 0.1 --t-end 100 --samples 10001 --out long.csv",
    "evolve --x 0.75 --gamma 0.1 --t-end 10000 --samples 10001 --out longest.csv",
    "evolve --x 0.75 --gamma 1e6 --t-end 1 --out drift.csv",
    "evolve --x 0.75 --t-end 1 --samples 2 --out t0.csv",
    "evolve --x 0.75 --model secii-qubit --delta 10 --out d.csv",
    *(f"probe --x {x}{g}{m} --shots 10000 --seed 3" for x in ("0.75", "1", "0.6666666666666666")
      for g in ("", " --gamma 0.1") for m in ("", " --model secii-boson")),
    *(f"probe --x {x} --n {n}{m}" for x, n in (("1", 3), ("0.9", 999999))
      for m in ("", " --model secii-boson")),
    "probe --x 0.75 --model secii-boson",
    "probe --x 0.75 --gamma 0.1",
    "qnd --x 0.83 --cycles 3 --shots 1000000 --seed 12345 --report-tm --out qnd-tm.csv",
    "qnd --x 0.6 --cycles 129 --shots 1000 --delta 7.3",
    *(f"qnd --x 0.75 --cycles {n} --shots -1" for n in (3, 10000)),
    "qnd --x 0.75 --cycles 3 --shots 1000000 --seed 5 --report-tm --out qnd.csv",
    "qnd --x 0.7 --cycles 2 --shots 100000 --seed 3 --out qnd.csv",
    "qnd --x 0.75 --cycles 10000 --out exact.csv",
    *(f"{c} --help" for c in ("measures", "sweep", "evolve", "probe", "qnd", "plot")),
    "plot --csv markup.csv --columns a<b --out markup.svg",
    "plot --csv flat.csv --columns y --out flat.svg",  # 1e17 + 1.0 rounds back to 1e17
]
#: files written before a command runs, by its command line
INPUTS = {
    "sweep --x-step 0.25 --emit-svg --out out.d/sweep": {"out.d/.keep": ""},
    "plot --csv markup.csv --columns a<b --out markup.svg": {"markup.csv": "x&y,a<b\n0.5,1\n0.6,2\n"},
    "plot --csv flat.csv --columns y --out flat.svg": {"flat.csv": "x,y\n0.5,1e17\n0.6,1e17\n"},
}


def _files() -> dict:
    return {p.as_posix(): p.read_bytes() for p in Path().rglob("*") if p.is_file()}


def _kept(data: bytes):
    if len(data) <= PIN_ABOVE:
        return data.decode().split("\n")
    lines = data.decode().splitlines()
    return {"sha256": hashlib.sha256(data).hexdigest(), "lines": len(lines),
            "first": lines[0], "last": lines[-1]}


def run_here(workdir) -> dict:
    """Each command's exit code, stdout, stderr and written files, from COMMANDS run here."""
    os.chdir(workdir)
    records = {}
    for line in COMMANDS:
        for name, text in INPUTS.get(line, {}).items():
            Path(name).parent.mkdir(exist_ok=True)
            Path(name).write_text(text)
        before, out, err = _files(), io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(shlex.split(line))
        records[line] = {"exit": code, "stdout": out.getvalue().split("\n"),
                         "stderr": err.getvalue().split("\n"),
                         "files": {name: _kept(data) for name, data in _files().items()
                                   if before.get(name) != data}}
    return records


def run_commands(workdir) -> dict:
    """``run_here`` in a child process without scipy, on OpenBLAS's Haswell kernels.

    OpenBLAS picks its kernels by CPU, and kernels round differently (12th
    digits and rounding-level cells move); every x86-64 CPU with AVX2 runs
    the Haswell ones.  argparse wraps --help to COLUMNS.
    """
    code = ("import json, sys; sys.modules['scipy'] = None; sys.path.insert(0, sys.argv[1]); "
            "import test_golden; print(json.dumps(test_golden.run_here(sys.argv[2])))")
    env = {**os.environ, "PYTHONPATH": str(Path(qprobe.__file__).resolve().parents[1]),
           "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1", "COLUMNS": "80"}
    proc = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent), str(workdir)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("golden"))


def test_outputs_are_golden(records):
    # a deliberate change is recorded again by tests/record_golden.py, which lists its cells
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [line for line in {**golden, **records} if records.get(line) != golden.get(line)] == []


def _out(records, line, name=None):
    """A command's printed values, or the rows of the CSV it wrote to ``name``."""
    if name is None:
        return dict(text.split(" = ") for text in records[line]["stdout"] if text)
    return list(csv.DictReader(records[line]["files"][name][:-1]))


def test_one_row_noisy_sweep_prints_the_noisy_probe(records):
    # both run run_probe_cycles: the row's noisy cells are the probe's values after the cycle
    [row] = _out(records, "sweep --gamma 0.1 --x-start 0.75 --x-stop 0.75 --out one.csv", "one.csv")
    probe = _out(records, "probe --x 0.75 --gamma 0.1")
    for name in ("concurrence", "mutual_info", "classical", "discord"):
        assert row[f"{name}_noisy"] == probe[f"{name}_after"], name
    assert row["sigma_z_noisy"] == probe["mean_sigma_z"]


def test_measures_print_the_first_evolve_row(records):
    # one concurrence and one mutual-information kernel serve both
    measured = _out(records, "measures --x 0.75")
    row = _out(records, "evolve --x 0.75 --t-end 1 --samples 2 --out t0.csv", "t0.csv")[0]
    assert (row["t"], row["concurrence"], row["mutual_info"]) == (
        "0", measured["concurrence"], measured["mutual_info"])


def test_qnd_counts_are_the_sampler_draws(records):
    # each stage draws from its own substream: a row's count is recomputed from the row
    for line in [line for line in COMMANDS if line.startswith("qnd ") and "--out" in line]:
        opts = merged_options(build_parser().parse_args(shlex.split(line)))
        if isinstance(records[line]["files"][opts["out"]], list):  # not pinned by its hash
            for i, row in enumerate(_out(records, line, opts["out"])):
                draw = sample_shots(float(row["p_excited"]), int(row["shots"]),
                                    derive_seed(opts["seed"], i))
                assert int(row["count_excited"]) == draw.count_excited, (line, i)


def test_every_svg_parses(records):
    svgs = [kept for record in records.values()
            for name, kept in record["files"].items() if name.endswith(".svg")]
    assert svgs
    for kept in svgs:
        xml.dom.minidom.parseString("\n".join(kept))


def test_measures_refuse_a_state_off_the_x():
    family = one_param_density(0.75)
    mat = 0.9 * family.mat + 0.025 * np.eye(4)
    mat[0, 1] = mat[1, 0] = 0.01  # |00><01| joins excitation sectors
    for measure in (measures.classical_correlation_closed_form,
                    measures.classical_correlation_optimized, measures.correlation_report):
        with pytest.raises(ValueError, match=r"entry \(0, 1\)"):
            measure(DensityMatrix(family.space, mat))
