import json
import os
import subprocess
import sys
import warnings

import pytest

import qprobe
from qprobe.cli import MAX_EVOLVE_SAMPLES, MAX_SWEEP_POINTS, _sweep_grid, fmt, main
from qprobe.dynamics import MAX_NMAX, MIN_SAMPLE_GAP, ModelConfig, ModelVariant, NoiseConfig
from qprobe.protocols import MAX_QND_CYCLES, MAX_SHOTS, run_probe_cycle


def run(args):
    return main([str(a) for a in args])


class TestMeasuresCommand:
    def test_singlet(self, capsys):
        assert run(["measures", "--x", "1"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["concurrence"]) == pytest.approx(1.0)
        assert float(values["discord"]) == pytest.approx(1.0, abs=1e-6)
        assert float(values["classical"]) == pytest.approx(1.0, abs=1e-6)
        assert float(values["classical_eq20"]) == pytest.approx(0.0, abs=1e-9)

    def test_separable_point(self, capsys):
        assert run(["measures", "--x", "0.666667"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["concurrence"]) == pytest.approx(0.0, abs=1e-5)
        assert float(values["discord"]) == pytest.approx(0.0, abs=1e-4)
        assert float(values["classical"]) == pytest.approx(0.2516, abs=1e-3)

    def test_domain_validation_exit_code(self, capsys):
        assert run(["measures", "--x", "0.3"]) == 2
        assert "family domain" in capsys.readouterr().err

    def test_missing_x(self, capsys):
        assert run(["measures"]) == 2

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run(["measures", "--x", "0.75", "--out", out]) == 0
        data = json.loads(out.read_text())
        assert data["concurrence"] == pytest.approx(0.25, abs=1e-9)


class TestSweepCommand:
    def test_noiseless_schema_and_rows(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--x-step", "0.05", "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,concurrence,mutual_info,classical,discord,classical_eq20,sigma_z"
        assert len(lines) == 1 + 11
        row = dict(zip(lines[0].split(","), lines[6].split(",")))
        assert float(row["x"]) == pytest.approx(0.75)
        assert float(row["concurrence"]) == pytest.approx(0.25, abs=1e-9)
        assert float(row["sigma_z"]) == pytest.approx(0.0, abs=1e-12)

    def test_noisy_schema(self, tmp_path, capsys):
        out = tmp_path / "sn.csv"
        assert run(["sweep", "--x-step", "0.25", "--gamma", "0.1", "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == [
            "x", "concurrence", "mutual_info", "classical", "discord",
            "classical_eq20", "sigma_z",
            "concurrence_noisy", "mutual_info_noisy", "classical_noisy",
            "discord_noisy", "classical_eq20_noisy", "sigma_z_noisy",
        ]
        for line in lines[1:]:
            row = dict(zip(header, (float(v) for v in line.split(","))))
            assert row["concurrence_noisy"] <= row["concurrence"] + 1e-12

    def test_byte_determinism(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["sweep", "--x-step", "0.1", "--gamma", "0.1", "--out", a]) == 0
        assert run(["sweep", "--x-step", "0.1", "--gamma", "0.1", "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_validation(self, capsys):
        assert run(["sweep", "--x-step", "0"]) == 2
        assert run(["sweep", "--x-start", "0.4"]) == 2

    def test_unwritable_path_exit_code(self, capsys):
        assert run(["sweep", "--x-step", "0.5", "--out", "/nonexistent/d/s.csv"]) == 3


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"x": 0.6, "out": str(tmp_path / "ignored.json")}))
        out = tmp_path / "m.json"
        assert run(["measures", "--config", cfg, "--x", "0.75", "--out", out]) == 0
        assert json.loads(out.read_text())["x"] == pytest.approx(0.75)

    def test_config_supplies_missing_values(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"x": 0.75}))
        assert run(["measures", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "x = 0.75" in out

    def test_bad_json_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert run(["measures", "--config", cfg, "--x", "0.75"]) == 2

    def test_missing_config_is_io_error(self, capsys):
        assert run(["measures", "--config", "/no/such/file.json", "--x", "0.75"]) == 3


class TestEvolveCommand:
    def test_time_series(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert run([
            "evolve", "--x", "0.75", "--t-end", "1.5707963267948966",
            "--samples", "5", "--out", out,
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,concurrence,mutual_info,sigma_z,p_excited,dist_to_initial"
        assert len(lines) == 6
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1] == pytest.approx(0.25, abs=1e-6)  # revived concurrence
        assert last[3] == pytest.approx(0.0, abs=1e-6)   # sigma_z at t1


class TestProbeCommand:
    def test_exact_readout(self, capsys):
        assert run(["probe", "--x", "0.75"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["mean_sigma_z"]) == pytest.approx(0.0, abs=1e-9)
        assert float(values["x_hat"]) == pytest.approx(0.75)
        assert values["state_restored"] == "false"

    def test_sampled_readout(self, capsys):
        assert run(["probe", "--x", "0.75", "--shots", "2000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert abs(float(values["x_hat_sampled"]) - 0.75) < 0.05


class TestQndCommand:
    def test_exact_run_with_report(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        assert run([
            "qnd", "--x", "0.75", "--cycles", "3", "--shots", "0",
            "--report-tm", "--out", out,
        ]) == 0
        text = capsys.readouterr().out
        values = dict(line.split(" = ") for line in text.strip().splitlines())
        assert float(values["x_hat"]) == pytest.approx(0.75, abs=1e-9)
        assert float(values["restoration_distance"]) <= 1e-9
        assert float(values["transfer_fidelity"]) >= 1 - 1e-9
        assert float(values["candidate_fidelity"]) < 1 - 1e-3
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "cycle,stage,prep,duration,p_excited,shots,count_excited"
        assert len(lines) == 1 + 6

    def test_seeded_ci_contains_truth(self, capsys):
        assert run([
            "qnd", "--x", "0.75", "--cycles", "2", "--shots", "10000", "--seed", "7",
        ]) == 0
        values = dict(
            line.split(" = ") for line in capsys.readouterr().out.strip().splitlines()
        )
        lo = float(values["ci99"].strip("[]").split(",")[0])
        hi = float(values["ci99"].strip("[]").split(",")[1])
        assert lo <= 0.75 <= hi


class TestPlotCommand:
    def _sweep(self, tmp_path):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--x-step", "0.1", "--out", out]) == 0
        return out

    def test_renders_polylines(self, tmp_path, capsys):
        csv = self._sweep(tmp_path)
        svg = tmp_path / "p.svg"
        assert run([
            "plot", "--csv", csv, "--columns", "discord,classical", "--out", svg,
        ]) == 0
        text = svg.read_text()
        assert text.count("<polyline") == 2
        assert "discord" in text and "classical" in text
        assert text.startswith("<?xml")

    def test_byte_deterministic(self, tmp_path, capsys):
        csv = self._sweep(tmp_path)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert run(["plot", "--csv", csv, "--columns", "concurrence", "--out", a]) == 0
        assert run(["plot", "--csv", csv, "--columns", "concurrence", "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_column_exit_code(self, tmp_path, capsys):
        csv = self._sweep(tmp_path)
        assert run(["plot", "--csv", csv, "--columns", "nope", "--out",
                    tmp_path / "x.svg"]) == 4
        assert "nope" in capsys.readouterr().err

    def test_empty_csv_exit_code(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("x,concurrence\n")
        assert run(["plot", "--csv", empty, "--columns", "x", "--out",
                    tmp_path / "x.svg"]) == 4


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_bad_flag_value(self, capsys):
        assert run(["measures", "--x", "abc"]) == 2


class TestInputValidation:
    @pytest.mark.parametrize("args", [
        ["probe", "--x", "0.75", "--g", "inf"],
        ["probe", "--x", "0.75", "--g", "nan"],
        ["probe", "--x", "0.75", "--g", "0"],
        ["probe", "--x", "0.75", "--model", "secii-boson", "--nmax", "0"],
        ["qnd", "--x", "0.75", "--delta", "inf"],
        ["sweep", "--x-step", "0.25", "--gamma", "nan"],
        ["evolve", "--x", "0.75", "--gamma", "nan"],
    ])
    def test_non_finite_physics_inputs(self, args, tmp_path, capsys):
        assert run([*args, "--out", tmp_path / "out"]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_grid_size_bounded(self, capsys):
        assert run(["sweep", "--x-step", "1e-12"]) == 2
        assert str(MAX_SWEEP_POINTS) in capsys.readouterr().err

    def test_evolve_samples_bounded(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert run(["evolve", "--x", "0.75", "--samples", "1000000000000",
                    "--out", out]) == 2
        assert str(MAX_EVOLVE_SAMPLES) in capsys.readouterr().err
        assert not out.exists()

    def test_boson_truncation_bounded(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert run(["evolve", "--x", "0.7", "--model", "secii-boson", "--nmax", "1000",
                    "--out", out]) == 2
        assert str(MAX_NMAX) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--t-end", "nan"],
        ["--t-end", "inf"],
        ["--dt", "inf"],
        ["--dt", "nan"],
        ["--dt", "0"],
        ["--dt", "1e-300"],
    ], ids=" ".join)
    def test_evolve_times_validated(self, args, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert run(["evolve", "--x", "0.75", *args, "--out", out]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""
        assert not out.exists()

    def test_evolve_dt_above_every_sample_gap_checked(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert run(["evolve", "--x", "0.75", "--gamma", "0.1", "--t-end", "1",
                    "--samples", "3", "--dt", "0.6", "--out", out]) == 2
        assert "half-step" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_negative_shots(self, capsys):
        assert run(["probe", "--x", "0.75", "--shots", "-5"]) == 2
        captured = capsys.readouterr()
        assert "shots" in captured.err and captured.out == ""

    @pytest.mark.parametrize("dt", ["-1", "nan", "0"])
    def test_noiseless_sweep_dt_validated(self, dt, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--x-step", "0.25", "--dt", dt, "--out", out]) == 2
        captured = capsys.readouterr()
        assert "dt" in captured.err and captured.out == ""
        assert not out.exists()

    def test_probe_sample_gap_below_floor_rejected(self, capsys):
        # the readout time pi / (2 g) is 1.6e-13 here: no RK4 step would run
        assert run(["probe", "--x", "0.75", "--gamma", "0.1", "--g", "1e13"]) == 2
        captured = capsys.readouterr()
        assert str(MIN_SAMPLE_GAP) in captured.err and captured.out == ""

    @pytest.mark.parametrize("gamma", ["1e200", "1.7e308"])
    def test_probe_overflowing_rate_fails_half_step_check(self, gamma, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["probe", "--x", "0.75", "--gamma", gamma]) == 2
        captured = capsys.readouterr()
        assert "half-step" in captured.err and "Warning" not in captured.err
        assert captured.out == ""

    def test_probe_shots_bounded(self, capsys):
        assert run(["probe", "--x", "0.75", "--shots", "1000000000000"]) == 2
        captured = capsys.readouterr()
        assert str(MAX_SHOTS) in captured.err and captured.out == ""

    @pytest.mark.parametrize("args, cap", [
        (["--cycles", "100000000"], MAX_QND_CYCLES),
        # the default three cycles are six stages: 3.6e9 shots in all
        (["--shots", "600000000"], MAX_SHOTS),
    ])
    def test_qnd_work_bounded(self, args, cap, capsys):
        assert run(["qnd", "--x", "0.75", *args]) == 2
        captured = capsys.readouterr()
        assert str(cap) in captured.err and captured.out == ""

    def test_sweep_grid_bound_is_inclusive(self):
        grid = _sweep_grid(0.5, 1.0, 0.5 / (MAX_SWEEP_POINTS - 1))
        assert len(grid) == MAX_SWEEP_POINTS


class TestNoisySweepRow:
    def test_dt_reaches_integrator(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--x-start", "0.75", "--x-stop", "0.75",
                    "--gamma", "0.1", "--dt", "0.5", "--out", out]) == 2
        assert "half-step" in capsys.readouterr().err

    def test_row_is_one_probe_cycle(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run(["sweep", "--x-start", "0.75", "--x-stop", "0.75",
                    "--gamma", "0.1", "--out", out]) == 0
        row = out.read_text().splitlines()[1].split(",")
        cycle = run_probe_cycle(0.75, ModelConfig(ModelVariant.RESONANT_QUBIT), 1,
                                NoiseConfig(gamma=0.1))
        names = ("concurrence", "mutual_info", "classical", "discord",
                 "classical_closed_form")
        expected = [
            0.75, *(getattr(cycle.measures_before, n) for n in names), 0.0,
            *(getattr(cycle.measures_after, n) for n in names), cycle.mean_sigma_z,
        ]
        assert row == [fmt(v) for v in expected]


def test_cli_import_leaves_out_scipy():
    # the optimizer fallback imports scipy.optimize on first use only
    src = os.path.dirname(os.path.dirname(qprobe.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, qprobe.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
