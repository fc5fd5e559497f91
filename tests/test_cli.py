import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qprobe
from qprobe import measures, protocols
from qprobe.cli import (
    _COMMANDS,
    MAX_EVOLVE_SAMPLES,
    MAX_SWEEP_POINTS,
    _sweep_grid,
    _sweep_rows,
    _write_csv,
    fmt,
    main,
)
from qprobe.dynamics import (
    MIN_DISPERSIVE_DELTA,
    MIN_SAMPLE_GAP,
    ModelConfig,
    ModelVariant,
    NoiseConfig,
    build_hamiltonian,
    initial_joint,
    integrate_master,
    reachable_entries,
    sigma_z_stack,
)
from qprobe.measures import concurrence, mutual_information
from qprobe.protocols import (
    MAX_HALF_PERIODS,
    MAX_QND_CYCLES,
    MAX_SHOTS,
    boson_pair_to_qubits,
    run_probe_cycle,
)
from qprobe.qcore import partial_trace, trace_distance
from qprobe.states import ProbePrep, one_param_density
from test_measures import wootters_concurrence


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

    def test_noiseless_grid_checks_one_family_stack(self, tmp_path, monkeypatch, capsys):
        # the 51 family states are checked as one stack, not one by one
        check, shapes = qprobe.qcore.check_density_stack, []

        def counted(mats):
            shapes.append(mats.shape)
            return check(mats)

        for name, module in list(sys.modules.items()):
            if name.startswith("qprobe") and getattr(module, "check_density_stack",
                                                      None) is check:
                monkeypatch.setattr(module, "check_density_stack", counted)
        assert run(["sweep", "--out", tmp_path / "s.csv"]) == 0
        assert shapes == [(51, 4, 4)]

    def test_grid_validation(self, capsys):
        assert run(["sweep", "--x-step", "0"]) == 2
        assert run(["sweep", "--x-start", "0.4"]) == 2

    def test_unwritable_path_exit_code(self, capsys):
        assert run(["sweep", "--x-step", "0.5", "--out", "/nonexistent/d/s.csv"]) == 3

    def test_grid_ends_on_stop(self):
        # the 1e-9 slack once admitted a last point at 1.00000000005, or 0.80000000003
        grid = _sweep_grid(0.5, 1.0, 0.10000000001)
        assert len(grid) == 6 and grid[-1] == 1.0
        assert _sweep_grid(0.5, 0.8, 0.10000000001)[-1] == 0.8

    def test_grid_past_stop_runs_to_stop(self, tmp_path, capsys):
        # this grid once exited 2 with "x out of family domain"
        out = tmp_path / "s.csv"
        assert run(["sweep", "--x-step", "0.10000000001", "--out", out]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 6 and rows[-1].startswith("1,1,2,")

    def test_reversed_grid_is_named(self, capsys):
        # both ends lie in [0.5, 1]: the message once said they did not
        assert run(["sweep", "--x-start", "0.9", "--x-stop", "0.6"]) == 2
        captured = capsys.readouterr()
        assert "start 0.9 exceeds its stop 0.6" in captured.err and captured.out == ""

    def test_svg_lands_next_to_the_csv(self, tmp_path, monkeypatch, capsys):
        # the SVG path was once cut at the first dot: out.d/sweep drew ./out.svg
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.d").mkdir()
        assert run(["sweep", "--x-step", "0.25", "--out", "out.d/sweep", "--emit-svg"]) == 0
        assert capsys.readouterr().out.endswith("wrote out.d/sweep.svg\n")
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "out.d", "out.d/sweep", "out.d/sweep.svg"]

    def test_svg_path_equal_to_out_refused_before_any_row(self, tmp_path, monkeypatch,
                                                          capsys):
        # the SVG once overwrote the CSV that had just been reported written
        def no_row(*args):
            raise AssertionError("a row was computed")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("qprobe.cli._sweep_rows", no_row)
        assert run(["sweep", "--x-step", "0.25", "--out", "s.svg", "--emit-svg"]) == 2
        captured = capsys.readouterr()
        assert "--emit-svg would overwrite" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []


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

    @pytest.mark.parametrize("key", ["gama", "g"])
    def test_unknown_config_key_rejected(self, key, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"x": 0.75, key: 0.1}))
        assert run(["probe", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert repr(key) in captured.err and captured.out == ""


    @pytest.mark.parametrize("command, config, key", [
        # a string is no switch: "false" once turned the SVG on
        ("sweep", {"x_start": 0.75, "x_stop": 0.75, "emit_svg": "false"}, "emit_svg"),
        # 2.7 once drew 2 shots
        ("probe", {"x": 0.75, "shots": 2.7}, "shots"),
        ("probe", {"x": 0.75, "seed": True}, "seed"),
        # true once ran at x = 1
        ("probe", {"x": True}, "x"),
        ("probe", {"x": 0.75, "model": "secii"}, "model"),
        ("probe", {"x": 0.75, "out": None}, "out"),
    ])
    def test_mistyped_config_value_rejected(self, command, config, key, tmp_path,
                                            monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert run([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert repr(key) in captured.err and captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_config_values_convert_as_flags_do(self, tmp_path, capsys):
        # JSON numbers and numeric strings read like the same flag text
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"x": "0.75", "shots": 10, "seed": 3, "gamma": 0}))
        assert run(["probe", "--config", cfg]) == 0
        from_config = capsys.readouterr().out
        assert run(["probe", "--x", "0.75", "--shots", "10", "--seed", "3",
                    "--gamma", "0"]) == 0
        assert capsys.readouterr().out == from_config


class TestParserReuse:
    # main reuses one parser: nothing a call parses may reach the next call
    def test_emit_svg_does_not_stick(self, tmp_path, capsys):
        grid = ["--x-start", "0.75", "--x-stop", "0.75"]
        assert run(["sweep", *grid, "--emit-svg", "--out", tmp_path / "a.csv"]) == 0
        assert run(["sweep", *grid, "--out", tmp_path / "b.csv"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "a.svg", "b.csv"]

    def test_config_does_not_stick(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"x": 0.6}))
        assert run(["measures", "--config", cfg]) == 0
        assert "x = 0.6" in capsys.readouterr().out
        assert run(["measures"]) == 2
        assert "missing required parameter x" in capsys.readouterr().err


SUBCOMMANDS = ("measures", "sweep", "evolve", "probe", "qnd", "plot")


def help_options(command: str) -> dict[str, str]:
    """Each flag that ``command --help`` lists, with its help text, whitespace collapsed."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([command, "--help"]) == 0
    text = " ".join(out.getvalue().split()).split("show this help message and exit", 1)[1]
    return dict(re.findall(r"(--[a-z-]+)(.*?)(?= --[a-z]|$)", text))


class TestOneTable:
    # each subcommand's flags, the defaults its --help states and its
    # --config keys all come from one declaration

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_lists_exactly_the_config_keys(self, command, tmp_path, capsys):
        listed = {f[2:].replace("-", "_") for f in help_options(command)} - {"config"}
        every_key = {f[2:].replace("-", "_") for c in SUBCOMMANDS for f in help_options(c)}
        cfg = tmp_path / "c.json"
        for key in sorted(every_key | {"dt", "nmax", "gama"}):
            # no option takes a list, so a key it has is refused for its value
            cfg.write_text(json.dumps({key: []}))
            assert run([command, "--config", cfg]) == 2
            err = capsys.readouterr().err
            accepted = f"config key {key!r} has an invalid value" in err
            assert accepted or f"config key {key!r} is not an option" in err
            assert accepted == (key in listed), key

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_states_every_default(self, command):
        options = help_options(command)
        defaults = _COMMANDS[command][2]
        assert sorted(options) == sorted(["--config", *(f"--{k.replace('_', '-')}"
                                                        for k in defaults)])
        for key, default in defaults.items():
            text = options[f"--{key.replace('_', '-')}"]
            if default is None or default is False:
                assert "(default" not in text, key
            else:
                assert text.endswith(f"(default {default})"), (key, text)

    def test_named_defaults(self):
        assert help_options("qnd")["--seed"].endswith("(default 7)")
        assert help_options("probe")["--seed"].endswith("(default 0)")
        for command in ("sweep", "evolve", "probe"):
            assert help_options(command)["--gamma"].endswith("(default 0.0)")
        assert help_options("sweep")["--model"].startswith(" {secii-boson,secii-qubit} ")


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


    @pytest.mark.parametrize("args", [
        ["--model", "secii-boson", "--gamma", "0.1", "--x", "0.5"],
        ["--model", "secii-boson", "--gamma", "0.1", "--x", "0.8"],
        ["--model", "seciii-full", "--delta", "10", "--x", "0.6"],
    ], ids=["secii-boson-0.5", "secii-boson-0.8", "seciii-full"])
    def test_rows_match_per_sample_library_path(self, args, tmp_path, capsys):
        # the CLI reduces and measures all samples as stacks; each row must
        # print what each dense joint state gives, one sample at a time
        out = tmp_path / "e.csv"
        assert run(["evolve", *args, "--out", out]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        opts = dict(zip(args[::2], args[1::2]))
        cfg = ModelConfig(
            ModelVariant.RESONANT_BOSON if opts["--model"] == "secii-boson"
            else ModelVariant.DISPERSIVE_FULL,
            delta=float(opts["--delta"]) if "--delta" in opts else None,
        )
        x = float(opts["--x"])
        res = integrate_master(
            initial_joint(x, cfg, ProbePrep.GROUND), cfg,
            NoiseConfig(gamma=float(opts.get("--gamma", 0.0))), 10.0,
            sample_times=np.linspace(0.0, 10.0, 201),
        )
        rho0 = one_param_density(x)
        assert len(rows) == len(res.times) == 201
        for row, t, joint in zip(rows, res.times, res.joint_states):
            ab, probe = partial_trace(joint, {0, 1}), partial_trace(joint, {2})
            if cfg.variant is ModelVariant.RESONANT_BOSON:
                ab = boson_pair_to_qubits(ab)
            expect = (t, concurrence(ab), mutual_information(ab),
                      sigma_z_stack(probe.mat[None])[0], probe.mat[0, 0].real,
                      trace_distance(ab.mat, rho0.mat))
            assert row == [fmt(v) for v in expect]
            # Wootters' square-root route loses up to 5.3e-9 at rank-deficient states
            assert float(row[1]) == pytest.approx(wootters_concurrence(ab.mat), abs=1e-8)

    def test_family_state_built_once(self, tmp_path, monkeypatch, capsys):
        # the pair of the initial joint state is the reference of dist_to_initial
        calls = []

        def counted(x):
            calls.append(x)
            return one_param_density(x)

        monkeypatch.setattr(qprobe.cli, "one_param_density", counted)
        monkeypatch.setattr(qprobe.dynamics, "one_param_density", counted)
        assert run(["evolve", "--x", "0.75", "--model", "secii-boson", "--gamma", "0.1",
                    "--samples", "3", "--out", tmp_path / "e.csv"]) == 0
        assert calls == [0.75]


class TestWriteCsv:
    def test_cells_as_fmt_and_str_write_them(self, tmp_path):
        rows = [(0.1, np.float64(1 / 3), 2, "ground", True),
                (-0.0, float("nan"), np.int64(-5), "x%sy", np.float64(1e-300)),
                (float("inf"), 12345678901234.5, 0, "", None)]
        path = tmp_path / "t.csv"
        _write_csv(path, ["a", "b", "c", "d", "e"], rows)
        expect = ["a,b,c,d,e"] + [",".join(fmt(v) if isinstance(v, float) else str(v)
                                           for v in row) for row in rows]
        assert path.read_bytes() == ("\n".join(expect) + "\n").encode()


class TestProbeCommand:
    def test_exact_readout(self, capsys):
        assert run(["probe", "--x", "0.75"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert float(values["mean_sigma_z"]) == pytest.approx(0.0, abs=1e-9)
        assert float(values["x_hat"]) == pytest.approx(0.75)
        assert values["state_restored"] == "false"

    def test_separable_point_reads_zero_concurrence(self, capsys):
        # the concurrence comes from the inverted state, so the rounding of
        # <sigma_z> does not leave a 5.6e-17 residue at x = 2/3
        assert run(["probe", "--x", "0.6666666666666666"]) == 0
        out = capsys.readouterr().out
        assert "concurrence_hat = 0\n" in out

    def test_sampled_readout(self, capsys):
        assert run(["probe", "--x", "0.75", "--shots", "2000", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.strip().splitlines())
        assert abs(float(values["x_hat_sampled"]) - 0.75) < 0.05

    @pytest.mark.parametrize("model", ["secii-qubit", "secii-boson"])
    def test_correlations_untouched_to_the_last_digit(self, model, capsys):
        # the post state is the exact X state: concurrence once read 0.99999999
        assert run(["probe", "--x", "1", "--n", "3", "--model", model]) == 0
        assert "concurrence_after = 1" in capsys.readouterr().out.splitlines()


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

    def test_markup_in_the_header_is_escaped(self, tmp_path, capsys):
        # such a header once gave an SVG that no XML parser accepts, and exit 0
        csv = tmp_path / "c.csv"
        csv.write_text("x&y,a<b,c>d\n0.5,1,2\n0.6,3,4\n")
        svg = tmp_path / "p.svg"
        assert run(["plot", "--csv", csv, "--columns", "a<b,c>d", "--out", svg]) == 0
        texts = xml.dom.minidom.parse(str(svg)).getElementsByTagName("text")
        labels = [t.firstChild.data for t in texts]
        assert "x&y" in labels and "a<b" in labels and "c>d" in labels

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

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_non_finite_cell_exit_code(self, cell, tmp_path, capsys):
        # such a cell once gave points="72.00,nan ..." and exit 0
        csv = tmp_path / "c.csv"
        csv.write_text(f"x,y\n0.5,1\n0.6,{cell}\n")
        svg = tmp_path / "p.svg"
        assert run(["plot", "--csv", csv, "--columns", "y", "--out", svg]) == 4
        assert "non-finite" in capsys.readouterr().err
        assert not svg.exists()

    @pytest.mark.parametrize("rows", [
        "0.5,-1e308\n0.6,1e308",  # the range itself overflows
        "0.5,0\n0.6,1e308",  # the range is finite, a coordinate is not
        "-1e308,0\n1e308,1",
    ], ids=["y-range", "y-coordinate", "x-range"])
    def test_overflowing_axis_span_exit_code(self, rows, tmp_path, capsys):
        csv = tmp_path / "c.csv"
        csv.write_text(f"x,y\n{rows}\n")
        svg = tmp_path / "p.svg"
        assert run(["plot", "--csv", csv, "--columns", "y", "--out", svg]) == 2
        assert "not finite" in capsys.readouterr().err
        assert not svg.exists()

    @pytest.mark.parametrize("rows", ["1e17,1\n1e17,2", "0.5,1e17\n0.6,1e17",
                                      "0.5,-1e17\n0.6,-1e17"],
                             ids=["x-constant", "y-constant", "y-negative"])
    def test_constant_beyond_two_to_the_53_is_drawn(self, rows, tmp_path):
        # 1e17 + 1.0 rounds back to 1e17: such an axis once had no span,
        # and the chart raised ZeroDivisionError (a traceback and exit 1)
        csv = tmp_path / "c.csv"
        csv.write_text(f"x,y\n{rows}\n")
        svg = tmp_path / "p.svg"
        assert run(["plot", "--csv", csv, "--columns", "y", "--out", svg]) == 0
        [line] = xml.dom.minidom.parse(str(svg)).getElementsByTagName("polyline")
        coords = [float(v) for point in line.getAttribute("points").split()
                  for v in point.split(",")]
        assert len(coords) == 4 and all(map(math.isfinite, coords))

    @pytest.mark.parametrize("rows, first, ticks", [
        ("2,1\n2,3", 0, ["2", "2.2", "2.4", "2.6", "2.8", "3"]),
        ("0.5,2\n0.6,2", 6, ["1.95", "2.17", "2.39", "2.61", "2.83", "3.05"]),
    ], ids=["x-constant", "y-constant"])
    def test_constant_below_two_to_the_53_spans_one(self, rows, first, ticks, tmp_path):
        # the constant axis runs from the constant to one above it (the
        # y axis padded by 5%), not over a span scaled by its magnitude
        csv = tmp_path / "c.csv"
        csv.write_text(f"x,y\n{rows}\n")
        svg = tmp_path / "p.svg"
        assert run(["plot", "--csv", csv, "--columns", "y", "--out", svg]) == 0
        texts = xml.dom.minidom.parse(str(svg)).getElementsByTagName("text")
        labels = [t.firstChild.data for t in texts]
        # the six x tick labels come first, then the six y tick labels
        assert labels[first:first + 6] == ticks

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

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("args", [
        ["sweep", "--model", "secii-boson"],
        ["evolve", "--x", "0.75", "--model", "secii-boson"],
        ["probe", "--x", "0.75", "--model", "secii-boson"],
    ], ids=["sweep", "evolve", "probe"])
    def test_boson_truncation_is_not_an_option(self, args, via, tmp_path, capsys):
        # three Fock levels per mode are exact, so there is no truncation to set
        out = tmp_path / "out"
        if via == "flag":
            extra, message = ["--nmax", "2"], "unrecognized arguments"
        else:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"nmax": 2}))
            extra, message = ["--config", cfg], "'nmax'"
        assert run([*args, *extra, "--out", out]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("args, model", [
        (["sweep", "--x-step", "0.25"], "seciii-eff"),
        (["probe", "--x", "0.75"], "seciii-full"),
    ], ids=["sweep", "probe"])
    def test_readout_commands_take_only_resonant_models(self, args, model, via, tmp_path,
                                                        capsys):
        # both once exited with "dispersive variants need a positive detuning",
        # which asks for a flag neither command has
        out = tmp_path / "out"
        if via == "flag":
            extra, message = ["--model", model], f"invalid choice: '{model}'"
        else:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps({"model": model}))
            extra, message = ["--config", cfg], "config key 'model' has an invalid value"
        assert run([*args, *extra, "--out", out]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "detuning" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("model, delta", [("secii-qubit", "10"), ("secii-boson", "3")])
    def test_resonant_models_refuse_a_detuning(self, model, delta, tmp_path, capsys):
        # a resonant model has no detuning: running without it would drop
        # the one asked for
        out = tmp_path / "e.csv"
        assert run(["evolve", "--x", "0.75", "--model", model, "--gamma", "0.1",
                    "--delta", delta, "--out", out]) == 2
        assert "takes no detuning" in capsys.readouterr().err
        assert not out.exists()

    def test_resonant_detuning_from_config_refused(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"delta": 10}))
        assert run(["evolve", "--x", "0.75", "--model", "secii-qubit", "--config", cfg,
                    "--out", out]) == 2
        assert "takes no detuning" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["sweep", "--x-step", "0.25"],
        ["evolve", "--x", "0.75"],
    ], ids=["sweep", "evolve"])
    def test_integration_step_is_not_a_config_key(self, args, tmp_path, capsys):
        # propagation is exact: there is no step to set
        out = tmp_path / "out"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dt": 0.001}))
        assert run([*args, "--config", cfg, "--out", out]) == 2
        captured = capsys.readouterr()
        assert "'dt'" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        pytest.param(["--t-end", "nan"], "t-end", id="--t-end nan"),
        pytest.param(["--t-end", "inf"], "t-end", id="--t-end inf"),
        # propagation has no step: --dt is refused, whatever its value
        pytest.param(["--dt", "inf"], "--dt", id="--dt inf"),
        pytest.param(["--dt", "nan"], "--dt", id="--dt nan"),
        pytest.param(["--dt", "0"], "--dt", id="--dt 0"),
        pytest.param(["--dt", "1e-300"], "--dt", id="--dt 1e-300"),
        # over the 10^4 time cap
        pytest.param(["--t-end", "1e5"], "t_end exceeds 10000", id="--t-end 1e5"),
    ])
    def test_evolve_times_validated(self, args, message, tmp_path, capsys):
        out = tmp_path / "e.csv"
        assert run(["evolve", "--x", "0.75", *args, "--out", out]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not out.exists()

    def test_probe_negative_shots(self, capsys):
        assert run(["probe", "--x", "0.75", "--shots", "-5"]) == 2
        captured = capsys.readouterr()
        assert "shots" in captured.err and captured.out == ""

    @pytest.mark.parametrize("dt", ["-1", "nan", "0"])
    def test_noiseless_sweep_dt_validated(self, dt, tmp_path, capsys):
        # sweep has no --dt: the flag is refused before any row is written
        out = tmp_path / "s.csv"
        assert run(["sweep", "--x-step", "0.25", "--dt", dt, "--out", out]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --dt" in captured.err and captured.out == ""
        assert not out.exists()

    def test_probe_sample_gap_below_floor_rejected(self, capsys):
        # the second sample sits 1e-13 after the first, inside the times' slack
        assert run(["evolve", "--x", "0.75", "--t-end", "1e-13", "--samples", "2"]) == 2
        captured = capsys.readouterr()
        assert str(MIN_SAMPLE_GAP) in captured.err and captured.out == ""

    # 1e6 stays finite, but its trace drifts past the state check's bound
    @pytest.mark.parametrize("gamma", ["1e200", "1.7e308", "1e6"])
    def test_probe_overflowing_rate_fails_half_step_check(self, gamma, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["probe", "--x", "0.75", "--gamma", gamma]) == 2
        captured = capsys.readouterr()
        assert "trace drift" in captured.err and "Warning" not in captured.err
        assert captured.out == ""

    # evolve's 201 samples are a uniform schedule: block products, then the drift check
    @pytest.mark.parametrize("gamma", ["1e200", "1.7e308", "1e6"])
    def test_evolve_overflowing_rate_fails_drift_check(self, gamma, tmp_path, capsys):
        out = tmp_path / "e.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["evolve", "--x", "0.75", "--gamma", gamma, "--t-end", "1",
                        "--out", out]) == 2
        captured = capsys.readouterr()
        assert "trace drift" in captured.err and "Warning" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("model", ["secii-qubit", "secii-boson"])
    def test_probe_half_periods_bounded(self, model, capsys):
        # far beyond the bound the readout once printed x_hat = 0.86 at x = 0.75
        args = ["probe", "--x", "0.75", "--model", model, "--n", "100000000000000000001"]
        assert run(args) == 2
        captured = capsys.readouterr()
        assert str(MAX_HALF_PERIODS) in captured.err and captured.out == ""

    def test_noisy_probe_half_periods_name_n(self, capsys):
        # 6367 half periods run past MAX_T_END; the error once named t_end,
        # which is not an option of probe
        assert run(["probe", "--x", "0.75", "--gamma", "0.1", "--n", "6367"]) == 2
        captured = capsys.readouterr()
        assert "n may not exceed 6366 half periods" in captured.err
        assert "t_end" not in captured.err and captured.out == ""

    def test_noisy_probe_runs_to_the_last_odd_half_period(self, capsys):
        assert run(["probe", "--x", "0.75", "--gamma", "0.1", "--n", "6365"]) == 0
        assert "t_read = 9998.11862005\n" in capsys.readouterr().out

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

    @pytest.mark.parametrize("delta", ["0.5", "4.999"])
    def test_qnd_detuning_outside_exchange_model(self, delta, tmp_path, capsys):
        # the exchange model is the dispersive limit; dispersive_deviation
        # refuses the same detunings
        out = tmp_path / "q.csv"
        assert main(["qnd", "--x", "0.75", "--delta", delta, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"delta >= {MIN_DISPERSIVE_DELTA:g}" in captured.err
        assert not out.exists()

    def test_sweep_grid_bound_is_inclusive(self):
        grid = _sweep_grid(0.5, 1.0, 0.5 / (MAX_SWEEP_POINTS - 1))
        assert len(grid) == MAX_SWEEP_POINTS


class TestNoisySweepRow:
    def test_stiff_rate_runs_on_any_grid(self, tmp_path):
        # at gamma 500 the probe's excitation decays within about 1e-3 of
        # pi/2; whether a row runs cannot depend on the other rows
        full, part = tmp_path / "full.csv", tmp_path / "part.csv"
        assert run(["sweep", "--gamma", "500", "--out", full]) == 0
        assert run(["sweep", "--gamma", "500", "--x-start", "0.75", "--out", part]) == 0
        full_rows = full.read_bytes().splitlines()
        part_rows = part.read_bytes().splitlines()
        assert len(full_rows) == 52 and len(part_rows) == 27
        assert part_rows[0] == full_rows[0] and part_rows[1:] == full_rows[26:]

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


    def test_eleven_rows_check_three_stacks_and_eleven_evolutions(self, tmp_path,
                                                                  monkeypatch):
        # the family, joint and post states are each checked once as a
        # stack; only the sampled evolution of each row is checked alone
        check, shapes = qprobe.qcore.check_density_stack, []

        def counted(mats):
            shapes.append(mats.shape)
            return check(mats)

        for name, module in list(sys.modules.items()):
            if name.startswith("qprobe") and getattr(module, "check_density_stack",
                                                      None) is check:
                monkeypatch.setattr(module, "check_density_stack", counted)
        assert run(["sweep", "--gamma", "0.1", "--x-start", "0.5", "--x-stop", "0.95",
                    "--x-step", "0.045", "--out", tmp_path / "s.csv"]) == 0
        assert len(shapes) == 14
        assert sorted(shapes[:2]) == [(11, 4, 4), (11, 8, 8)] and shapes[-1] == (11, 4, 4)
        assert all(n == 1 for n, _, _ in shapes[2:-1])


#: a grid through x = 2/3, which zeroes the family's coherence, ending on
#: x = 1, which zeroes its |11> population: the initial pattern changes
#: at both
PATTERN_GRID = ["--x-start", "0.5", "--x-stop", "1", "--x-step", "0.08333333333333333"]


class TestSweepSharesOneModel:
    @pytest.mark.parametrize("variant", [ModelVariant.RESONANT_QUBIT,
                                         ModelVariant.RESONANT_BOSON],
                             ids=["secii-qubit", "secii-boson"])
    def test_rows_from_one_config_equal_rows_from_fresh_configs(self, variant):
        grid = _sweep_grid(0.5, 1.0, float(PATTERN_GRID[-1]))
        assert 2 / 3 in grid and grid[-1] == 1.0
        noise = NoiseConfig(gamma=0.1)
        shared = ModelConfig(variant)
        # twice over, so the grid's last pattern meets its first again
        rows = _sweep_rows(grid + grid, shared, noise)
        fresh = [_sweep_rows([x], ModelConfig(variant), noise)[0] for x in grid]
        assert rows == fresh + fresh

    @pytest.mark.parametrize("gamma", ["0", "0.1"])
    def test_batches_leave_the_rows_as_they_are(self, tmp_path, monkeypatch, gamma):
        args = ["sweep", "--gamma", gamma, *PATTERN_GRID, "--out"]
        assert run([*args, tmp_path / "one.csv"]) == 0
        monkeypatch.setattr(qprobe.cli, "SWEEP_BATCH", 2)
        assert run([*args, tmp_path / "batched.csv"]) == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "batched.csv").read_bytes()

    def test_noisy_sweep_builds_the_model_once(self, tmp_path, monkeypatch, cold_store):
        cfg = ModelConfig(ModelVariant.RESONANT_QUBIT)
        patterns = [(initial_joint(x, cfg, ProbePrep.GROUND).mat != 0).tobytes()
                    for x in _sweep_grid(0.5, 1.0, float(PATTERN_GRID[-1]))]
        changes = 1 + sum(a != b for a, b in zip(patterns, patterns[1:]))
        assert changes == 4 and len(set(patterns)) == 3
        calls = {"build_hamiltonian": 0, "reachable_entries": 0}

        def counted(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr("qprobe.dynamics.build_hamiltonian", counted(build_hamiltonian))
        monkeypatch.setattr("qprobe.dynamics.reachable_entries", counted(reachable_entries))
        assert run(["sweep", "--gamma", "0.1", *PATTERN_GRID,
                    "--out", tmp_path / "s.csv"]) == 0
        # one plan per distinct pattern: the plan of x < 2/3 is kept past x = 2/3
        assert calls == {"build_hamiltonian": 1, "reachable_entries": 3}
        # a later call in the process builds nothing
        assert run(["sweep", "--gamma", "0.1", *PATTERN_GRID,
                    "--out", tmp_path / "again.csv"]) == 0
        assert calls == {"build_hamiltonian": 1, "reachable_entries": 3}
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()


#: jobs that keep models and plans in the process's store: both noisy
#: evolve models (block products included), a noisy sweep through x = 2/3
#: and x = 1, noisy probe shots and the qnd report; then jobs that differ
#: from earlier ones in one part of a key only: the gap (one plan), the
#: rate (one config) and the detuning (the qnd's exchange model)
WARM_SEQUENCE = [
    ["evolve", "--x", "0.75", "--model", "secii-boson", "--gamma", "0.1", "--t-end", "10",
     "--samples", "201", "--out", "e.csv"],
    ["evolve", "--x", "0.75", "--model", "seciii-full", "--delta", "10", "--gamma", "0.1",
     "--t-end", "1", "--samples", "41", "--out", "e.csv"],
    ["sweep", "--gamma", "0.1", *PATTERN_GRID, "--emit-svg", "--out", "s.csv"],
    ["probe", "--x", "0.75", "--gamma", "0.1", "--shots", "1000", "--seed", "3"],
    ["qnd", "--x", "0.75", "--cycles", "3", "--shots", "10000", "--seed", "5", "--report-tm",
     "--out", "q.csv"],
    ["evolve", "--x", "0.75", "--model", "secii-boson", "--gamma", "0.1", "--t-end", "5",
     "--samples", "201", "--out", "e.csv"],
    ["evolve", "--x", "0.75", "--model", "seciii-full", "--delta", "10", "--gamma", "0.2",
     "--t-end", "1", "--samples", "41", "--out", "e.csv"],
    ["evolve", "--x", "0.75", "--model", "seciii-eff", "--delta", "12", "--gamma", "0.1",
     "--t-end", "1", "--samples", "41", "--out", "e.csv"],
]


def test_warm_store_changes_no_output(tmp_path, monkeypatch, capsys, cold_store):
    def outputs(args):
        """The job's stdout and every file it wrote, from an empty directory."""
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        monkeypatch.chdir(work)
        assert run(args) == 0
        return capsys.readouterr().out, {f.name: f.read_bytes() for f in work.iterdir()}

    cold = []
    for args in WARM_SEQUENCE:
        cold_store()
        cold.append(outputs(args))
    cold_store()
    first = [outputs(args) for args in WARM_SEQUENCE]
    built, fidelities = [], []
    monkeypatch.setattr("qprobe.dynamics.build_hamiltonian",
                        lambda cfg: built.append(cfg) or build_hamiltonian(cfg))
    swap_fidelity = protocols._swap_fidelity
    monkeypatch.setattr(protocols, "_swap_fidelity",
                        lambda prop, t: fidelities.append(t) or swap_fidelity(prop, t))
    second = [outputs(args) for args in WARM_SEQUENCE]
    # the second pass runs on kept models, and its qnd report on kept fidelities
    assert built == [] and fidelities == []
    for args, want, got_first, got_second in zip(WARM_SEQUENCE, cold, first, second):
        assert want != ("", {}) and got_first == want and got_second == want, args


ONE_PATH_COMMANDS = [
    ["measures", "--x", "0.75"],
    *(["sweep", "--x-step", "0.05", "--model", m, *g]
      for m in ("secii-qubit", "secii-boson") for g in ([], ["--gamma", "0.1"])),
    *(["evolve", "--x", "0.75", "--model", m, *d, *g]
      for m, d in (("secii-qubit", []), ("secii-boson", []),
                   ("seciii-eff", ["--delta", "10"]), ("seciii-full", ["--delta", "10"]))
      for g in ([], ["--gamma", "0.1"])),
    *(["probe", *a, "--model", m]
      for m in ("secii-qubit", "secii-boson")
      for a in (["--x", "0.75"], ["--x", "1", "--n", "3"], ["--x", "0.9", "--n", "999999"])),
    ["probe", "--x", "0.75", "--gamma", "0.1", "--n", "3", "--shots", "1000"],
    ["qnd", "--x", "0.75", "--shots", "10000", "--report-tm"],
]


@pytest.mark.parametrize("args", ONE_PATH_COMMANDS, ids=" ".join)
def test_every_report_takes_the_x_state_path(args, tmp_path, monkeypatch, capsys):
    # every state a CLI job reports on is an exact X state: the guard
    # drops rounding off the X, and none may reach it
    guard, seen = measures._x_states, []

    def spy(mats):
        seen.append(float(np.abs(mats[:, measures._OFF_X]).max()))
        return guard(mats)

    monkeypatch.setattr(measures, "_x_states", spy)
    monkeypatch.chdir(tmp_path)
    assert main(args) == 0, capsys.readouterr().err
    assert seen and max(seen) == 0.0


def test_runtime_needs_no_scipy():
    # scipy is test-only: with it blocked, every golden CLI output still
    # comes out, and the measures refuse a state off the X (test_golden)
    src = os.path.dirname(os.path.dirname(qprobe.__file__))
    code = ("import sys; sys.modules['scipy'] = None; import pytest; "
            "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', 'tests/test_golden.py']))")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          cwd=Path(__file__).resolve().parents[1], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("args", [["probe", "--x", "0.75"],
                                  ["evolve", "--x", "0.75", "--out", "e.csv"],
                                  ["sweep", "--gamma", "0.1", "--out", "s.csv"],
                                  ["qnd", "--x", "0.75"]], ids=lambda a: a[0])
def test_cold_command_leaves_numpy_ma_unloaded(args, tmp_path):
    # importing numpy.ma costs a fresh process about 10 ms, and no job needs it
    src = os.path.dirname(os.path.dirname(qprobe.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = f"""
import sys
from qprobe.cli import main
assert main({args!r}) == 0
assert "numpy.ma" not in sys.modules, "numpy.ma is loaded"
"""
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# random float inputs end in a documented exit code

SPECIAL_FLOATS = st.sampled_from([
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, 1.7e308,
])


def any_float(typical):
    """Any float (nan, infinities, subnormal, huge) or one from a typical range."""
    return st.one_of(st.floats(), SPECIAL_FLOATS, typical)


FUZZED_COMMANDS = {
    "measures": (["measures"], ["x"]),
    "probe": (["probe"], ["x", "gamma"]),
    "qnd": (["qnd", "--shots", "0", "--report-tm"], ["x", "delta"]),
    # the default resonant model takes no detuning, so --delta is fuzzed on seciii-eff
    "evolve": (["evolve", "--samples", "3"], ["x", "gamma", "t-end"]),
    "evolve-detuned": (["evolve", "--samples", "3", "--model", "seciii-eff"],
                       ["x", "gamma", "delta", "t-end"]),
}


@pytest.mark.parametrize("command", sorted(FUZZED_COMMANDS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    x=any_float(st.floats(0.5, 1.0)),
    gamma=any_float(st.floats(0.0, 1.0)),
    delta=any_float(st.floats(1.0, 100.0)),
    # no value between 5 and the 10^4 time cap, so no example runs long
    t_end=st.one_of(SPECIAL_FLOATS, st.floats(-1.0, 5.0)),
)
@example(x=0.75, gamma=0.0, delta=5e-324, t_end=1.0)  # J = 1/(2 delta) overflows
@example(x=0.75, gamma=0.0, delta=8.5e307, t_end=1.0)  # the transfer time overflows
def test_random_float_inputs_end_in_a_documented_exit_code(command, x, gamma, delta, t_end):
    head, flags = FUZZED_COMMANDS[command]
    values = {"x": x, "gamma": gamma, "delta": delta, "t-end": t_end}
    argv = [*head, *(f"--{f}={values[f]!r}" for f in flags)]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([*argv, "--out", os.path.join(tmp, "out")])
    assert code in (0, 2, 3, 4)
    assert code == 0 or "error:" in err.getvalue()
