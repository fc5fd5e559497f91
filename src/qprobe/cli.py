"""Command-line front end.

Subcommands: measures, sweep, evolve, probe, qnd, plot, each declared once
in ``_COMMANDS`` with its options and their defaults; that table gives the
flags, the defaults their help states, and the --config keys (the flag
names with underscores, no others).  Explicit flags win over --config.
Outputs are byte deterministic for identical configuration: floats are
serialized with 12 significant digits and sweep rows are assembled in
grid order.

Exit codes: 0 success, 2 argument validation, 3 I/O, 4 data shape.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import Iterable, Optional, Sequence

import numpy as np

from . import svgplot
from .dynamics import (
    ModelConfig,
    ModelVariant,
    NoiseConfig,
    integrate_master,
    initial_joint_from_pair,
    sigma_z_stack,
)
from .measures import (
    CorrelationReport,
    concurrence_stack,
    correlation_reports,
    mutual_information_stack,
    trace_distance_x_stack,
)
from .protocols import (
    RESONANT_READOUT,
    estimate_exact,
    estimate_from_counts,
    run_probe_cycle,
    run_probe_cycles,
    run_qnd_sequence,
    sample_shots,
    transfer_time_report,
)
from .qcore import density_matrices
from .states import ProbePrep, family_matrices, one_param_density, two_qubit_space

MODEL_CHOICES = {
    "secii-qubit": ModelVariant.RESONANT_QUBIT,
    "secii-boson": ModelVariant.RESONANT_BOSON,
    "seciii-full": ModelVariant.DISPERSIVE_FULL,
    "seciii-eff": ModelVariant.DISPERSIVE_EFFECTIVE,
}
#: sweep and probe read the probe through the resonant law, so they take only these
RESONANT_MODELS = ("secii-boson", "secii-qubit")

SWEEP_COLUMNS = (
    "concurrence",
    "mutual_info",
    "classical",
    "discord",
    "classical_eq20",
    "sigma_z",
)

#: largest sweep grid accepted; the grid is built in memory
MAX_SWEEP_POINTS = 100_001
#: sweep rows computed together, so memory stays bounded however long the
#: grid: 256 noisy probe cycles peak at 5.6 MB on secii-boson
SWEEP_BATCH = 256
#: most evolve sample times accepted; a sample keeps only the entries the
#: dynamics reach (at most dynamics.MAX_REACHABLE), so memory stays bounded
MAX_EVOLVE_SAMPLES = 10_001


class DataShapeError(Exception):
    """Input data does not have the shape a command requires."""


#: every float the CLI writes: 12 significant digits, locale independent
FLOAT_FORMAT = "%.12g"


def fmt(v: float) -> str:
    """Serialize a float with FLOAT_FORMAT."""
    return FLOAT_FORMAT % float(v)


# ---------------------------------------------------------------------------
# argument handling

#: every option of every command, by its --config key (the flag's name with underscores)
_FLAGS = {
    "x": dict(type=float, help="family parameter in [0.5, 1]"),
    "x_start": dict(type=float, help="sweep grid start"),
    "x_stop": dict(type=float, help="sweep grid stop"),
    "x_step": dict(type=float, help="sweep grid step"),
    "gamma": dict(type=float, help="spontaneous emission rate in units of g"),
    "delta": dict(type=float, help="detuning in units of g"),
    "model": dict(type=str, choices=sorted(MODEL_CHOICES), help="model variant"),
    "t_end": dict(type=float, help="evolution time in units of 1/g"),
    "samples": dict(type=int, help="number of sample times"),
    "shots": dict(type=int, help="shots per stage, 0 for exact statistics"),
    "seed": dict(type=int, help="sampling seed"),
    "n": dict(type=int, help="odd number of half periods"),
    "cycles": dict(type=int, help="full cycles"),
    "emit_svg": dict(action="store_true",
                     help="also render the correlation columns next to the CSV"),
    "report_tm": dict(action="store_true",
                      help="also report fidelity at the delta*pi/g^2 candidate time"),
    "csv": dict(type=str, help="input CSV path"),
    "columns": dict(type=str, help="comma-separated column names to draw"),
    "out": dict(type=str, help="output file path"),
}


def _flag_spec(command: str, key: str) -> dict:
    """A fresh copy of option ``key``'s argparse keywords, with ``command``'s choices."""
    narrowed = _COMMANDS[command][3]
    return {**_FLAGS[key], **({"choices": narrowed[key]} if key in narrowed else {})}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process from ``_COMMANDS``.

    Parsing keeps no state between calls: every call gets a fresh
    namespace, and every flag defaults to None (``merged_options``
    applies the command's default, which the flag's help states).
    """
    parser = argparse.ArgumentParser(
        prog="qprobe",
        description="Simulate probing of entanglement, discord and classical "
        "correlation of the one-parameter two-qubit family.",
    )
    # no prefix matching: a removed or misspelt flag must not reach another one
    no_abbrev = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=no_abbrev)
    for command, (_, help_text, defaults, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key, default in defaults.items():
            spec = _flag_spec(command, key)
            # by identity: 0.0 == False, and a zero default is still stated
            if default is not None and default is not False:
                spec["help"] += f" (default {default})"
            p.add_argument(f"--{key.replace('_', '-')}", default=None, **spec)
        p.add_argument("--config", help="JSON config file (flags win on conflict)")
    return parser


def _config_value(key: str, value, spec: dict):
    """``value`` of a --config key, converted as its flag (``spec``) converts text.

    A switch takes a JSON boolean only; any other flag takes a string or
    a number (as its repr) through its type and choices, so 2.7 is no
    int, and true or null is no value at all.
    """
    switch = spec.get("action") == "store_true"
    if isinstance(value, bool) == switch and isinstance(value, (str, int, float)):
        try:
            converted = value if switch else spec["type"](
                value if isinstance(value, str) else repr(value))
        except ValueError:
            converted = None
        if converted is not None and converted in spec.get("choices", [converted]):
            return converted
    raise ValueError(f"config key {key!r} has an invalid value: {value!r}")


def merged_options(args: argparse.Namespace) -> dict:
    """The options of ``args.command``: flag values over --config values over defaults."""
    defaults = _COMMANDS[args.command][2]
    from_file: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                from_file = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"bad config file: {exc}") from exc
        if not isinstance(from_file, dict):
            raise ValueError("config file must hold a JSON object")
        for key in from_file:
            if key not in defaults:
                raise ValueError(f"config key {key!r} is not an option of {args.command}")
            from_file[key] = _config_value(key, from_file[key],
                                           _flag_spec(args.command, key))
    out = {**defaults, **from_file}
    for key in defaults:
        flag_val = getattr(args, key)
        if flag_val is not None:
            out[key] = flag_val
    return out


def _require_x(opts: dict) -> float:
    x = opts["x"]
    if x is None:
        raise ValueError("missing required parameter x")
    if not 0.5 <= x <= 1.0:
        raise ValueError("x out of family domain")
    return x


def _model_config(opts: dict) -> ModelConfig:
    return ModelConfig(MODEL_CHOICES[opts["model"]], delta=opts.get("delta"))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then one line per row: floats as ``fmt`` writes them, the rest as text.

    Each row is formatted by one ``%`` operation, with the format built
    once per tuple of value types.
    """
    lines = [",".join(header)]
    formats: dict[tuple, str] = {}
    for row in rows:
        row = tuple(row)
        # through a list: tuple(map(...)) left up to 2000 resized tuples in
        # CPython's tuple free list, 0.2 MB more peak memory on `evolve`
        types = tuple([type(v) for v in row])
        line_format = formats.get(types)
        if line_format is None:
            line_format = formats[types] = ",".join(
                FLOAT_FORMAT if issubclass(t, float) else "%s" for t in types)
        lines.append(line_format % row)
    _write_text(path, "\n".join(lines) + "\n")


def _print_values(values: dict, out: Optional[str]) -> None:
    """Print ``key = value`` lines; with ``out``, also write the values as JSON."""
    values = {k: v if isinstance(v, (bool, int)) else float(v) for k, v in values.items()}
    for k, v in values.items():
        print(f"{k} = {fmt(v) if isinstance(v, float) else json.dumps(v)}")
    if out:
        _write_text(out, json.dumps(values, indent=2) + "\n")


# ---------------------------------------------------------------------------
# commands; each takes the options that merged_options resolved

def cmd_measures(opts: dict) -> int:
    row = _sweep_rows([_require_x(opts)], None, NoiseConfig())[0]
    _print_values(dict(zip(["x", *SWEEP_COLUMNS], row)), opts["out"])
    return 0


def _sweep_grid(start: float, stop: float, step: float) -> list[float]:
    if not math.isfinite(step) or step <= 0:
        raise ValueError("step must be positive and finite")
    if start > stop:
        raise ValueError(f"x grid start {start!r} exceeds its stop {stop!r}")
    if not (0.5 <= start <= stop <= 1.0):
        raise ValueError("x grid must lie inside [0.5, 1]")
    n = np.floor((stop - start) / step + 1e-9) + 1
    if n > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid exceeds {MAX_SWEEP_POINTS} points")
    # the 1e-9 slack can admit a last point just past stop: end on stop
    return [min(start + i * step, stop) for i in range(int(n))]


def _report_values(rep: CorrelationReport) -> list[float]:
    return [rep.concurrence, rep.mutual_info, rep.classical, rep.discord,
            rep.classical_closed_form]


def _sweep_rows(grid: Sequence[float], cfg: Optional[ModelConfig],
                noise: NoiseConfig) -> list[list[float]]:
    """Noiseless measures and sigma_z per x; with noise, also one noisy probe cycle on ``cfg``.

    The whole grid takes one call: without noise, ``correlation_reports``
    of its family states, checked as one stack; with noise, ``run_probe_cycles``.
    """
    sigma_z = [2.0 * RESONANT_READOUT.probability(x) - 1.0 for x in grid]
    if noise.gamma == 0.0:
        reports = correlation_reports(density_matrices(two_qubit_space(),
                                                       family_matrices(grid)))
        return [[x, *_report_values(rep), sz] for x, rep, sz in zip(grid, reports, sigma_z)]
    return [[x, *_report_values(cycle.measures_before), sz,
             *_report_values(cycle.measures_after), cycle.mean_sigma_z]
            for x, cycle, sz in zip(grid, run_probe_cycles(grid, cfg, 1, noise), sigma_z)]


def cmd_sweep(opts: dict) -> int:
    cfg = _model_config(opts)
    noise = NoiseConfig(gamma=opts["gamma"])
    grid = _sweep_grid(opts["x_start"], opts["x_stop"], opts["x_step"])
    svg_path = os.path.splitext(opts["out"])[0] + ".svg"
    if opts["emit_svg"] and svg_path == opts["out"]:
        raise ValueError(f"--emit-svg would overwrite the CSV at {svg_path}: "
                         "give --out another extension than .svg")

    header = ["x", *SWEEP_COLUMNS]
    if noise.gamma > 0:
        header += [f"{c}_noisy" for c in SWEEP_COLUMNS]
    rows = []
    for first in range(0, len(grid), SWEEP_BATCH):
        rows += _sweep_rows(grid[first:first + SWEEP_BATCH], cfg, noise)
    _write_csv(opts["out"], header, rows)
    print(f"wrote {len(rows)} rows to {opts['out']}")

    if opts["emit_svg"]:
        columns = [c for c in ("discord", "classical", "discord_noisy", "classical_noisy")
                   if c in header]
        series = [(c, [row[header.index(c)] for row in rows]) for c in columns]
        _write_text(svg_path, svgplot.render_line_chart(grid, series, x_label="x"))
        print(f"wrote {svg_path}")
    return 0


def cmd_evolve(opts: dict) -> int:
    x = _require_x(opts)
    cfg = _model_config(opts)
    noise = NoiseConfig(gamma=opts["gamma"])
    t_end = opts["t_end"]
    if not math.isfinite(t_end) or t_end <= 0:
        raise ValueError("t-end must be positive and finite")
    n_samples = opts["samples"]
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if n_samples > MAX_EVOLVE_SAMPLES:
        raise ValueError(f"samples exceed {MAX_EVOLVE_SAMPLES}")

    pair = one_param_density(x)
    joint0 = initial_joint_from_pair(pair, cfg, ProbePrep.GROUND)
    times = np.linspace(0.0, t_end, n_samples)
    res = integrate_master(joint0, cfg, noise, t_end, sample_times=times)
    # every sample at once, as (n, 4, 4) pair and (n, 2, 2) probe stacks;
    # the columns go to the writer as lists, whose floats format faster
    # than numpy scalars
    ab, pc = res.readout()
    # rounding leaves an empty excited population slightly below 0
    # (-6.5e-17): clamp to [0, 1], with -0.0 to 0.0, as run_qnd_sequence does
    p_excited = pc[:, 0, 0].real
    columns = (
        res.times,
        concurrence_stack(ab).tolist(),
        mutual_information_stack(ab).tolist(),
        sigma_z_stack(pc).tolist(),
        np.where(p_excited < 1.0, np.where(p_excited > 0.0, p_excited, 0.0), 1.0).tolist(),
        trace_distance_x_stack(ab, pair.mat[None]).tolist(),
    )
    _write_csv(opts["out"], ["t", "concurrence", "mutual_info", "sigma_z", "p_excited",
                             "dist_to_initial"], zip(*columns))
    print(f"wrote {len(res.times)} samples to {opts['out']}")
    return 0


def cmd_probe(opts: dict) -> int:
    x = _require_x(opts)
    shots = opts["shots"]
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    cfg = _model_config(opts)
    report = run_probe_cycle(x, cfg, opts["n"], NoiseConfig(gamma=opts["gamma"]))
    p_e = min(1.0, max(0.0, 0.5 * (1.0 + report.mean_sigma_z)))
    inferred = estimate_exact([(RESONANT_READOUT, p_e)])
    out = {
        "t_read": report.t_read,
        "mean_sigma_z": report.mean_sigma_z,
        "x_hat": inferred.x_hat,
        "concurrence_hat": inferred.derived.concurrence,
        "discord_hat": inferred.derived.discord,
        "classical_hat": inferred.derived.classical,
        "state_restored": report.state_restored,
        "post_distance_to_initial": report.post_distance_to_initial,
    }
    for name in ("concurrence", "mutual_info", "classical", "discord"):
        out[f"{name}_before"] = getattr(report.measures_before, name)
        out[f"{name}_after"] = getattr(report.measures_after, name)

    if shots > 0:
        rec = sample_shots(p_e, shots, opts["seed"])
        est = estimate_from_counts([(RESONANT_READOUT, rec)])
        out["shots"] = shots
        out["count_excited"] = rec.count_excited
        out["x_hat_sampled"] = est.x_hat
        out["stderr"] = est.stderr
        out["ci99_lo"], out["ci99_hi"] = est.ci99
    _print_values(out, opts["out"])
    return 0


def cmd_qnd(opts: dict) -> int:
    x = _require_x(opts)
    cfg = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=opts["delta"])
    result = run_qnd_sequence(x, cfg, opts["cycles"], opts["shots"], opts["seed"])
    restoration = trace_distance_x_stack(result.final_state.mat[None],
                                         one_param_density(x).mat[None])[0]
    est = result.estimate
    print(f"x_hat = {fmt(est.x_hat)}")
    print(f"stderr = {fmt(est.stderr)}")
    print(f"ci99 = [{fmt(est.ci99[0])}, {fmt(est.ci99[1])}]")
    print(f"restoration_distance = {fmt(restoration)}")
    print(f"derived_concurrence = {fmt(est.derived.concurrence)}")
    print(f"derived_discord = {fmt(est.derived.discord)}")
    print(f"derived_classical = {fmt(est.derived.classical)}")
    if opts["report_tm"]:
        rep = transfer_time_report(cfg)
        print(f"transfer_time = {fmt(rep.best_time)}")
        print(f"transfer_fidelity = {fmt(rep.best_fidelity)}")
        print(f"candidate_time_dpig2 = {fmt(rep.candidate_time)}")
        print(f"candidate_fidelity = {fmt(rep.candidate_fidelity)}")
    if opts["out"]:
        preps = (ProbePrep.EXCITED.value, ProbePrep.GROUND.value)
        _write_csv(opts["out"], ["cycle", "stage", "prep", "duration", "p_excited",
                                 "shots", "count_excited"],
                   [(i // 2, i % 2, preps[i % 2], result.duration, p, result.shots_per_stage, k)
                    for i, (p, k) in enumerate(zip(result.p_excited.tolist(),
                                                   result.count_excited.tolist()))])
    return 0


def cmd_plot(opts: dict) -> int:
    if not opts["csv"]:
        raise ValueError("missing required --csv path")
    if not opts["columns"]:
        raise ValueError("missing required --columns list")
    with open(opts["csv"], "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise DataShapeError("CSV has no data rows")
    header = lines[0].split(",")
    wanted = [c.strip() for c in opts["columns"].split(",") if c.strip()]
    if not wanted:
        raise ValueError("empty column list")
    for col in wanted:
        if col not in header:
            raise DataShapeError(f"missing column: {col}")
    idx = {c: header.index(c) for c in header}
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise DataShapeError("ragged CSV row")
        try:
            row = [float(p) for p in parts]
        except ValueError as exc:
            raise DataShapeError(f"non-numeric CSV cell: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise DataShapeError(f"non-finite CSV cell in row: {ln}")
        rows.append(row)
    abscissa = [r[0] for r in rows]
    series = [(c, [r[idx[c]] for r in rows]) for c in wanted]
    svg = svgplot.render_line_chart(abscissa, series, x_label=header[0])
    _write_text(opts["out"], svg)
    print(f"wrote {opts['out']}")
    return 0


# ---------------------------------------------------------------------------

#: each command's handler, help line, options (--config keys) with their
#: defaults in --help order, and the choices it narrows from _FLAGS
_COMMANDS = {
    "measures": (cmd_measures, "all correlation measures of the family state",
                 {"x": None, "out": None}, {}),
    "sweep": (cmd_sweep, "parameter sweep over x, CSV output",
              {"x_start": 0.5, "x_stop": 1.0, "x_step": 0.01, "gamma": 0.0,
               "model": "secii-qubit", "out": "sweep.csv", "emit_svg": False},
              {"model": RESONANT_MODELS}),
    "evolve": (cmd_evolve, "time evolution of one configuration, CSV output",
               {"x": None, "model": "secii-qubit", "gamma": 0.0, "delta": None,
                "t_end": 10.0, "out": "evolve.csv", "samples": 201}, {}),
    "probe": (cmd_probe, "single ground-probe readout cycle",
              {"x": None, "gamma": 0.0, "model": "secii-qubit", "shots": 0, "seed": 0,
               "out": None, "n": 1},
              {"model": RESONANT_MODELS}),
    "qnd": (cmd_qnd, "non-demolition probe sequence",
            {"x": None, "delta": 10.0, "shots": 0, "seed": 7, "out": None, "cycles": 3,
             "report_tm": False}, {}),
    "plot": (cmd_plot, "render CSV columns as an SVG line chart",
             {"out": "plot.svg", "csv": None, "columns": None}, {}),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][0](merged_options(args))
    except (DataShapeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, DataShapeError) else 3 if isinstance(exc, OSError) else 2


if __name__ == "__main__":
    sys.exit(main())
