"""Command-line front end.

Subcommands: measures, sweep, evolve, probe, qnd, plot.  Flags can also
be supplied as a JSON document via --config (keys: the flag names with
underscores, no others); explicit flags win on conflict.  Outputs are
byte deterministic for identical configuration: floats are serialized
with 12 significant digits and sweep rows are assembled in grid order.

Exit codes: 0 success, 2 argument validation, 3 I/O, 4 data shape.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import svgplot
from .dynamics import (
    ModelConfig,
    ModelVariant,
    NoiseConfig,
    integrate_master,
    initial_joint,
    sigma_z_stack,
)
from .measures import (
    CorrelationReport,
    concurrence_stack,
    correlation_report,
    mutual_information_stack,
)
from .protocols import (
    RESONANT_READOUT,
    estimate_exact,
    estimate_from_counts,
    run_probe_cycle,
    run_qnd_sequence,
    sample_shots,
    transfer_time_report,
)
from .qcore import trace_distance, trace_distance_stack
from .states import ProbePrep, one_param_density

MODEL_CHOICES = {
    "secii-qubit": ModelVariant.RESONANT_QUBIT,
    "secii-boson": ModelVariant.RESONANT_BOSON,
    "seciii-full": ModelVariant.DISPERSIVE_FULL,
    "seciii-eff": ModelVariant.DISPERSIVE_EFFECTIVE,
}

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
#: most evolve sample times accepted; a sample keeps only the entries the
#: dynamics reach (at most dynamics.MAX_REACHABLE), so memory stays bounded
MAX_EVOLVE_SAMPLES = 10_001


class DataShapeError(Exception):
    """Input data does not have the shape a command requires."""


def fmt(v: float) -> str:
    """Serialize a float with 12 significant digits, locale independent."""
    return f"{float(v):.12g}"


# ---------------------------------------------------------------------------
# argument handling

#: every flag of every command; a --config key is the flag's name with underscores
_FLAGS = {
    "x": dict(type=float, help="family parameter in [0.5, 1]"),
    "x-start": dict(type=float, help="sweep grid start (default 0.5)"),
    "x-stop": dict(type=float, help="sweep grid stop (default 1.0)"),
    "x-step": dict(type=float, help="sweep grid step (default 0.01)"),
    "gamma": dict(type=float, help="spontaneous emission rate in units of g"),
    "delta": dict(type=float, help="detuning in units of g"),
    "model": dict(type=str, choices=sorted(MODEL_CHOICES), help="model variant"),
    "t-end": dict(type=float, help="evolution time in units of 1/g"),
    "samples": dict(type=int, help="number of sample times (default 201)"),
    "shots": dict(type=int, help="shots per stage (0 = exact statistics)"),
    "seed": dict(type=int, help="sampling seed"),
    "n": dict(type=int, help="odd number of half periods (default 1)"),
    "cycles": dict(type=int, help="full cycles (default 3)"),
    "emit-svg": dict(action="store_true",
                     help="also render the correlation columns next to the CSV"),
    "report-tm": dict(action="store_true",
                      help="also report fidelity at the delta*pi/g^2 candidate time"),
    "csv": dict(type=str, help="input CSV path"),
    "columns": dict(type=str, help="comma-separated column names to draw"),
    "out": dict(type=str, help="output file path"),
    "config": dict(type=str, help="JSON config file (flags win on conflict)"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.

    Parsing keeps no state between calls: every call gets a fresh
    namespace, and every flag defaults to None.
    """
    parser = argparse.ArgumentParser(
        prog="qprobe",
        description="Simulate probing of entanglement, discord and classical "
        "correlation of the one-parameter two-qubit family.",
    )
    # no prefix matching: a removed or misspelt flag must not reach another one
    no_abbrev = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=no_abbrev)
    for command, (_, help_text, *names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names:
            p.add_argument(f"--{name}", default=None, **_FLAGS[name])
    return parser


def _config_value(key: str, value):
    """``value`` of a --config key, converted as its flag converts text.

    A switch takes a JSON boolean only; any other flag takes a string or
    a number (as its repr) through its type and choices, so 2.7 is no
    int, and true or null is no value at all.
    """
    spec = _FLAGS[key.replace("_", "-")]
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


def merged_options(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge flag values over --config values over defaults."""
    from_file: dict = {}
    if getattr(args, "config", None):
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
            from_file[key] = _config_value(key, from_file[key])
    out = {**defaults, **from_file}
    for key in defaults:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            out[key] = flag_val
    return out


def _require_x(opts: dict) -> float:
    x = opts.get("x")
    if x is None:
        raise ValueError("missing required parameter x")
    x = float(x)
    if not 0.5 <= x <= 1.0:
        raise ValueError("x out of family domain")
    return x


def _model_config(opts: dict) -> ModelConfig:
    return ModelConfig(
        variant=MODEL_CHOICES[opts["model"]],
        delta=float(opts["delta"]) if opts.get("delta") is not None else None,
    )


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# commands

def cmd_measures(args: argparse.Namespace) -> int:
    opts = merged_options(args, {"x": None, "out": None})
    x = _require_x(opts)
    rho = one_param_density(x)
    rep = correlation_report(rho)
    values = {
        "x": x,
        "concurrence": rep.concurrence,
        "mutual_info": rep.mutual_info,
        "classical": rep.classical,
        "discord": rep.discord,
        "classical_eq20": rep.classical_closed_form,
        "sigma_z": 2.0 * RESONANT_READOUT.probability(x) - 1.0,
    }
    print("\n".join(f"{k} = {fmt(v)}" for k, v in values.items()))
    if opts["out"]:
        _write_text(opts["out"], json.dumps({k: float(v) for k, v in values.items()},
                                            indent=2) + "\n")
    return 0


def _sweep_grid(start: float, stop: float, step: float) -> list[float]:
    if not math.isfinite(step) or step <= 0:
        raise ValueError("step must be positive and finite")
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


def _sweep_row(x: float, cfg: ModelConfig, noise: NoiseConfig) -> list[float]:
    """Noiseless measures and sigma_z; with noise, also one noisy probe cycle."""
    sigma_z = 2.0 * RESONANT_READOUT.probability(x) - 1.0
    if noise.gamma == 0.0:
        rep = correlation_report(one_param_density(x))
        return [x, *_report_values(rep), sigma_z]
    cycle = run_probe_cycle(x, cfg, 1, noise)
    return [x, *_report_values(cycle.measures_before), sigma_z,
            *_report_values(cycle.measures_after), cycle.mean_sigma_z]


def cmd_sweep(args: argparse.Namespace) -> int:
    opts = merged_options(args, {
        "x_start": 0.5, "x_stop": 1.0, "x_step": 0.01,
        "gamma": 0.0, "model": "secii-qubit", "out": "sweep.csv",
        "emit_svg": False,
    })
    cfg = _model_config(opts)
    if cfg.variant not in (ModelVariant.RESONANT_QUBIT, ModelVariant.RESONANT_BOSON):
        raise ValueError("sweep runs on the resonant models")
    noise = NoiseConfig(gamma=float(opts["gamma"]))
    grid = _sweep_grid(float(opts["x_start"]), float(opts["x_stop"]),
                       float(opts["x_step"]))

    header = ["x", *SWEEP_COLUMNS]
    if noise.gamma > 0:
        header += [f"{c}_noisy" for c in SWEEP_COLUMNS]
    rows = [_sweep_row(x, cfg, noise) for x in grid]

    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(fmt(v) for v in row) + "\n"
    _write_text(opts["out"], text)
    print(f"wrote {len(rows)} rows to {opts['out']}")

    if opts["emit_svg"]:
        columns = ["discord", "classical"]
        if noise.gamma > 0:
            columns += ["discord_noisy", "classical_noisy"]
        series = [
            (c, [row[header.index(c)] for row in rows]) for c in columns
        ]
        svg_path = str(opts["out"]).rsplit(".", 1)[0] + ".svg"
        _write_text(svg_path, svgplot.render_line_chart(grid, series, x_label="x"))
        print(f"wrote {svg_path}")
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    opts = merged_options(args, {
        "x": None, "model": "secii-qubit", "gamma": 0.0,
        "delta": None, "t_end": 10.0, "samples": 201, "out": "evolve.csv",
    })
    x = _require_x(opts)
    cfg = _model_config(opts)
    noise = NoiseConfig(gamma=float(opts["gamma"]))
    t_end = float(opts["t_end"])
    if not math.isfinite(t_end) or t_end <= 0:
        raise ValueError("t-end must be positive and finite")
    n_samples = int(opts["samples"])
    if n_samples < 2:
        raise ValueError("need at least two samples")
    if n_samples > MAX_EVOLVE_SAMPLES:
        raise ValueError(f"samples exceed {MAX_EVOLVE_SAMPLES}")

    joint0 = initial_joint(x, cfg, ProbePrep.GROUND)
    times = np.linspace(0.0, t_end, n_samples)
    res = integrate_master(joint0, cfg, noise, t_end, sample_times=times)
    # every sample at once, as (n, 4, 4) pair and (n, 2, 2) probe stacks
    ab, pc = res.readout()
    columns = (
        res.times,
        concurrence_stack(ab),
        mutual_information_stack(ab),
        sigma_z_stack(pc),
        pc[:, 0, 0].real,
        trace_distance_stack(ab, one_param_density(x).mat),
    )
    lines = ["t,concurrence,mutual_info,sigma_z,p_excited,dist_to_initial"]
    lines += [",".join(fmt(v) for v in row) for row in zip(*columns)]
    _write_text(opts["out"], "\n".join(lines) + "\n")
    print(f"wrote {len(res.times)} samples to {opts['out']}")
    return 0


def cmd_probe(args: argparse.Namespace) -> int:
    opts = merged_options(args, {
        "x": None, "gamma": 0.0, "model": "secii-qubit",
        "shots": 0, "seed": 0, "n": 1, "out": None,
    })
    x = _require_x(opts)
    shots = int(opts["shots"])
    if shots < 0:
        raise ValueError("shots must be nonnegative")
    cfg = _model_config(opts)
    report = run_probe_cycle(x, cfg, int(opts["n"]),
                             NoiseConfig(gamma=float(opts["gamma"])))
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
        rec = sample_shots(p_e, shots, int(opts["seed"]))
        est = estimate_from_counts([(RESONANT_READOUT, rec)])
        out["shots"] = shots
        out["count_excited"] = rec.count_excited
        out["x_hat_sampled"] = est.x_hat
        out["stderr"] = est.stderr
        out["ci99_lo"], out["ci99_hi"] = est.ci99

    out = {k: v if isinstance(v, (bool, int)) else float(v) for k, v in out.items()}
    for k, v in out.items():
        print(f"{k} = {fmt(v) if isinstance(v, float) else json.dumps(v)}")
    if opts["out"]:
        _write_text(opts["out"], json.dumps(out, indent=2) + "\n")
    return 0


def cmd_qnd(args: argparse.Namespace) -> int:
    opts = merged_options(args, {
        "x": None, "delta": 10.0, "cycles": 3,
        "shots": 0, "seed": 7, "out": None, "report_tm": False,
    })
    x = _require_x(opts)
    cfg = ModelConfig(ModelVariant.DISPERSIVE_EFFECTIVE, delta=float(opts["delta"]))
    result = run_qnd_sequence(x, cfg, int(opts["cycles"]),
                              int(opts["shots"]), int(opts["seed"]))
    restoration = trace_distance(result.final_state.mat, one_param_density(x).mat)
    est = result.estimate
    print(f"x_hat = {fmt(est.x_hat)}")
    print(f"stderr = {fmt(est.stderr)}")
    print(f"ci99 = [{fmt(est.ci99[0])}, {fmt(est.ci99[1])}]")
    print(f"restoration_distance = {fmt(restoration)}")
    print(f"derived_concurrence = {fmt(est.derived.concurrence)}")
    print(f"derived_discord = {fmt(est.derived.discord)}")
    print(f"derived_classical = {fmt(est.derived.classical)}")
    if opts["report_tm"]:
        rep = transfer_time_report(cfg.j_exchange)
        print(f"transfer_time = {fmt(rep.best_time)}")
        print(f"transfer_fidelity = {fmt(rep.best_fidelity)}")
        print(f"candidate_time_dpig2 = {fmt(rep.candidate_time)}")
        print(f"candidate_fidelity = {fmt(rep.candidate_fidelity)}")
    if opts["out"]:
        lines = ["cycle,stage,prep,duration,p_excited,shots,count_excited"]
        for i, sr in enumerate(result.stages):
            lines.append(",".join([
                str(i // 2),
                str(i % 2),
                sr.stage.probe_prep.value,
                fmt(sr.stage.duration),
                fmt(sr.stage.outcome_p_excited),
                str(sr.shots.shots),
                str(sr.shots.count_excited),
            ]))
        _write_text(opts["out"], "\n".join(lines) + "\n")
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    opts = merged_options(args, {"csv": None, "columns": None, "out": "plot.svg"})
    if not opts["csv"]:
        raise ValueError("missing required --csv path")
    if not opts["columns"]:
        raise ValueError("missing required --columns list")
    with open(opts["csv"], "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 2:
        raise DataShapeError("CSV has no data rows")
    header = lines[0].split(",")
    wanted = [c.strip() for c in str(opts["columns"]).split(",") if c.strip()]
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

#: each command's handler, help line and flags, in --help order
_COMMANDS = {
    "measures": (cmd_measures, "all correlation measures of the family state",
                 "x", "out", "config"),
    "sweep": (cmd_sweep, "parameter sweep over x, CSV output", "x-start", "x-stop",
              "x-step", "gamma", "model", "out", "config", "emit-svg"),
    "evolve": (cmd_evolve, "time evolution of one configuration, CSV output", "x",
               "model", "gamma", "delta", "t-end", "out", "config", "samples"),
    "probe": (cmd_probe, "single ground-probe readout cycle", "x", "gamma", "model",
              "shots", "seed", "out", "config", "n"),
    "qnd": (cmd_qnd, "non-demolition probe sequence", "x", "delta", "shots", "seed",
            "out", "config", "cycles", "report-tm"),
    "plot": (cmd_plot, "render CSV columns as an SVG line chart", "out", "config",
             "csv", "columns"),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command][0](args)
    except DataShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
