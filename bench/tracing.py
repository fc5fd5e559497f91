"""Span tracing of qprobe's layers from outside the package.

``install`` wraps the public functions of every qprobe module wherever
the name is bound, including the copies made by ``from .x import y``.
Each call records a span (id, parent id, job id, name, start, end,
raised); the spans stay in memory until the worker writes them out.
A few counters are kept at the same boundaries.  ``layer_metrics``
turns spans and counters into per-job means of calls, self time and
errors.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

#: traced functions per module; "Class.name" entries are methods
FUNCTIONS = {
    "qcore": ("DensityMatrix", "partial_trace", "SpectralPropagator.build",
              "SpectralPropagator.apply", "fidelity", "trace_distance"),
    "states": ("one_param_density", "join_with_probe", "corner_swap"),
    "measures": ("classical_correlation_optimized", "correlation_report",
                 "concurrence", "mutual_information"),
    "dynamics": ("integrate_master", "build_hamiltonian", "initial_joint"),
    "protocols": ("find_transfer_time", "transfer_time_report", "run_qnd_sequence",
                  "sample_shots", "estimate_from_counts", "boson_pair_to_qubits"),
    "cli": ("main",),
    "svgplot": ("render_line_chart",),
}

#: counters kept at layer boundaries, with their units
COUNTERS = {
    "measures.objective_evals": "count",
    "dynamics.rk4_steps": "count",
    "dynamics.rk4_gflop": "GFLOP",
    "protocols.swap_fidelity_evals": "count",
    "protocols.sample_shots.shots": "count",
    "protocols.sample_shots.bytes": "bytes",
    "cli.bytes_written": "bytes",
}

#: metrics of the traced run as a whole
RUN_METRICS = {
    "cli.first_job_s": "s",
    "trace_overhead_pct": "%",
    "unattributed_s": "s",
}

ROOT = "cli.main"


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer, names in FUNCTIONS.items():
        for fn in names:
            out += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s"),
                    (f"{layer}.{fn}.errors", "count")]
        out.append((f"{layer}.self_s", "s"))
    return out + list(COUNTERS.items()) + list(RUN_METRICS.items())


class Tracer:
    """In-memory span and counter recorder; ``job`` tags what is recorded."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.job = 0
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None

    def add(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[(self.job, name)] += amount

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` recording one span per call; ``on_call(bound_args)`` adds counts."""
        sig = inspect.signature(fn) if on_call else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(bound.arguments)
            stack = self._local.__dict__.setdefault("stack", [])
            # spans opened in the sweep's pool threads belong to the open job
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            if name == ROOT:
                self._root = sid
            stack.append(sid)
            raised = False
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if name == ROOT:
                    self._root = None
                self.spans.append((sid, parent, self.job, name, start, end, raised))

        return traced

    def counting(self, name: str, fn):
        """``fn`` adding one to a counter per call, without a span."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return counted


def _rebind(original, replacement) -> None:
    """Replace every module-level binding of ``original`` inside qprobe."""
    for modname, mod in list(sys.modules.items()):
        if modname != "qprobe" and not modname.startswith("qprobe."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _rk4_steps(t_end: float, dt: float, sample_times) -> int:
    """RK4 steps integrate_master takes, following its fixed-step schedule.

    The first full step is taken three times (one step and two half
    steps) for the step-size check.
    """
    times = sorted(float(t) for t in (sample_times if sample_times is not None
                                      else (t_end,)))
    t, steps, checked = 0.0, 0, False
    for target in times:
        if target <= t + 1e-15:
            continue
        while t < target - 1e-12:
            step = min(dt, target - t)
            steps += 1
            if not checked and step == dt:
                steps += 2
                checked = True
            t += step
        t = target
    return steps


def install(tracer: Tracer) -> None:
    """Wrap the functions in FUNCTIONS and attach the counters."""
    mods = {layer: sys.modules[f"qprobe.{layer}"] for layer in FUNCTIONS}
    dm = mods["qcore"].DensityMatrix
    dm.__init__ = tracer.wrap("qcore.DensityMatrix", dm.__init__)
    sp = mods["qcore"].SpectralPropagator
    sp.from_hamiltonian = classmethod(tracer.wrap(
        "qcore.SpectralPropagator.build", sp.__dict__["from_hamiltonian"].__func__))
    # apply() delegates to apply_mat(), so this covers both entry points
    sp.apply_mat = tracer.wrap("qcore.SpectralPropagator.apply", sp.apply_mat)

    def on_integrate(a):
        steps = _rk4_steps(a["t_end"], a["dt"], a["sample_times"])
        noise = a["noise"]
        n_ops = (len(noise.collapse_ops) if noise.collapse_ops is not None
                 else int(noise.gamma > 0.0))
        d = a["rho0"].space.dim
        # computed: 4 right-hand sides per step, each 2 + 4 n_ops complex
        # d x d products at 8 d^3 real flops
        tracer.add("dynamics.rk4_steps", steps)
        tracer.add("dynamics.rk4_gflop", steps * 4 * (2 + 4 * n_ops) * 8 * d ** 3 / 1e9)

    def on_sample(a):
        tracer.add("protocols.sample_shots.shots", a["shots"])
        # computed: one 8-byte counter per shot in each temporary array
        tracer.add("protocols.sample_shots.bytes", 8 * a["shots"])

    hooks = {"dynamics.integrate_master": on_integrate,
             "protocols.sample_shots": on_sample}
    for layer, names in FUNCTIONS.items():
        for fn in names:
            if fn == "DensityMatrix" or "." in fn:
                continue
            original = getattr(mods[layer], fn)
            name = f"{layer}.{fn}"
            _rebind(original, tracer.wrap(name, original, hooks.get(name)))

    for name, mod, attr in (
        ("measures.objective_evals", mods["measures"], "_conditional_entropy_angles"),
        ("protocols.swap_fidelity_evals", mods["protocols"], "_swap_fidelity"),
    ):
        original = getattr(mod, attr)
        _rebind(original, tracer.counting(name, original))

    write_text = mods["cli"]._write_text

    def counted_write(path, text):
        tracer.add("cli.bytes_written", len(text.encode("utf-8")))
        return write_text(path, text)

    mods["cli"]._write_text = counted_write


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for sid, parent, _job, _name, start, end, _raised in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(children[sid], start, end)
            for sid, _p, _j, _n, start, end, _r in spans}


def calls_per_job(spans: list) -> dict[int, Counter]:
    """Job id -> calls per traced function."""
    out: dict[int, Counter] = defaultdict(Counter)
    for _sid, _parent, job, name, *_ in spans:
        out[job][name] += 1
    return out


def layer_metrics(spans: list, counts: dict[tuple[int, str], float],
                  factors: dict[int, float]) -> dict[str, float]:
    """Per-job means of calls, self time, errors and counters.

    ``factors`` maps each job to include to the scale its times get.
    """
    n = len(factors)
    selfs = self_times(spans)
    out = {name: 0.0 for name, _ in per_layer_metrics() if name not in RUN_METRICS}
    for sid, _parent, job, name, _start, _end, raised in spans:
        if job not in factors:
            continue
        layer = name.split(".", 1)[0]
        self_s = selfs[sid] * factors[job]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{name}.errors"] += raised
        out[f"{layer}.self_s"] += self_s
    for (job, name), value in counts.items():
        if job in factors:
            out[name] += value
    return {name: total / n for name, total in out.items()}


def unattributed(spans: list, job_walls: dict[int, float],
                 factors: dict[int, float]) -> float:
    """Mean per job of job time minus the time top-level spans cover."""
    tops = defaultdict(list)
    for _sid, parent, job, _name, start, end, _raised in spans:
        if parent is None:
            tops[job].append((start, end))
    gaps = [(wall - _covered(tops[job], float("-inf"), float("inf"))) * factors[job]
            for job, wall in job_walls.items()]
    return sum(gaps) / len(gaps)
