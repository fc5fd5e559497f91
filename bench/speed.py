"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants, each CPU's speed jumps by up to half
between a fast and a slow state as the load beside it changes, and drifts
over minutes; raw job times of one workload then spread by 10-35% from run
to run.  The benchmark therefore times a fixed kernel on every CPU the
process may use, just before and just after each job, and reports
``seconds * REFERENCE_S / kernel_s``: the time the job would take on a
machine where the kernel takes REFERENCE_S.  The kernel mixes the two kinds
of work qprobe's jobs are made of, interpreted Python and small dense
complex matrix products.  Raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: kernel seconds on the machine the scaled times refer to
REFERENCE_S = 0.01
#: CPUs sampled at most; beyond this the first ones stand for the rest
MAX_CPUS = 8

_RNG = np.random.default_rng(0)
_A = (_RNG.standard_normal((18, 18)) + 1j * _RNG.standard_normal((18, 18))) / 18.0
_B = np.eye(18, dtype=complex)


def _kernel_once() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    m = _B
    for _ in range(800):
        m = _A @ m + _B
    return time.perf_counter() - t0


def kernel_seconds() -> float:
    """Kernel seconds averaged over the CPUs this process may run on.

    The calling thread is pinned to each CPU in turn for three runs of
    the kernel (median taken) and then gets its original CPU set back.
    """
    cpus = sorted(os.sched_getaffinity(0))
    per_cpu = []
    try:
        for cpu in cpus[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(_kernel_once() for _ in range(3)))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(per_cpu)


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` rescaled to the reference machine speed."""
    return seconds * REFERENCE_S / kernel_s
