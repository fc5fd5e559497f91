"""Prints the seconds this fresh interpreter spends importing qprobe.cli,
then the seconds of the calibration kernel run right after it.

    PYTHONPATH=src python3 bench/setup_probe.py
"""

import time

t0 = time.perf_counter()
import qprobe.cli  # noqa: E402,F401  (the import is what is timed)
import_s = time.perf_counter() - t0

import speed  # noqa: E402

print(import_s, speed.kernel_seconds())
