"""Machine-speed reference for the benchmark's times.

The 2-vCPU Intel Xeon virtual machine this benchmark was written on shares
its host with other machines, and its speed drifts by 20-40 % over minutes,
in CPU time as much as in wall time.  Every time the benchmark reports is
therefore scaled to a reference speed.  A fixed task, independent of
harmonicmaps, is timed just before and just after each measured interval,
and the interval is multiplied by ``REFERENCE_S`` over the mean of those
two calibration times.

The task mixes interpreter work, small NumPy kernels and work on fresh
pages, because the pair scans spend much of their time faulting in large
arrays.  On ``pairs-dense`` with five seeds it took the spread (quartile
distance over median) of the job-list time from 0.067 raw to 0.029 scaled.
A change to the library cannot move the calibration task, so it moves the
scaled times as much as the raw ones.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

# The calibration task's typical duration on that virtual machine, so that
# scaled times read close to its raw seconds.
REFERENCE_S = 0.012


def calibration_s() -> float:
    """Time a fixed mix of interpreter work, small NumPy kernels, and
    NumPy work on 8 MiB of fresh pages.

    The small arrays stay below malloc's mmap threshold and the fresh pages
    come from an anonymous ``mmap``, so the task leaves the allocator state
    that the measured jobs share as it found it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i
    a = np.arange(10_000, dtype=float)
    for _ in range(30):
        a = np.sqrt(a * a + 1.0)
    with mmap.mmap(-1, 8 << 20) as mm:
        fresh = np.frombuffer(mm, dtype=complex)
        fresh[:] = 1.0
        fresh *= 0.5j
        fresh += 1.0
        float(fresh.real.sum())
        del fresh
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two calibrations, at the reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
