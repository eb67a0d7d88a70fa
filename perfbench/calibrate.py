"""A fixed calibration kernel, timed between the steps of a stage, so the
times can be scaled to a steady machine speed.

On a shared host the speed of this process drifts by a third over seconds
to minutes, as other tenants load the cores and caches, and the two vCPUs
of a small VM can run at different speeds at once.  Kernels of different
kinds (an interpreter loop, a big-integer product, a numpy sort) slow down
together, so a short kernel timed in the thread that runs the steps, next
to a step, measures the speed the step ran at.  A step's time times
CAL_REF_S over the kernel's time around it is what the step would take at
the speed where the kernel takes CAL_REF_S.  The kernel is the benchmark's
own code and runs on the same data every time, so a change to the program
does not change it."""

from __future__ import annotations

import statistics
import time

import numpy as np

# seconds of one kernel call at the reference speed, about its median in
# runs on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4).  A constant, so it
# cancels when two commits are compared on one machine.
CAL_REF_S = 0.0011
# least wall time between two calibrations inside a stage
CAL_EVERY_S = 0.1

_ARRAY = np.random.default_rng(0).random(1 << 15)


def _kernel() -> None:
    s = 0
    for i in range(8000):
        s += i * i
    np.sort(_ARRAY)
    _ = 3**2000 * 7**1500


def calibrate() -> float:
    """Seconds of one kernel call, timed after an untimed call that brings
    its code and data back into the caches the program has used."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scaled_steps(span: dict) -> list[float]:
    """The span's step times scaled to the reference speed.  A calibration
    at index k ran before step k; each step uses the median of the two
    calibrations before it and the two after it."""
    cals = span["calibrations"]
    out = []
    for i, step in enumerate(span["steps"]):
        after = next(p for p, (k, _) in enumerate(cals) if k > i)
        near = [seconds for _, seconds in cals[max(0, after - 2):after + 2]]
        out.append(step * CAL_REF_S / statistics.median(near))
    return out
