"""A yardstick for the speed of the host at one moment.

On a shared host the CPU speed drifts by a quarter or more, and a slow
phase can last from a few seconds to minutes (see README.md).  A time
taken in a slow phase says more about the host than about qdeg.  So the
worker times ``kernel()`` before every op and after the last one, and
again right after each cold start.  The kernel is fixed pure-Python
Fraction and dict work of the kind qdeg does, and it calls no qdeg code,
so no change to qdeg changes its time.  ``run.py`` scales every measured
time by ``REFERENCE_S`` over the kernel's time around it: a figure in
seconds is the time the code takes at the speed at which the kernel takes
``REFERENCE_S``.
"""

import gc
from fractions import Fraction
from statistics import median
from time import perf_counter

# The kernel's time on the 2-core reference VM (Python 3.11.7) in a fast
# phase, so that scaled times read close to the wall times seen there.
REFERENCE_S = 7.0e-4

# Kernel samples on each side of an op that its scale factor is taken from.
WINDOW = 4
# Kernels timed in a row after a cold start.
BURST = 9


def kernel():
    table = {}
    acc = Fraction(0)
    for i in range(120):
        acc += Fraction(i + 1, 2 * i + 3)
        table[(i, i % 7)] = acc * acc
    total = 0
    for value in table.values():
        total += value.numerator % 97
    return total


def sample():
    """Seconds one kernel takes now.  The collector is paused, so that the
    size of qdeg's heap does not enter the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        kernel()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def burst():
    """The median of ``BURST`` kernels in a row."""
    return median(sample() for _ in range(BURST))


def scaled(latencies, paces):
    """Each op's latency at the reference speed.  ``paces`` has one kernel
    time before each op and one after the last; op i is scaled by the
    median of the ``2 * WINDOW`` kernel times around it."""
    out = []
    for i, latency in enumerate(latencies):
        near = paces[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
        out.append(latency * REFERENCE_S / median(near))
    return out
